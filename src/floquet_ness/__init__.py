"""Frequency-space MPO toolkit for steady states of driven Lindblad chains."""

from .tensors import TruncationSpec
from .superops import (
    LocalOperator,
    dissipator_super,
    identity_costate,
    left_mult_super,
    right_mult_super,
    vectorize_choi,
    devectorize_choi,
)
from .freqspace import (
    FloquetDensityMatrix,
    FloquetMPO,
    block_norms,
    compress,
    hermiticity_defect,
    initial_guess,
    load_state,
    save_state,
    trace_components,
)
from .liouvillian import (
    ModelSpec,
    build_extended_lindbladian,
    dense_extended_lindbladian,
    extended_null_vector,
)

__version__ = "0.1.0"
