"""Assembly of the harmonic-resolved Lindblad generator from a model.

A model is a chain length, a drive frequency, Hamiltonian Fourier components
(lists of windowed local terms) and jump-operator Fourier components (one
fixed window per dissipation channel). The transfer-``q`` Fourier component
of the generator acting on vectorized density matrices is

    K^q[s] = -i [H^q, s]
             + sum_alpha sum_j ( L^(j+q) s L^(j)dag
                                 - 1/2 {L^(j)dag L^(j+q), s} ),

summed over every harmonic ``j`` for which both factors exist. The full
frequency-space operator is ``sum_q K^q`` shifted block-to-block plus the
``-i n Omega`` ramp handled by :class:`~floquet_ness.freqspace.FloquetMPO`.

One sparse block assembly of that operator serves every dense reference:
``dense_fourier_superoperator``, ``dense_extended_lindbladian`` and
``extended_null_vector`` all read it.

The data owns its dimensions: :meth:`ModelSpec.validate` holds every term to
the model's ``site_dim``. Each dense guard is a module constant, which tests
monkeypatch: DEFAULT_DENSE_LIMIT, and DENSE_SOLVE_LIMIT for the solve.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .freqspace import FloquetMPO
from .mps import Mpo
from .superops import (
    choi_site_matrix,
    dissipator_super,
    identity_costate,
    left_mult_super,
    right_mult_super,
    window_super_site_layout,
    window_sums,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ModelSpec",
    "fourier_superoperator_terms",
    "build_extended_lindbladian",
    "dense_fourier_superoperator",
    "sparse_fourier_superoperator",
    "dense_extended_lindbladian",
    "extended_null_vector",
    "DEFAULT_DENSE_LIMIT",
]

DEFAULT_DENSE_LIMIT = 2**20  # extended dimensions above this are refused by every dense reference
DENSE_SOLVE_LIMIT = 4096  # extended dimensions up to this go to np.linalg.solve, larger ones to splu


@dataclass
class ModelSpec:
    """Chain model: Hamiltonian and jump-operator Fourier components.

    `hamiltonian_fourier` maps the harmonic ``k`` to a list of local terms of
    ``H^k``; Hermiticity of ``H(t)`` requires ``H^-k = (H^k)^dag`` termwise,
    which :meth:`validate` checks. `jump_fourier` maps a channel label to the
    harmonic map of one jump operator; all harmonics of a channel must share
    a single support window. Every term is on sites of dimension `site_dim`.
    :meth:`validate` also requires at least one site and a positive, finite
    drive frequency `omega`.
    """

    chain_length: int
    omega: float
    hamiltonian_fourier: dict = field(default_factory=dict)
    jump_fourier: dict = field(default_factory=dict)
    site_dim: int = 2

    def validate(self, tol=1e-10):
        if self.chain_length < 1:
            raise ValueError(f"chain_length must be at least 1, got {self.chain_length}")
        if not 0 < self.omega < np.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        for k, terms in self.hamiltonian_fourier.items():
            for t in terms:
                if t.start < 0 or t.stop > self.chain_length:
                    raise ValueError(f"H^{k} term leaves the chain: {t.support}")
                if t.site_dim != self.site_dim:
                    raise ValueError(f"H^{k} term at {t.support} has site_dim {t.site_dim}, the model {self.site_dim}")
            partners = window_sums(self.hamiltonian_fourier.get(-k, []))
            for key, mat in window_sums(terms).items():
                partner = partners.get(key)
                if partner is None:
                    raise ValueError(f"H^{k} term at {key} has no H^{-k} partner")
                if np.max(np.abs(partner - mat.conj().T)) > tol:
                    raise ValueError(f"H^{-k} at {key} is not the adjoint of H^{k}")
        for alpha, comps in self.jump_fourier.items():
            supports = {(op.start, op.width) for op in comps.values()}
            if len(supports) > 1:
                raise ValueError(f"jump channel {alpha!r} mixes windows {supports}")
            for j, op in comps.items():
                if op.start < 0 or op.stop > self.chain_length:
                    raise ValueError(f"jump channel {alpha!r} leaves the chain")
                if op.site_dim != self.site_dim:
                    raise ValueError(
                        f"jump channel {alpha!r} harmonic {j} has site_dim {op.site_dim}, the model {self.site_dim}"
                    )
        return self

    @property
    def max_hamiltonian_harmonic(self):
        return max((abs(k) for k, v in self.hamiltonian_fourier.items() if v), default=0)

    def transfers(self, n_c=None):
        """Sorted transfer harmonics with nonzero content, optionally clipped."""
        qs = set()
        for k, terms in self.hamiltonian_fourier.items():
            if terms:
                qs.add(k)
        for comps in self.jump_fourier.values():
            ks = sorted(comps)
            for a in ks:
                for b in ks:
                    qs.add(a - b)
        qs.add(0)
        if n_c is not None:
            qs = {q for q in qs if abs(q) <= 2 * n_c}
        return sorted(qs)


def fourier_superoperator_terms(model: ModelSpec, q: int):
    """The transfer-``q`` component as site-major window superoperators:
    one :class:`~floquet_ness.superops.LocalOperator` on sites of dimension
    ``d**2`` per window ``(start, width)``, sorted by window.

    The Hamiltonian terms ``H^q`` of a window are summed as operators before
    their commutator superoperator is formed, and every jump pair
    ``(L^(j+q), L^(j))`` on the window, over all channels and harmonics,
    goes into one stacked :func:`~floquet_ness.superops.dissipator_super`
    call; both steps are linear, so the window's matrix is the sum of its
    terms' superoperators. The site-major layout is the one of MPO assembly
    and of site-major dense embedding.
    """
    hams, pairs = window_sums(model.hamiltonian_fourier.get(q, [])), {}
    for comps in model.jump_fourier.values():
        for j, op_j in comps.items():
            op_jq = comps.get(j + q)
            if op_jq is not None:
                pairs.setdefault((op_j.start, op_j.width), []).append((op_jq.matrix, op_j.matrix))
    terms = []
    for key in sorted(hams.keys() | pairs.keys()):
        sup = 0.0
        if key in hams:
            sup = -1j * (left_mult_super(hams[key]) - right_mult_super(hams[key]))
        if key in pairs:
            jumps, partners = zip(*pairs[key])
            sup = sup + dissipator_super(np.stack(jumps), np.stack(partners))
        terms.append(window_super_site_layout(key[0], sup, model.site_dim))
    return terms


def build_extended_lindbladian(model: ModelSpec, n_c: int) -> FloquetMPO:
    """Harmonic-resolved MPO of the generator for states cut off at ``n_c``.

    Components with ``|q| > 2 n_c`` cannot connect any retained blocks and
    are dropped. A warning is emitted when this drops one of the model's
    transfers (:meth:`ModelSpec.transfers`), and another when nothing is
    dropped but its Hamiltonian carries harmonics beyond ``n_c``: their
    transfers are kept, but they never reach the static block ``0``, so
    part of the drive acts only through folded paths. Both begin
    ``model harmonics``.
    Each component is compressed as :meth:`Mpo.from_local_terms` assembles it;
    a ``q = 0`` component without terms is the zero MPO of bond 1. A
    component of a chain of up to three sites whose couplings have full rank
    (the pulse-driven DTC chain at L=3) passes the rank test of
    :meth:`Mpo.compressed`, a Cholesky factorization with a margin of 1e-6
    in relative Schmidt value, and is kept exact with no SVD; one below full
    rank (every Ising component) fails it and is cut by the SVD sweep.
    """
    model.validate()
    largest = max(abs(q) for q in model.transfers())
    if largest > 2 * n_c or model.max_hamiltonian_harmonic > n_c:
        warnings.warn(
            f"model harmonics (H up to {model.max_hamiltonian_harmonic}, transfers up to "
            f"{largest}) exceed the frequency cutoff n_c={n_c}; "
            + (
                f"transfers above 2 n_c = {2 * n_c} are dropped"
                if largest > 2 * n_c
                else "every transfer is kept, but those above n_c never reach the static block"
            ),
            stacklevel=2,
        )
    p = model.site_dim**2
    components = {}
    for q in model.transfers(n_c):
        terms = fourier_superoperator_terms(model, q)
        if terms:
            components[q] = Mpo.from_local_terms(model.chain_length, terms)
        else:  # only q = 0 of a chain with no jumps and no static Hamiltonian
            components[q] = Mpo([np.zeros((1, p, p, 1), dtype=complex) for _ in range(model.chain_length)])
    out = FloquetMPO(components, model.omega)
    logger.info(
        "extended generator: %d transfer components, operator bond <= %d",
        len(components),
        out.max_bond,
    )
    return out


def _embed_super(term, chain_length):
    """Sparse embedding of a site-major window superoperator, a LocalOperator
    on sites of dimension ``d**2``, into the chain."""
    p = term.site_dim
    left = sp.identity(p**term.start, dtype=complex, format="csr")
    right = sp.identity(p ** (chain_length - term.stop), dtype=complex, format="csr")
    return sp.kron(sp.kron(left, sp.csr_matrix(term.matrix)), right, format="csr")


def sparse_fourier_superoperator(model: ModelSpec, q: int):
    """Sparse matrix of the transfer-``q`` component on the full chain."""
    dim = model.site_dim ** (2 * model.chain_length)
    out = sp.csr_matrix((dim, dim), dtype=complex)
    for term in fourier_superoperator_terms(model, q):
        out = out + _embed_super(term, model.chain_length)
    return out


def dense_fourier_superoperator(model: ModelSpec, q: int):
    """Dense matrix of the transfer-``q`` component on the full chain."""
    return sparse_fourier_superoperator(model, q).toarray()


def _sparse_extended(model: ModelSpec, n_c: int):
    """Sparse (CSC) frequency-space generator in the block-major layout.

    Block ``(n, m)`` is the transfer-``(n - m)`` component; each diagonal
    block gets the ``-i n Omega`` ramp added after its component. Extended
    dimensions above DEFAULT_DENSE_LIMIT are refused.
    """
    model.validate()
    d2l = model.site_dim ** (2 * model.chain_length)
    total = (2 * n_c + 1) * d2l
    if total > DEFAULT_DENSE_LIMIT:
        raise ValueError(f"extended dimension {total} exceeds dense limit {DEFAULT_DENSE_LIMIT}")
    blocks = {q: sparse_fourier_superoperator(model, q) for q in model.transfers(n_c)}
    eye = sp.identity(d2l, dtype=complex, format="csr")
    rows = []
    for n in range(-n_c, n_c + 1):
        row = [blocks.get(n - m) for m in range(-n_c, n_c + 1)]
        row[n + n_c] = row[n + n_c] + eye * (-1j * n * model.omega)
        rows.append(row)
    return sp.bmat(rows, format="csc")


def dense_extended_lindbladian(model: ModelSpec, n_c: int):
    """Exact dense matrix of the frequency-space generator.

    Block-major layout: row/column index is ``(n + n_c) * d**(2L) + choi``.
    """
    return _sparse_extended(model, n_c).toarray()


def extended_null_vector(model: ModelSpec, n_c: int):
    """Trace-normalized steady solution of the frequency-space generator.

    Solves ``L x = 0`` with ``Tr x^0 = 1`` by adding a rank-one trace tether
    inside the static block, which removes the kernel without moving the
    solution, and returns the harmonic blocks as dense matrices ``{n: rho^n}``.
    Extended dimensions up to DENSE_SOLVE_LIMIT are solved densely (Ising
    L=4 up to n_c=2, L=5 at n_c=1), larger ones by a sparse LU.
    """
    mat = _sparse_extended(model, n_c)
    d = model.site_dim
    dl = d**model.chain_length
    d2l = dl * dl
    costate = identity_costate(model.chain_length, d)
    zero = slice(n_c * d2l, (n_c + 1) * d2l)
    rhs = np.zeros(mat.shape[0], dtype=complex)
    rhs[zero] = costate / dl  # vec of the maximally mixed state, trace 1
    trace = np.zeros(mat.shape[0], dtype=complex)
    trace[zero] = costate
    mat = mat + sp.csr_matrix(rhs[:, None]) @ sp.csr_matrix(trace[None, :])  # the tether
    if mat.shape[0] <= DENSE_SOLVE_LIMIT:
        x = np.linalg.solve(mat.toarray(), rhs)
    else:
        x = spla.splu(mat).solve(rhs)
    return {
        n: choi_site_matrix(x[(n + n_c) * d2l : (n + n_c + 1) * d2l], model.chain_length)
        for n in range(-n_c, n_c + 1)
    }
