"""Frequency-space containers: harmonic-resolved density matrices and MPOs.

A periodic solution ``rho(t) = sum_n rho^n exp(i n Omega t)`` is stored as a
map from the harmonic index ``n in [-cutoff, cutoff]`` to an MPS over the
vectorized (Choi) site space. The generator of the dynamics is stored the
same way: one MPO per Fourier transfer ``q``, acting as

    (L rho)^n = sum_q K^q [rho^(n-q)]  -  i n Omega rho^n,

which is the matrix form of the time-dependent generator after inserting the
harmonic expansion. The block-diagonal ``-i n Omega`` ramp is kept symbolic
(it is a scalar per block) rather than baked into MPO tensors.

The data owns its dimensions: both containers read their chain length and
site dimension from their (at least one) blocks or components. Each dense
guard is a module constant of the module that forms the dense matrix.
"""

from __future__ import annotations

import json

import numpy as np

from .mps import Mps, product_sum_norm
from .superops import _site_dim, choi_site_matrix, vectorize_choi
from .tensors import TruncationSpec

__all__ = [
    "FloquetDensityMatrix",
    "FloquetMPO",
    "initial_guess",
    "block_norms",
    "trace_components",
    "compress",
    "hermiticity_defect",
    "save_state",
    "load_state",
]

FORMAT_VERSION = 1


class FloquetDensityMatrix:
    """Vectorized density matrix resolved into drive harmonics.

    `blocks` maps every harmonic ``n`` in ``[-cutoff, cutoff]``, and no other
    key, to an MPS of physical dimension ``site_dim**2``; a harmonic the state
    lacks is stored as :meth:`Mps.zeros`. The blocks fix `chain_length` and
    `site_dim`, so ``cutoff >= 0``. Any other set of keys raises
    ``ValueError`` naming the expected and the given harmonics.
    """

    __slots__ = ("blocks", "omega", "cutoff", "chain_length", "site_dim")

    def __init__(self, blocks, omega, cutoff):
        self.blocks = dict(blocks)
        self.omega = float(omega)
        self.cutoff = int(cutoff)
        if sorted(self.blocks) != list(self.harmonics):
            raise ValueError(f"blocks must be the harmonics {list(self.harmonics)}, got {sorted(self.blocks)}")
        self.chain_length, self.site_dim = _geometry(self.blocks, "block")

    @property
    def harmonics(self):
        return range(-self.cutoff, self.cutoff + 1)

    @property
    def phys_dim(self):
        return self.site_dim * self.site_dim

    def scaled(self, alpha):
        return FloquetDensityMatrix({n: self.blocks[n].scaled(alpha) for n in self.harmonics}, self.omega, self.cutoff)

    def inner(self, other):
        """Extended-space pairing ``sum_n <self^n|other^n>``."""
        total = 0.0 + 0.0j
        for n in self.harmonics:
            total += self.blocks[n].inner(other.blocks[n])
        return total

    def norm(self):
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def block_trace(self, n):
        """``Tr rho^n``: the block paired by :meth:`Mps.inner` with the
        vectorized identity, a product state."""
        eye = vectorize_choi(np.eye(self.site_dim, dtype=complex))
        return Mps.from_product([eye] * self.chain_length).inner(self.blocks[n])

    def to_dense_blocks(self):
        """Dense ``{n: matrix}`` of every harmonic block, in harmonic order
        (small chains only)."""
        return {n: choi_site_matrix(self.blocks[n].to_dense(), self.chain_length) for n in self.harmonics}


def _geometry(mps_by_key, what):
    """``(chain_length, site_dim)`` shared by the MPS or MPO values of a
    non-empty dict, whose physical dimension is ``site_dim**2``."""
    if not mps_by_key:
        raise ValueError(f"a frequency-space container needs at least one {what}")
    first = next(iter(mps_by_key.values()))
    for key, x in mps_by_key.items():
        if len(x) != len(first) or x.phys_dim != first.phys_dim:
            raise ValueError(f"{what} {key} has wrong geometry")
    return len(first), _site_dim(first.phys_dim, 2)


def initial_guess(chain_length, site_dim, cutoff, omega, noise_amplitude=0.0, seed=0, noise_bond=2):
    """Maximally mixed state in the static block plus seeded noise everywhere.

    With zero noise, block 0 is exactly the vectorized ``I / d**L`` and all
    other harmonics vanish. Noise blocks are random MPS of bond dimension
    `noise_bond` (capped by the chain), scaled to norm `noise_amplitude`;
    the same seed reproduces the same tensors.
    """
    p = site_dim * site_dim
    rng = np.random.default_rng(seed)
    mixed = [vectorize_choi(np.eye(site_dim)) / site_dim] * chain_length
    blocks = {0: Mps.from_product(mixed)}
    if noise_amplitude > 0.0:
        blocks[0] = blocks[0].add(
            Mps.random(chain_length, p, noise_bond, rng, norm=noise_amplitude)
        )
        for n in range(-cutoff, cutoff + 1):
            if n != 0:
                blocks[n] = Mps.random(chain_length, p, noise_bond, rng, norm=noise_amplitude)
    else:
        for n in range(-cutoff, cutoff + 1):
            if n != 0:
                blocks[n] = Mps.zeros(chain_length, p)
    return FloquetDensityMatrix(blocks, omega, cutoff)


def block_norms(state: FloquetDensityMatrix):
    """Frobenius norm of every harmonic block."""
    return {n: state.blocks[n].norm() for n in state.harmonics}


def trace_components(state: FloquetDensityMatrix):
    """Trace of every harmonic block via the identity costate."""
    return {n: state.block_trace(n) for n in state.harmonics}


def compress(state: FloquetDensityMatrix, spec: TruncationSpec):
    """Canonicalize and truncate each block independently.

    Returns ``(state, discarded, spectra)`` where `discarded` maps the
    harmonic index to the per-bond relative discarded weights and `spectra`
    to the per-bond Schmidt values (sorted non-increasing).
    """
    blocks, discarded, spectra = {}, {}, {}
    for n in state.harmonics:
        comp, info = state.blocks[n].canonicalize(spec)
        blocks[n] = comp
        discarded[n] = list(info.discarded_weights)
        spectra[n] = [np.asarray(s) for s in info.spectra]
    return FloquetDensityMatrix(blocks, state.omega, state.cutoff), discarded, spectra


def hermiticity_defect(state: FloquetDensityMatrix):
    """Relative defect ``|rho^n - (rho^(-n))^dag| / |rho^0|`` per harmonic.

    The norm of the difference is the zip-up norm of a sum
    (:func:`~floquet_ness.mps.product_sum_norm`), one QR sweep that forms no
    sum MPS and does not cancel the way ``|a|^2 + |b|^2 - 2 Re <a|b>`` does
    for nearly equal terms. Raises for states with a vanishing static block,
    for which the normalization is meaningless.
    """
    ref = state.blocks[0].norm()
    if ref == 0.0:
        raise ValueError("hermiticity defect undefined for a state with |rho^0| = 0")
    out = {}
    for n in state.harmonics:
        reflected = state.blocks[-n].dagger_reflect().scaled(-1.0)
        out[n] = product_sum_norm([(None, state.blocks[n]), (None, reflected)]) / ref
    return out


class FloquetMPO:
    """Harmonic-resolved MPO generator plus the block-diagonal frequency ramp.

    ``components[q]`` is the MPO of the Fourier transfer-``q`` part of the
    generator; the action on block ``n`` additionally picks up
    ``diag_sign * i * n * omega`` times the identity. ``diag_sign = -1`` for
    the forward generator and ``+1`` for its adjoint. The components fix
    `chain_length` and `site_dim`, so at least one is stored.
    """

    __slots__ = ("components", "omega", "chain_length", "site_dim", "diag_sign")

    def __init__(self, components, omega, diag_sign=-1.0):
        self.components = dict(components)
        self.omega = float(omega)
        self.diag_sign = float(diag_sign)
        self.chain_length, self.site_dim = _geometry(self.components, "component")

    @property
    def max_bond(self):
        return max((w.max_bond for w in self.components.values()), default=1)

    def diagonal_coefficient(self, n):
        return self.diag_sign * 1j * n * self.omega

    def adjoint(self):
        comps = {-q: w.adjoint() for q, w in self.components.items()}
        return FloquetMPO(comps, self.omega, diag_sign=-self.diag_sign)

    def apply(self, state: FloquetDensityMatrix, spec=None):
        """Apply to a state, compressing each output block with `spec`; an
        output block that no term reaches is :meth:`Mps.zeros`.

        This is the tested reference for the generator's action (tests
        compare it with the dense generator). The solver does not call it:
        its fixed-point residual streams the same products through one QR
        sweep per block without building them (``solver._eigen_residual``).
        """
        spec = spec or TruncationSpec(weight_cutoff=1e-14)
        blocks, out = state.blocks, {}
        for n in state.harmonics:
            pieces = [blocks[n - q].apply_mpo(w) for q, w in self.components.items() if abs(n - q) <= state.cutoff]
            coeff = self.diagonal_coefficient(n)
            if coeff != 0:
                pieces.append(blocks[n].scaled(coeff))
            if not pieces:
                out[n] = Mps.zeros(state.chain_length, state.phys_dim)
                continue
            acc = pieces[0]
            for extra in pieces[1:]:
                acc = acc.add(extra)
            out[n], _ = acc.canonicalize(spec)
        return FloquetDensityMatrix(out, state.omega, state.cutoff)


def save_state(state: FloquetDensityMatrix, path):
    """Checkpoint a state: JSON header plus raw complex arrays in one .npz."""
    header = {
        "format_version": FORMAT_VERSION,
        "omega": state.omega,
        "cutoff": state.cutoff,
        "chain_length": state.chain_length,
        "site_dim": state.site_dim,
        "harmonics": list(state.harmonics),
    }
    arrays = {}
    for n in state.harmonics:
        for i, t in enumerate(state.blocks[n].tensors):
            arrays[f"block_{n + state.cutoff}_site_{i}"] = t
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)


def load_state(path):
    """Read a :func:`save_state` checkpoint; raises when the header's chain
    length or site dimension disagrees with the stored tensors."""
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['format_version']}")
        cutoff = header["cutoff"]
        blocks = {}
        for n in header["harmonics"]:
            tensors = []
            i = 0
            while f"block_{n + cutoff}_site_{i}" in data:
                tensors.append(data[f"block_{n + cutoff}_site_{i}"])
                i += 1
            blocks[n] = Mps(tensors)
    state = FloquetDensityMatrix(blocks, header["omega"], cutoff)
    stored = (state.chain_length, state.site_dim)
    if stored != (header["chain_length"], header["site_dim"]):
        raise ValueError(
            f"checkpoint header says chain_length={header['chain_length']}, site_dim={header['site_dim']}; "
            f"its tensors hold {stored[0]} sites of dimension {stored[1]}"
        )
    return state
