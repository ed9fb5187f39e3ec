"""Frequency-space containers: harmonic-resolved density matrices and MPOs.

A periodic solution ``rho(t) = sum_n rho^n exp(i n Omega t)`` is stored as a
map from the harmonic index ``n in [-cutoff, cutoff]`` to an MPS over the
vectorized (Choi) site space. The generator of the dynamics is stored the
same way: one MPO per Fourier transfer ``q``, acting as

    (L rho)^n = sum_q K^q [rho^(n-q)]  -  i n Omega rho^n,

which is the matrix form of the time-dependent generator after inserting the
harmonic expansion. The block-diagonal ``-i n Omega`` ramp is kept symbolic
(it is a scalar per block) rather than baked into MPO tensors.
"""

from __future__ import annotations

import json

import numpy as np

from .mps import Mps
from .superops import vectorize_choi
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

    Blocks are MPS of physical dimension ``site_dim**2``; missing harmonics
    inside ``[-cutoff, cutoff]`` are treated as exact zeros.
    """

    __slots__ = ("blocks", "omega", "cutoff", "chain_length", "site_dim")

    def __init__(self, blocks, omega, cutoff, chain_length, site_dim=2):
        self.blocks = dict(blocks)
        self.omega = float(omega)
        self.cutoff = int(cutoff)
        self.chain_length = int(chain_length)
        self.site_dim = int(site_dim)
        p = site_dim * site_dim
        for n, b in self.blocks.items():
            if abs(n) > self.cutoff:
                raise ValueError(f"block {n} outside cutoff {self.cutoff}")
            if len(b) != chain_length or b.phys_dim != p:
                raise ValueError(f"block {n} has wrong geometry")

    @property
    def harmonics(self):
        return range(-self.cutoff, self.cutoff + 1)

    @property
    def phys_dim(self):
        return self.site_dim * self.site_dim

    def block(self, n):
        """Block `n`, materializing zeros for absent harmonics."""
        if n in self.blocks:
            return self.blocks[n]
        return Mps.zeros(self.chain_length, self.phys_dim)

    def scaled(self, alpha):
        return FloquetDensityMatrix(
            {n: b.scaled(alpha) for n, b in self.blocks.items()},
            self.omega,
            self.cutoff,
            self.chain_length,
            self.site_dim,
        )

    def inner(self, other):
        """Extended-space pairing ``sum_n <self^n|other^n>``."""
        total = 0.0 + 0.0j
        for n in self.harmonics:
            if n in self.blocks and n in other.blocks:
                total += self.blocks[n].inner(other.blocks[n])
        return total

    def norm(self):
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def identity_dual_vectors(self):
        """Per-site dual vectors evaluating the trace of a block."""
        eye = vectorize_choi(np.eye(self.site_dim, dtype=complex))
        return [eye] * self.chain_length

    def block_trace(self, n):
        if n not in self.blocks:
            return 0.0 + 0.0j
        return self.blocks[n].contract_with_product_dual(self.identity_dual_vectors())

    def to_dense_blocks(self):
        """Dense ``{n: matrix}`` of all stored blocks (small chains only)."""
        from .superops import choi_site_matrix

        return {
            n: choi_site_matrix(b.to_dense(), self.chain_length, self.site_dim)
            for n, b in self.blocks.items()
        }


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
    return FloquetDensityMatrix(blocks, omega, cutoff, chain_length, site_dim)


def block_norms(state: FloquetDensityMatrix):
    """Frobenius norm of every harmonic block."""
    return {n: state.block(n).norm() for n in state.harmonics}


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
    for n, b in state.blocks.items():
        comp, info = b.canonicalize(spec)
        blocks[n] = comp
        discarded[n] = list(info.discarded_weights)
        spectra[n] = [np.asarray(s) for s in info.spectra]
    new_state = FloquetDensityMatrix(
        blocks, state.omega, state.cutoff, state.chain_length, state.site_dim
    )
    return new_state, discarded, spectra


def hermiticity_defect(state: FloquetDensityMatrix):
    """Relative defect ``|rho^n - (rho^(-n))^dag| / |rho^0|`` per harmonic.

    The norm is taken of the canonicalized difference MPS, so it does not
    cancel the way ``|a|^2 + |b|^2 - 2 Re <a|b>`` does for nearly equal
    terms. Raises for states with a vanishing static block, for which the
    normalization is meaningless.
    """
    ref = state.block(0).norm()
    if ref == 0.0:
        raise ValueError("hermiticity defect undefined for a state with |rho^0| = 0")
    out = {}
    for n in state.harmonics:
        reflected = state.block(-n).dagger_reflect(state.site_dim).scaled(-1.0)
        out[n] = state.block(n).add(reflected).canonicalize()[0].norm() / ref
    return out


class FloquetMPO:
    """Harmonic-resolved MPO generator plus the block-diagonal frequency ramp.

    ``components[q]`` is the MPO of the Fourier transfer-``q`` part of the
    generator; the action on block ``n`` additionally picks up
    ``diag_sign * i * n * omega`` times the identity. ``diag_sign = -1`` for
    the forward generator and ``+1`` for its adjoint.
    """

    __slots__ = ("components", "omega", "cutoff", "chain_length", "site_dim", "diag_sign")

    def __init__(self, components, omega, cutoff, chain_length, site_dim=2, diag_sign=-1.0):
        self.components = dict(components)
        self.omega = float(omega)
        self.cutoff = int(cutoff)
        self.chain_length = int(chain_length)
        self.site_dim = int(site_dim)
        self.diag_sign = float(diag_sign)
        p = site_dim * site_dim
        for q, w in self.components.items():
            if len(w) != chain_length or w.phys_dim != p:
                raise ValueError(f"component {q} has wrong geometry")

    @property
    def phys_dim(self):
        return self.site_dim * self.site_dim

    @property
    def max_bond(self):
        return max((w.max_bond for w in self.components.values()), default=1)

    def diagonal_coefficient(self, n):
        return self.diag_sign * 1j * n * self.omega

    def adjoint(self):
        comps = {-q: w.adjoint() for q, w in self.components.items()}
        return FloquetMPO(
            comps,
            self.omega,
            self.cutoff,
            self.chain_length,
            self.site_dim,
            diag_sign=-self.diag_sign,
        )

    def apply(self, state: FloquetDensityMatrix, spec=None):
        """Apply to a state, compressing each output block with `spec`.

        This is the tested reference for the generator's action (tests
        compare it with the dense generator). The solver does not call it:
        its fixed-point residual streams the same products through one QR
        sweep per block without building them (``solver._eigen_residual``).
        """
        spec = spec or TruncationSpec(weight_cutoff=1e-14)
        out = {}
        for n in state.harmonics:
            pieces = []
            for q, w in self.components.items():
                m = n - q
                if abs(m) > state.cutoff or m not in state.blocks:
                    continue
                pieces.append(state.blocks[m].apply_mpo(w))
            coeff = self.diagonal_coefficient(n)
            if n in state.blocks and coeff != 0:
                pieces.append(state.blocks[n].scaled(coeff))
            if not pieces:
                continue
            acc = pieces[0]
            for extra in pieces[1:]:
                acc = acc.add(extra)
            acc, _ = acc.canonicalize(spec)
            out[n] = acc
        return FloquetDensityMatrix(
            out, state.omega, state.cutoff, state.chain_length, state.site_dim
        )


def save_state(state: FloquetDensityMatrix, path):
    """Checkpoint a state: JSON header plus raw complex arrays in one .npz."""
    header = {
        "format_version": FORMAT_VERSION,
        "omega": state.omega,
        "cutoff": state.cutoff,
        "chain_length": state.chain_length,
        "site_dim": state.site_dim,
        "harmonics": sorted(state.blocks),
    }
    arrays = {}
    for n in sorted(state.blocks):
        for i, t in enumerate(state.blocks[n].tensors):
            arrays[f"block_{n + state.cutoff}_site_{i}"] = t
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)


def load_state(path):
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
    return FloquetDensityMatrix(
        blocks,
        header["omega"],
        cutoff,
        header["chain_length"],
        header["site_dim"],
    )
