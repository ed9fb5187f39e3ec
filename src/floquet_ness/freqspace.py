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

from .mps import Mps, _reflected
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
    ``ValueError`` naming the expected and the given harmonics, and so does
    a `cutoff` that is not an integer (a numpy integer counts, ``bool``
    does not).
    """

    __slots__ = ("blocks", "omega", "cutoff", "chain_length", "site_dim")

    def __init__(self, blocks, omega, cutoff):
        self.blocks = dict(blocks)
        self.omega = float(omega)
        self.cutoff = _integer("cutoff", cutoff)
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


def _integer(name, value):
    """`value` as an int; anything else, ``bool`` included, raises a
    ``ValueError`` naming `name` (the rule of ``SweepConfig.validate``)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def initial_guess(chain_length, site_dim, cutoff, omega, noise_amplitude=0.0, seed=0, noise_bond=2):
    """Maximally mixed state in the static block plus seeded noise everywhere.

    With zero noise, block 0 is exactly the vectorized ``I / d**L`` and all
    other harmonics vanish. Noise blocks are random MPS of bond dimension
    `noise_bond` (capped by the chain), scaled to norm `noise_amplitude`;
    the same seed reproduces the same tensors. `cutoff` must be an integer,
    as for :class:`FloquetDensityMatrix`.
    """
    cutoff = _integer("cutoff", cutoff)
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


def _padded(arrays):
    """Stack of equal-rank arrays, zero-padded to the largest extent of each axis."""
    shape = np.max([a.shape for a in arrays], axis=0)
    out = np.zeros((len(arrays), *shape), dtype=complex)
    for k, a in enumerate(arrays):
        out[(k, *map(slice, a.shape))] = a
    return out


def _stacks(state: FloquetDensityMatrix):
    """Site ``i`` of every harmonic block as one stack ``[n, p, l, r]``, in
    harmonic order, zero-padded to the largest bonds (:func:`_padded`): the
    padding adds zero rows and columns, which change no contraction."""
    return [_padded(sites) for sites in zip(*(state.blocks[n].tensors for n in state.harmonics))]


def _overlaps(bras, kets):
    """``<bra_n|ket_n>`` of every harmonic ``n``, from site stacks ``[n, p,
    l, r]`` (a stack of one broadcasts over all): one batched contraction of
    the transfer matrices per site."""
    env = np.ones((1, 1, 1), dtype=complex)  # [n, a, b]
    for bra, ket in zip(bras, kets):
        t = env[:, None] @ ket  # [n, p, a, b']
        env = bra.conj().reshape(len(bra), -1, bra.shape[-1]).swapaxes(1, 2) @ t.reshape(len(t), -1, t.shape[-1])
    return env[:, 0, 0]


def block_norms(state: FloquetDensityMatrix):
    """Frobenius norm of every harmonic block, all blocks at once (:func:`_overlaps`)."""
    overlaps = _overlaps(*[_stacks(state)] * 2)
    return {n: float(np.sqrt(max(v.real, 0.0))) for n, v in zip(state.harmonics, overlaps)}


def trace_components(state: FloquetDensityMatrix):
    """Trace of every harmonic block, its overlap with the identity costate,
    all blocks at once (:func:`_overlaps`)."""
    eye = vectorize_choi(np.eye(state.site_dim, dtype=complex)).reshape(1, -1, 1, 1)
    return dict(zip(state.harmonics, map(complex, _overlaps([eye] * state.chain_length, _stacks(state)))))


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

    The norm of each difference is a zip-up norm of a sum, as in
    :func:`~floquet_ness.mps.product_sum_norm`: one QR sweep that forms no
    sum MPS and does not cancel the way ``|a|^2 + |b|^2 - 2 Re <a|b>`` does
    for nearly equal terms. All harmonics go at once: block ``n`` and the
    reflected block ``-n`` of each site stack (:func:`_stacks`) are the two
    column slices of one batched QR per site, and the running factor starts
    as ``[1, -1]``, the terms' coefficients. Raises for states with a
    vanishing static block, for which the normalization is meaningless.
    """
    ref = block_norms(state)[0]
    if ref == 0.0:
        raise ValueError("hermiticity defect undefined for a state with |rho^0| = 0")
    factor = np.array([[[1.0, -1.0]]], dtype=complex)  # [n, D, (term l)], first the terms' coefficients
    for site in _stacks(state):
        nh, p, l, r = site.shape
        # block n and the reflected block -n as [n, term, l, (p r)]
        terms = np.stack([site, _reflected(site[::-1])], axis=1).swapaxes(2, 3).reshape(nh, 2, l, p * r)
        t = (factor.reshape(len(factor), -1, 2, l).swapaxes(1, 2) @ terms).reshape(nh, 2, -1, r)  # [n, term, (D p), r']
        t = t.swapaxes(1, 2).reshape(nh, -1, 2 * r)  # [n, (D p), (term r')]
        factor = np.linalg.qr(t, mode="r")
    return {n: float(v) / ref for n, v in zip(state.harmonics, np.linalg.norm(t.sum(axis=2), axis=1))}


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
