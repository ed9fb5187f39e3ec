"""Sweeping eigensolver for steady states and slow modes in frequency space.

The solver works on the harmonic-resolved MPS of
:class:`~floquet_ness.freqspace.FloquetDensityMatrix`. All blocks are kept in
mixed-canonical gauge around the active site; contracting everything except
that site (or pair of sites) against the transfer components of the
generator yields, for the site tensors of all harmonic blocks at once, an
ordinary (non-Hermitian) local eigenproblem. Local problems up to
``SweepConfig.dense_local_cutoff`` are densified. The steady-state target
(the eigenvalue nearest zero) is then found by shift-invert: one LU
factorization and a short Arnoldi run on the inverse, accepted only on a
small true residual. The degeneracy check, which needs the runner-up
eigenvalue, the decay target (largest real part) and every refused
shift-invert solve use a full LAPACK diagonalization instead. Larger
problems go to restarted Arnoldi (ARPACK), with a logged dense fallback when
it fails. Sweeping the active site back and forth relaxes the state onto the
eigenvector, with the trace constraints enforced by rank-one penalty
projectors during warm-up.

Harmonic blocks ``n`` couple only through the transfer components ``q``, so
every local operation is one contraction batched over ``(q, n)``: the sweep
engine stores arrays stacked over harmonics and zero-padded to the largest
bond (layout in :class:`SweepEngine`). The padding is exact and never enters
the flat local vector of :class:`SiteProblem`: padded coordinates would be
exact zero eigenvalues, which the ``"nearest_zero"`` target would pick.

Sign conventions: eigenvalues are those of the frequency-space generator
(``Re <= 0``); a mode decays as ``exp(lambda t)`` and the relaxation time of
the slowest mode is ``-1 / Re(lambda_1)``.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .freqspace import FloquetDensityMatrix, FloquetMPO, initial_guess
from .liouvillian import ModelSpec, build_extended_lindbladian
from .mps import Mps
from .superops import LocalOperator, vectorize_choi
from .tensors import TruncationSpec, truncated_svd

logger = logging.getLogger(__name__)

__all__ = [
    "SweepStage",
    "SweepConfig",
    "SolveReport",
    "DecayModeResult",
    "SolverError",
    "EigensolverBreakdown",
    "DegenerateSteadyStateError",
    "StaleEnvironmentError",
    "RankOneTerm",
    "SweepEngine",
    "make_warmup_schedule",
    "solve_ness",
    "solve_first_decay_mode",
    "transient_observable",
    "identity_operator_state",
]


class SolverError(RuntimeError):
    pass


class EigensolverBreakdown(SolverError):
    pass


class DegenerateSteadyStateError(SolverError):
    pass


class StaleEnvironmentError(SolverError):
    pass


@dataclass(frozen=True)
class SweepStage:
    """One warm-up or production stage of the sweep schedule."""

    n_c: int
    chi: int
    sweeps: int = 4
    penalties_on: bool = True
    two_site: bool = True


CONVERGENCE_TOL = 1e-3  # edge-harmonic weight and Hermiticity defect that warn
WEIGHT_CUTOFF = 1e-12  # relative singular-value cutoff of every truncation
KRYLOV_DIM = 36  # ARPACK basis of a first attempt (a retry doubles it); shift-invert step budget
ARPACK_MAXITER = 600  # ARPACK restarts of a first attempt; a retry doubles them
DENSE_LOCAL_HARD_CAP = 4096  # largest local problem densified after ARPACK fails
DEGENERACY_TOL = 1e-7  # a second local eigenvalue this close to 0 is degenerate
# `SiteProblem.dense_matrix` applies the local operator to as many identity
# columns at once as keep its largest intermediate below this many bytes.
DENSE_BLOCK_BYTES = 1 << 21
# Methods a local solve is counted under in `SweepEngine.local_solves`:
# shift-invert and a full dense `eig` below the dense cutoff, ARPACK above
# it, and a dense `eig` (or shift-invert) after the method tried first failed.
LOCAL_METHODS = ("shift_invert", "dense_eig", "arnoldi", "dense_fallback")


@dataclass
class SweepConfig:
    """Schedule and tolerances for the sweeping solver.

    `warmup` must end with the production stage (the one whose cutoff and
    bond dimension are the targets); stages must not shrink the cutoff or
    the bond dimension. Local problems up to `dense_local_cutoff` are
    densified: steady-state solves use shift-invert (LU plus a short Arnoldi
    on the inverse) and fall back to a full `eig` when it is refused; the
    degeneracy check and the decay target always use `eig`. Larger problems
    go to ARPACK.
    """

    warmup: list = field(default_factory=list)
    eig_tol: float = 1e-10
    noise_amplitude: float = 1e-6
    seed: int = 7
    dense_local_cutoff: int = 700

    def validate(self):
        if not self.warmup:
            raise ValueError("sweep schedule is empty")
        for a, b in zip(self.warmup, self.warmup[1:]):
            if b.n_c < a.n_c or b.chi < a.chi:
                raise ValueError("stages must not shrink the cutoff or bond dimension")
        if self.eig_tol <= 0:
            raise ValueError("eig_tol must be positive")
        return self


def make_warmup_schedule(n_c, chi, warm_sweeps=3, final_sweeps=8):
    """Standard schedule: two-site warm-up stages with penalties at cutoffs
    ``0..n_c``, chi ramping up from ``min(chi, 8)``, then a single-site
    production stage without penalties."""
    chi_start = min(chi, 8)
    cutoffs = list(range(0, n_c + 1)) or [0]
    stages = []
    n_warm = len(cutoffs)
    for idx, nc in enumerate(cutoffs):
        frac = idx / max(n_warm - 1, 1)
        stage_chi = int(round(chi_start * (chi / chi_start) ** frac))
        stage_chi = min(chi, max(chi_start, stage_chi))
        stages.append(
            SweepStage(
                n_c=nc,
                chi=stage_chi,
                sweeps=warm_sweeps,
                penalties_on=True,
                two_site=True,
            )
        )
    stages.append(
        SweepStage(
            n_c=n_c,
            chi=chi,
            sweeps=final_sweeps,
            penalties_on=False,
            two_site=False,
        )
    )
    return stages


@dataclass
class SolveReport:
    """Diagnostics of one steady-state solve."""

    sweep_residuals: list = field(default_factory=list)
    final_residual: float = np.inf
    block_norm_profile: dict = field(default_factory=dict)
    trace_defects: dict = field(default_factory=dict)
    hermiticity_defects: dict = field(default_factory=dict)
    schmidt_spectra: dict = field(default_factory=dict)
    wall_time: float = 0.0
    stage_log: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    converged: bool = False
    fixed_point_residual: float = None
    eigenvalue: complex = None

    def to_dict(self):
        out = asdict(self)
        out["eigenvalue"] = (
            None
            if self.eigenvalue is None
            else [float(np.real(self.eigenvalue)), float(np.imag(self.eigenvalue))]
        )
        out["schmidt_spectra"] = {
            str(n): [[float(x) for x in bond] for bond in bonds]
            for n, bonds in self.schmidt_spectra.items()
        }
        out["block_norm_profile"] = {str(n): float(v) for n, v in self.block_norm_profile.items()}
        out["trace_defects"] = {str(n): float(v) for n, v in self.trace_defects.items()}
        out["hermiticity_defects"] = {
            str(n): float(v) for n, v in self.hermiticity_defects.items()
        }
        return out


@dataclass(frozen=True)
class RankOneTerm:
    """Penalty projector ``coefficient * |v><v|`` over harmonic blocks.

    With ``coupled`` the projector acts on the full frequency-stacked vector;
    otherwise each block in `vector` carries its own independent projector.
    """

    coefficient: complex
    vector: FloquetDensityMatrix
    coupled: bool = True


def identity_operator_state(chain_length, omega, cutoff, blocks, site_dim=2):
    """Vectorized identity placed in the given harmonic blocks (unnormalized)."""
    eye = vectorize_choi(np.eye(site_dim, dtype=complex))
    mps = Mps.from_product([eye] * chain_length)
    return FloquetDensityMatrix(
        {n: mps.copy() for n in blocks}, omega, cutoff, chain_length, site_dim
    )


def _qr_right(tensor):
    p, l, r = tensor.shape
    q, rmat = np.linalg.qr(tensor.reshape(p * l, r))
    return q.reshape(p, l, -1), rmat


def _qr_left(tensor):
    p, l, r = tensor.shape
    q, rmat = np.linalg.qr(tensor.transpose(0, 2, 1).reshape(p * r, l))
    return q.reshape(p, r, -1).transpose(0, 2, 1), rmat


def _padded(arrays, extra=0):
    """Stack of equal-rank arrays, zero-padded to the largest extent of each
    axis, with `extra` trailing zero entries."""
    shape = np.max([a.shape for a in arrays], axis=0)
    out = np.zeros((len(arrays) + extra, *shape), dtype=complex)
    for k, a in enumerate(arrays):
        out[(k, *map(slice, a.shape))] = a
    return out


class SweepEngine:
    """Mutable sweep state: block tensors, environments, penalty frames.

    The engine owns copies of the block tensors in mixed-canonical form,
    per harmonic and unpadded (QR and SVD act block by block), and the
    partially contracted environments of the local eigenproblem, one array
    per bond:

    - ``env_left[i]`` / ``env_right[i]``: ``[q, n, a, w, b]`` over the
      transfer components in `transfers` and the harmonics, with ``a`` the
      bra bond of block ``n``, ``b`` the ket bond of block ``n - q`` (both
      zero-padded to the largest bond of any block) and ``w`` the operator
      bond (zero-padded over components). Entries whose ``n - q`` lies outside
      the cutoff meet the zero block of the harmonic stack and stay zero.
    - ``vec_left[t][i]`` / ``vec_right[t][i]``: ``[n, a_v, a]`` overlap
      environments of rank-one term ``t``, zero for harmonics its vector
      lacks.

    `discarded_weight` sums the relative weight that two-site updates
    truncate away; callers reset it to measure one sweep. `local_solves`
    counts the engine's local solves by method (keys `LOCAL_METHODS`).
    """

    def __init__(
        self,
        mpo: FloquetMPO,
        state: FloquetDensityMatrix,
        trunc: TruncationSpec,
        rank_one_terms=(),
        scalar_coefficient=None,
    ):
        self.mpo = mpo
        self.trunc = trunc
        self.length = state.chain_length
        self.site_dim = state.site_dim
        self.phys = state.phys_dim
        self.omega = state.omega
        self.cutoff = state.cutoff
        self.harmonics = list(range(-self.cutoff, self.cutoff + 1))
        self.rank_one_terms = list(rank_one_terms)
        self.scalar_coefficient = scalar_coefficient
        self.blocks = {}
        for n in self.harmonics:
            mps = state.block(n).mixed_canonical(0)
            self.blocks[n] = [t.copy() for t in mps.tensors]
        self.transfers = [q for q in mpo.components if abs(q) <= 2 * self.cutoff]
        # stack position of block n - q for every (q, n); the position past
        # the last harmonic is the zero block
        outside = len(self.harmonics)
        self._shift = np.array(
            [
                [n - q + self.cutoff if abs(n - q) <= self.cutoff else outside for n in self.harmonics]
                for q in self.transfers
            ]
        )
        # per site, [q, (p' w'), (w p)] matrices of the [w, p', p, w'] tensors
        self._wstack = []
        for i in range(self.length):
            w = _padded([mpo.components[q].tensors[i].transpose(1, 3, 0, 2) for q in self.transfers])
            self._wstack.append(w.reshape(w.shape[0], w.shape[1] * w.shape[2], -1))
        # per rank-one term and site, the conjugated [n, m, p, m'] vector tensors
        self._vectors = [
            [
                _padded([term.vector.block(n).tensors[i].transpose(1, 0, 2) for n in self.harmonics]).conj()
                for i in range(self.length)
            ]
            for term in self.rank_one_terms
        ]
        self.discarded_weight = 0.0
        self.local_solves = dict.fromkeys(LOCAL_METHODS, 0)
        self.version = 0
        self.center = 0
        self._build_environments()

    # -- state access --------------------------------------------------------

    def state(self):
        return FloquetDensityMatrix(
            {n: Mps([t.copy() for t in ts]) for n, ts in self.blocks.items()},
            self.omega,
            self.cutoff,
            self.length,
            self.site_dim,
        )

    def block_trace(self, n):
        eye = vectorize_choi(np.eye(self.site_dim, dtype=complex))
        env = np.ones((1,), dtype=complex)
        for t in self.blocks[n]:
            env = env @ np.tensordot(eye, t, axes=([0], [0]))
        return complex(env[0])

    def site_stack(self, i):
        """``[n + 1, l, p, r]`` stack of site `i` over harmonics, zero block last."""
        return _padded([self.blocks[n][i].transpose(1, 0, 2) for n in self.harmonics], extra=1)

    # -- environments ---------------------------------------------------------

    def _build_environments(self):
        nq, nh = len(self.transfers), len(self.harmonics)
        tail = [None] * self.length
        self.env_left = [np.ones((nq, nh, 1, 1, 1), dtype=complex)] + tail
        self.env_right = tail[1:] + [self.env_left[0], None]
        self.vec_left = [[np.ones((nh, 1, 1), dtype=complex)] + tail for _ in self.rank_one_terms]
        self.vec_right = [tail[1:] + [vl[0], None] for vl in self.vec_left]
        for i in range(self.length - 1, 0, -1):
            self._update_right(i)

    def _operands(self, i):
        """Site `i` as ``[n, l, (p r)]``, its bra ``[n, (l p), r]`` and the kets
        ``[q, n, l, (p r)]`` of blocks ``n - q``, with the bond sizes."""
        stack = self.site_stack(i)
        nh, l, p, r = stack[:-1].shape
        site = stack[:-1].reshape(nh, l, p * r)
        bra = stack[:-1].conj().reshape(nh, l * p, r)
        return site, bra, stack[self._shift].reshape(-1, nh, l, p * r), (nh, l, p, r)

    def _update_left(self, i):
        """Absorb site `i` into the left environments (valid at i+1)."""
        site, bra, ket, (nh, l, p, r) = self._operands(i)
        env = self.env_left[i]
        nq, w = env.shape[0], env.shape[3]
        t = env.reshape(nq, nh, l * w, l) @ ket  # [q, n, (a w), (p b')]
        t = self._wstack[i][:, None, None] @ t.reshape(nq, nh, l, w * p, r)  # [q, n, a, (p' w'), b']
        t = bra.swapaxes(1, 2) @ t.reshape(nq, nh, l * p, -1)  # [q, n, a', (w' b')]
        self.env_left[i + 1] = t.reshape(nq, nh, r, -1, r)
        for vectors, vl in zip(self._vectors, self.vec_left):
            v = vectors[i]  # [n, m, p, m'], conjugated
            t = (vl[i] @ site).reshape(nh, -1, r)  # [n, (m p), a']
            vl[i + 1] = v.reshape(nh, -1, v.shape[3]).swapaxes(1, 2) @ t

    def _update_right(self, i):
        """Absorb site `i` into the right environments (valid at i-1)."""
        site, bra, ket, (nh, l, p, r) = self._operands(i)
        env = self.env_right[i]
        nq = env.shape[0]
        t = bra @ env.reshape(nq, nh, r, -1)  # [q, n, (a p'), (w' b')]
        t = self._wstack[i].swapaxes(1, 2)[:, None, None] @ t.reshape(nq, nh, l, -1, r)
        t = t.reshape(nq, nh, -1, p * r) @ ket.swapaxes(2, 3)  # [q, n, (a w), b]
        self.env_right[i - 1] = t.reshape(nq, nh, l, -1, l)
        for vectors, vr in zip(self._vectors, self.vec_right):
            v = vectors[i]  # [n, m, p, m'], conjugated
            t = (v.reshape(nh, -1, v.shape[3]) @ vr[i]).reshape(nh, v.shape[1], -1)
            vr[i - 1] = t @ site.swapaxes(1, 2)  # [n, m, a]

    def advance_to(self, site):
        """Move the orthogonality center rightward to `site` without solving."""
        if site < self.center:
            raise ValueError("advance_to only moves the center rightward")
        while self.center < site:
            self.set_site(self.center, {}, direction="right")

    # -- local problem ---------------------------------------------------------

    def site_problem(self, i, two_site=False):
        return SiteProblem(self, i, two_site)

    def set_site(self, i, pieces, two_site=False, direction="right"):
        """Write back the solved tensors and restore the gauge.

        `pieces` maps the harmonic to the new site tensor(s). For two-site
        updates the merged tensor is split with the engine truncation, whose
        discarded weight adds to `discarded_weight`; the orthogonality center
        moves along `direction`.
        """
        self.version += 1
        if not two_site:
            for n, t in pieces.items():
                self.blocks[n][i] = t
            self.center = i
            if direction == "right" and i < self.length - 1:
                for n in self.harmonics:
                    q, rmat = _qr_right(self.blocks[n][i])
                    self.blocks[n][i] = q
                    self.blocks[n][i + 1] = np.tensordot(
                        rmat, self.blocks[n][i + 1], axes=([1], [1])
                    ).transpose(1, 0, 2)
                self._update_left(i)
                self.center = i + 1
            elif direction == "left" and i > 0:
                for n in self.harmonics:
                    q, rmat = _qr_left(self.blocks[n][i])
                    self.blocks[n][i] = q
                    self.blocks[n][i - 1] = np.tensordot(
                        self.blocks[n][i - 1], rmat, axes=([2], [1])
                    )
                self._update_right(i)
                self.center = i - 1
            return
        for n, merged in pieces.items():
            p1, p2, l, r = merged.shape
            mat = merged.transpose(0, 2, 1, 3).reshape(p1 * l, p2 * r)
            u, s, vh, weight = truncated_svd(mat, self.trunc)
            self.discarded_weight += weight
            rank = s.size
            if direction == "right":
                self.blocks[n][i] = u.reshape(p1, l, rank)
                sv = s[:, None] * vh
                self.blocks[n][i + 1] = sv.reshape(rank, p2, r).transpose(1, 0, 2)
            else:
                us = u * s[None, :]
                self.blocks[n][i] = us.reshape(p1, l, rank)
                self.blocks[n][i + 1] = vh.reshape(rank, p2, r).transpose(1, 0, 2)
        if direction == "right":
            self._update_left(i)
            self.center = i + 1
        else:
            self._update_right(i + 1)
            self.center = i

    def rescale(self, alpha):
        self.version += 1
        for n in self.harmonics:
            self.blocks[n][0] = alpha * self.blocks[n][0]
        # pure rescaling keeps the gauge; refresh environments cheaply
        self._build_environments()


class SiteProblem:
    """Local eigenproblem at one (or two) active site(s), all harmonics at once.

    The flat local vector holds the unpadded site tensors of every harmonic
    block in turn, each ``[p, l, r]`` (two sites: ``[p1, p2, l, r]``, see
    `shapes`). `matvec` scatters it into the padded layout
    ``[n, l, p(, p2), r]``, applies the projected generator in one batched
    contraction per environment and per active site, and adds the frequency
    ramp, the scalar penalty and the rank-one terms; it takes one vector or
    a ``(dim, k)`` block of columns. Environments are validated against the
    engine version, so a stale problem object fails loudly.
    """

    def __init__(self, engine: SweepEngine, site, two_site):
        if two_site and site >= engine.length - 1:
            raise ValueError("two-site problem needs a right neighbor")
        self.engine = engine
        self.site = site
        self.two_site = two_site
        self.version = engine.version
        sites = [site, site + 1] if two_site else [site]
        nh, p = len(engine.harmonics), engine.phys
        l = max(engine.blocks[n][site].shape[1] for n in engine.harmonics)
        r = max(engine.blocks[n][sites[-1]].shape[2] for n in engine.harmonics)
        padded = (l,) + (p,) * len(sites) + (r,)
        self._size = int(np.prod(padded))
        positions = np.arange(nh * self._size).reshape((nh,) + padded)
        scalar = engine.scalar_coefficient(engine) if engine.scalar_coefficient else 0.0
        self.shapes, index, diag = {}, [], []
        for h, n in enumerate(engine.harmonics):
            left, right = engine.blocks[n][site], engine.blocks[n][sites[-1]]
            shape = (p,) * len(sites) + (left.shape[1], right.shape[2])
            self.shapes[n] = shape
            # padded positions of the block's entries, in flat [p.., l, r] order
            region = positions[h][: shape[-2], ..., : shape[-1]]
            index.append(np.moveaxis(region, 0, -2).ravel())
            diag.append(np.full(index[-1].size, engine.mpo.diagonal_coefficient(n) + scalar))
        self._index = np.concatenate(index)
        self._diag = np.concatenate(diag)
        self.dim = self._index.size
        nq = len(engine.transfers)
        self._left = engine.env_left[site].reshape(nq, nh, -1, l)  # [q, n, (a w), b]
        self._wstack = [engine._wstack[i][:, None, None] for i in sites]
        self._right = engine.env_right[sites[-1]].reshape(nq, nh, 1, r, -1)  # [q, n, 1, a', (w b')]
        self._rank_one = []
        owner = np.repeat(np.arange(nh), [int(np.prod(s)) for s in self.shapes.values()])
        for term, vectors, vl, vr in zip(
            engine.rank_one_terms, engine._vectors, engine.vec_left, engine.vec_right
        ):
            t = vl[site].swapaxes(1, 2)  # [n, a, m]
            for i in sites:
                v = vectors[i]  # [n, m, p, m'], conjugated
                t = (t @ v.reshape(nh, v.shape[1], -1)).reshape(nh, -1, v.shape[3])
            local = (t @ vr[sites[-1]]).reshape(-1)[self._index]
            if term.coupled:
                rows = local[None, :]
            else:
                rows = np.where(owner == np.arange(nh)[:, None], local, 0.0)
            self._rank_one.append((rows, term.coefficient * rows.conj().T))

    def unpack(self, vec):
        """Per-harmonic site tensors of a flat local vector."""
        sizes = [int(np.prod(s)) for s in self.shapes.values()]
        parts = np.split(np.asarray(vec), np.cumsum(sizes)[:-1])
        return {n: part.reshape(s) for (n, s), part in zip(self.shapes.items(), parts)}

    def current_vector(self):
        t = self.engine.site_stack(self.site)[:-1]
        if self.two_site:
            nxt = self.engine.site_stack(self.site + 1)[:-1]
            nh, m = nxt.shape[:2]
            t = t.reshape(nh, -1, m) @ nxt.reshape(nh, m, -1)
        return t.reshape(-1)[self._index]

    def matvec(self, vec):
        if self.version != self.engine.version:
            raise StaleEnvironmentError("site problem built against an older sweep state")
        vec = np.asarray(vec, dtype=complex)
        cols = vec.reshape(self.dim, -1)
        k = cols.shape[1]
        nq, nh, _, l = self._left.shape
        x = np.zeros(((nh + 1) * self._size, k), dtype=complex)
        x[self._index] = cols
        x = x.reshape(nh + 1, l, -1)[self.engine._shift]  # [q, n, b, (p.. b' k)]
        t = self._left @ x  # [q, n, (a w), (p.. b' k)]
        lead = l
        for w in self._wstack:
            t = w @ t.reshape(nq, nh, lead, w.shape[-1], -1)  # [q, n, lead, (p' w'), rest]
            lead *= self.engine.phys
        t = self._right @ t.reshape(nq, nh, lead, self._right.shape[-1], k)  # [q, n, lead, a', k]
        y = t.sum(axis=0).reshape(-1, k)[self._index] + self._diag[:, None] * cols
        for rows, back in self._rank_one:
            y += back @ (rows @ cols)
        return y.reshape(vec.shape)

    def dense_matrix(self):
        """Materialize the local operator: `matvec` on blocks of identity columns."""
        nq, nh = self._left.shape[:2]
        bond = max(max(w.shape[-2:]) for w in self._wstack) // self.engine.phys
        width = max(1, DENSE_BLOCK_BYTES // (16 * nq * nh * self._size * bond))
        out = np.empty((self.dim, self.dim), dtype=complex)
        for j in range(0, self.dim, width):
            cols = np.eye(self.dim, min(width, self.dim - j), -j, dtype=complex)
            out[:, j : j + width] = self.matvec(cols)
        return out


def _leading(values, vectors, which):
    """Targeted eigenpair and the runner-up eigenvalue (None if there is none)."""
    if which == "nearest_zero":
        order = np.argsort(np.abs(values))
    else:
        order = np.argsort(-values.real)
    second = values[order[1]] if values.size > 1 else None
    return values[order[0]], vectors[:, order[0]], second


def _shift_invert(mat, v0, tol):
    """Eigenpair of `mat` nearest zero, from Arnoldi on its inverse.

    Returns ``((theta, vector), None)``, or ``(None, reason)`` when the start
    vector is zero, the LU factorization is unusable (a zero pivot, which
    scipy reports with a ``LinAlgWarning``, or non-finite factors) or no Ritz
    pair of largest ``|1 / theta|`` reaches ``||mat v - theta v|| <= tol
    ||mat||`` within KRYLOV_DIM steps. An accepted vector is polished by one
    inverse-iteration step.
    """
    norm0 = np.linalg.norm(v0)
    if not norm0 > 0:
        return None, "zero start vector"
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        try:
            lu = sla.lu_factor(mat, check_finite=False)
        except sla.LinAlgWarning as err:
            return None, str(err)
    if not np.all(np.isfinite(lu[0])):
        return None, "non-finite LU factors"
    dim = mat.shape[0]
    bound = tol * np.linalg.norm(mat)
    steps = min(KRYLOV_DIM, dim)
    basis = np.zeros((dim, steps + 1), dtype=complex)
    hess = np.zeros((steps + 1, steps), dtype=complex)
    basis[:, 0] = v0 / norm0
    for j in range(steps):
        w = sla.lu_solve(lu, basis[:, j], check_finite=False)
        span = basis[:, : j + 1]
        for _ in range(2):  # Gram-Schmidt, repeated to keep the basis orthonormal
            h = span.conj().T @ w
            w -= span @ h
            hess[: j + 1, j] += h
        hess[j + 1, j] = np.linalg.norm(w)
        if not np.isfinite(hess[j + 1, j]):
            return None, "non-finite inverse step"
        mu, ritz = sla.eig(hess[: j + 1, : j + 1])
        top = np.argmax(np.abs(mu))
        if mu[top] != 0:
            theta = 1.0 / mu[top]
            vec = span @ ritz[:, top]
            vec /= np.linalg.norm(vec)
            if np.linalg.norm(mat @ vec - theta * vec) <= bound:
                vec = sla.lu_solve(lu, vec, check_finite=False)
                return (theta, vec / np.linalg.norm(vec)), None
        if hess[j + 1, j] == 0:
            break  # invariant subspace: more steps add nothing
        basis[:, j + 1] = w / hess[j + 1, j]
    return None, f"no Ritz pair accepted within {j + 1} steps"


def _local_eigensolve(problem: SiteProblem, v0, which, tol, dense_cutoff, want_second=False):
    """Solve the local eigenproblem, returning ``(theta, vector, theta2)``.

    Problems up to `dense_cutoff` are densified outright. The steady-state
    target (``"nearest_zero"`` without `want_second`) is solved by
    shift-invert (:func:`_shift_invert`), which resolves no runner-up, so
    `theta2` is None; a refused shift-invert solve (singular or non-finite
    LU, zero start vector, no accepted pair) is logged at DEBUG and falls
    back to a full ``np.linalg.eig``. Degeneracy checks (`want_second`) and
    the ``"largest_real"`` target always use ``np.linalg.eig``.

    Larger problems go to ARPACK with the previous tensor as the starting
    vector, and once more with twice the Krylov space and restarts if that
    fails; a partial, unconverged result is never used. After two failures,
    problems up to DENSE_LOCAL_HARD_CAP are solved densely as above, with a
    WARNING log, larger ones raise :class:`EigensolverBreakdown`.

    Each solve is counted in ``problem.engine.local_solves`` under the
    method that answered it, or under ``"dense_fallback"`` when the method
    tried first failed.
    """
    dim = problem.dim
    counts = problem.engine.local_solves
    k = 2 if want_second else 1
    fallback = False
    if dim > max(dense_cutoff, k + 2):
        arpack_which = "SM" if which == "nearest_zero" else "LR"
        norm0 = np.linalg.norm(v0)
        start = None if norm0 == 0 else v0 / norm0
        for factor in (1, 2):
            try:
                values, vectors = spla.eigs(
                    spla.LinearOperator((dim, dim), matvec=problem.matvec, dtype=complex),
                    k=k,
                    which=arpack_which,
                    v0=start,
                    ncv=min(dim, max(KRYLOV_DIM * factor, 3 * k + 2)),
                    maxiter=ARPACK_MAXITER * factor,
                    tol=tol,
                )
                counts["arnoldi"] += 1
                return _leading(values, vectors, which)
            except spla.ArpackError as err:  # includes ArpackNoConvergence
                error = err
        if dim > DENSE_LOCAL_HARD_CAP:
            raise EigensolverBreakdown(f"Arnoldi failed at dim {dim}: {error}")
        logger.warning("Arnoldi failed at dim %d (%s); solving densely", dim, error)
        fallback = True
    mat = problem.dense_matrix()
    if which == "nearest_zero" and not want_second:
        found, reason = _shift_invert(mat, v0, tol)
        if found is not None:
            counts["dense_fallback" if fallback else "shift_invert"] += 1
            return (*found, None)
        logger.debug("shift-invert refused at dim %d (%s); solving with eig", dim, reason)
        fallback = True
    counts["dense_fallback" if fallback else "dense_eig"] += 1
    return _leading(*np.linalg.eig(mat), which)


def _sweep_sites(length, two_site):
    if length == 1:
        return [(0, "right")]
    if two_site:
        sites = [(i, "right") for i in range(length - 1)]
        sites += [(i, "left") for i in range(length - 2, -1, -1)]
    else:
        sites = [(i, "right") for i in range(length)]
        sites += [(i, "left") for i in range(length - 1, -1, -1)]
    return sites


def _run_sweeps(engine, cfg, stage, which, label, check_degeneracy=False):
    """Sweep until the local eigenvalue settles; returns ``(log, theta)``.

    `log` holds one entry per sweep under ``"sweep_residuals"``,
    ``"discarded_weight"`` (summed over the sweep's truncations) and
    ``"max_bond"`` (after the sweep), and under ``"local_solves"`` the
    stage's local solves counted by method (`SweepEngine.local_solves`).
    """
    log = {"sweep_residuals": [], "discarded_weight": [], "max_bond": []}
    history = []
    theta = None
    use_two = stage.two_site and engine.length > 1
    for sweep in range(max(stage.sweeps, 1)):
        sweep_thetas = []
        engine.discarded_weight = 0.0
        for site, direction in _sweep_sites(engine.length, use_two):
            problem = engine.site_problem(site, use_two)
            v0 = problem.current_vector()
            want_second = (
                check_degeneracy
                and which == "nearest_zero"
                and site == engine.length // 2
            )
            theta, vec, second = _local_eigensolve(
                problem,
                v0,
                which,
                tol=min(cfg.eig_tol * 1e-1, 1e-9),
                dense_cutoff=cfg.dense_local_cutoff,
                want_second=want_second,
            )
            if want_second and second is not None and abs(second) < DEGENERACY_TOL:
                raise DegenerateSteadyStateError(
                    f"two near-zero local eigenvalues ({theta:.2e}, {second:.2e}); "
                    "steady space looks degenerate"
                )
            engine.set_site(
                site,
                problem.unpack(vec),
                two_site=use_two,
                direction=direction,
            )
            sweep_thetas.append(complex(theta))
        # keep the overall scale tame between sweeps
        t0 = engine.block_trace(0)
        if abs(t0) > 1e-3:
            engine.rescale(1.0 / t0)
        else:
            norm = engine.state().norm()
            if norm > 0:
                engine.rescale(1.0 / norm)
        if which == "nearest_zero":
            resid = max(abs(t) for t in sweep_thetas)
        else:
            spread = max(abs(t - sweep_thetas[-1]) for t in sweep_thetas)
            resid = spread / max(abs(sweep_thetas[-1]), 1e-30)
        log["sweep_residuals"].append(float(resid))
        log["discarded_weight"].append(float(engine.discarded_weight))
        log["max_bond"].append(max(max(t.shape[1:]) for ts in engine.blocks.values() for t in ts))
        history.append(sweep_thetas[-1])
        logger.debug("%s sweep %d: residual %.3e", label, sweep + 1, resid)
        if resid <= cfg.eig_tol and sweep >= 1:
            break
        if (
            which == "largest_real"
            and len(history) >= 2
            and abs(history[-1] - history[-2]) <= cfg.eig_tol * max(1.0, abs(history[-1]))
            and resid <= 1e-6
        ):
            break
    log["local_solves"] = dict(engine.local_solves)
    return log, history[-1] if history else None


def _embed_state(state, n_c, noise_amplitude, rng):
    """Carry a state to a (possibly larger) cutoff, seeding fresh harmonics."""
    blocks = {n: b for n, b in state.blocks.items() if abs(n) <= n_c}
    ref_norm = blocks[0].norm() if 0 in blocks else 1.0
    for n in range(-n_c, n_c + 1):
        missing = n not in blocks or blocks[n].norm() == 0.0
        if missing and noise_amplitude > 0:
            blocks[n] = Mps.random(
                state.chain_length,
                state.phys_dim,
                2,
                rng,
                norm=noise_amplitude * max(ref_norm, 1e-12),
            )
        elif n not in blocks:
            blocks[n] = Mps.zeros(state.chain_length, state.phys_dim)
    return FloquetDensityMatrix(
        blocks, state.omega, n_c, state.chain_length, state.site_dim
    )


# Warm-up penalty strengths: P0 for the trace of every nonstatic block, P1
# for the damping that switches on while |Tr rho^0| is below DELTA.
PENALTY_P0 = 1000.0
PENALTY_P1 = 1000.0
PENALTY_DELTA = 0.01


def _penalty_terms(cutoff, chain_length, omega, site_dim):
    """Trace penalties for warm-up stages: block projectors plus global damping.

    Each nonstatic block gets ``-P0 |I><I|``; the whole state gets
    ``-P1 exp(-|Tr rho^0|^2 / DELTA^2)``, which underflows to exactly 0 once
    the static block carries trace.
    """
    terms = []
    nonzero = [n for n in range(-cutoff, cutoff + 1) if n != 0]
    if nonzero:
        ident = identity_operator_state(chain_length, omega, cutoff, nonzero, site_dim)
        terms.append(RankOneTerm(-PENALTY_P0, ident, coupled=False))

    def scalar(engine):
        t0 = engine.block_trace(0)
        return -PENALTY_P1 * float(np.exp(-(abs(t0) ** 2) / PENALTY_DELTA**2))

    return terms, scalar


def solve_ness(model: ModelSpec, cfg: SweepConfig):
    """Sweep the frequency-space zero mode of the model's generator.

    Runs the warm-up schedule with the trace penalties on, then the
    production stage with penalties removed, and returns the trace-normalized
    state with a :class:`SolveReport`. Raises
    :class:`DegenerateSteadyStateError` when a second near-zero local mode
    appears in the production stage, and restarts a stage once with fresh
    noise (degeneracy check included) if the inner eigensolver breaks down.
    The report warns about weight in the edge harmonic, Hermiticity defects
    and a final residual above tolerance.
    """
    cfg.validate()
    model.validate()
    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    report = SolveReport()
    state = initial_guess(
        model.chain_length,
        model.site_dim,
        cfg.warmup[0].n_c,
        model.omega,
        noise_amplitude=cfg.noise_amplitude,
        seed=cfg.seed,
    )
    final_theta = None
    last = len(cfg.warmup) - 1
    for idx, stage in enumerate(cfg.warmup):
        with warnings.catch_warnings():
            if idx < last:
                # warm-up stages intentionally run under-resolved cutoffs
                warnings.simplefilter("ignore", UserWarning)
            mpo = build_extended_lindbladian(model, stage.n_c)
        state = _embed_state(state, stage.n_c, cfg.noise_amplitude, rng)
        terms, scalar = ([], None)
        if stage.penalties_on:
            terms, scalar = _penalty_terms(
                stage.n_c, model.chain_length, model.omega, model.site_dim
            )
        trunc = TruncationSpec(max_rank=stage.chi, weight_cutoff=WEIGHT_CUTOFF)
        stage_info = {
            "n_c": stage.n_c,
            "chi": stage.chi,
            "penalties_on": stage.penalties_on,
            "two_site": stage.two_site,
        }
        try:
            engine = SweepEngine(mpo, state, trunc, terms, scalar)
            log, final_theta = _run_sweeps(
                engine,
                cfg,
                stage,
                "nearest_zero",
                label=f"stage {idx}",
                check_degeneracy=idx == last,
            )
        except EigensolverBreakdown:
            logger.warning("eigensolver breakdown in stage %d; restarting with noise", idx)
            state = _embed_state(state, stage.n_c, max(cfg.noise_amplitude, 1e-4), rng)
            engine = SweepEngine(mpo, state, trunc, terms, scalar)
            log, final_theta = _run_sweeps(
                engine,
                cfg,
                stage,
                "nearest_zero",
                label=f"stage {idx} retry",
                check_degeneracy=idx == last,
            )
        state = engine.state()
        stage_info.update(log)
        report.stage_log.append(stage_info)
        report.sweep_residuals.extend(log["sweep_residuals"])
    # exact trace normalization (fixes the overall phase as well)
    t0 = state.block_trace(0)
    if abs(t0) < 1e-12:
        raise SolverError("converged state carries no trace; penalties failed")
    state = state.scaled(1.0 / t0)
    report.final_residual = report.sweep_residuals[-1] if report.sweep_residuals else np.inf
    report.converged = report.final_residual <= cfg.eig_tol
    if not report.converged:
        report.warnings.append(
            f"final residual {report.final_residual:.3e} above eig_tol {cfg.eig_tol:.1e}"
        )
    report.eigenvalue = final_theta
    # diagnostics
    from .freqspace import block_norms, compress, hermiticity_defect, trace_components

    final_stage = cfg.warmup[-1]
    _, _, spectra = compress(
        state, TruncationSpec(max_rank=final_stage.chi, weight_cutoff=WEIGHT_CUTOFF)
    )
    report.schmidt_spectra = {
        n: [list(map(float, s[:16])) for s in bonds] for n, bonds in spectra.items()
    }
    norms = block_norms(state)
    report.block_norm_profile = norms
    traces = trace_components(state)
    report.trace_defects = {
        n: abs(traces[n] - (1.0 if n == 0 else 0.0)) for n in traces
    }
    report.hermiticity_defects = hermiticity_defect(state)
    ref = norms[0] if norms.get(0) else 1.0
    edge = norms.get(final_stage.n_c, 0.0) / ref
    if edge > CONVERGENCE_TOL:
        report.warnings.append(
            f"edge harmonic weight {edge:.2e} above tolerance {CONVERGENCE_TOL:.1e}; "
            "cutoff too small"
        )
    worst_defect = max(report.hermiticity_defects.values())
    if worst_defect > CONVERGENCE_TOL:
        report.warnings.append(
            f"hermiticity defect {worst_defect:.2e} above tolerance {CONVERGENCE_TOL:.1e}"
        )
    # fixed-point residual of the unpenalized generator, with the MPO of the
    # production stage (the model at the final cutoff)
    image = mpo.apply(state, TruncationSpec(weight_cutoff=1e-14))
    report.fixed_point_residual = image.norm() / max(state.norm(), 1e-300)
    report.wall_time = time.perf_counter() - start
    return state, report


@dataclass
class DecayModeResult:
    """Slowest decaying mode and its bi-orthogonal partner."""

    eigenvalue: complex
    right: FloquetDensityMatrix
    left: FloquetDensityMatrix
    tau_relax: float
    conjugate_pair: bool
    identity_overlap: float
    steady_overlap: float
    report: SolveReport


def _orthogonalized_noise(model, n_c, chi, rng, site_dim=2):
    """Random state with the trace content of every block projected out."""
    blocks = {}
    eye = Mps.from_product(
        [vectorize_choi(np.eye(site_dim, dtype=complex))] * model.chain_length
    )
    eye_norm2 = eye.inner(eye).real
    for n in range(-n_c, n_c + 1):
        b = Mps.random(model.chain_length, site_dim**2, chi, rng, norm=1.0)
        tr = eye.inner(b)
        b = b.add(eye.scaled(-tr / eye_norm2))
        b, _ = b.canonicalize(TruncationSpec(max_rank=chi))
        blocks[n] = b
    return FloquetDensityMatrix(blocks, model.omega, n_c, model.chain_length, site_dim)


def solve_first_decay_mode(model: ModelSpec, ness: FloquetDensityMatrix, cfg: SweepConfig, w=None):
    """Slowest decaying mode via a shifted eigenproblem.

    The frequency-space kernel is degenerate: shifting the steady state by
    ``s`` harmonics gives an eigenvector at ``-i s omega``, all with vanishing
    real part. The right solve therefore penalizes the trace content of every
    block (one identity projector per harmonic, strength ``w``), which moves
    all kernel copies at once while leaving genuine decay modes (blockwise
    traceless) alone; the mode with the largest real part is then the slowest
    physical decay. The left partner solves the adjoint problem with every
    shifted copy of the steady state projected out, and both are
    bi-normalized. If the mode's harmonic profile comes out centered away
    from the static block (a folded copy), it is shifted back and the
    eigenvalue adjusted by the corresponding multiple of ``i omega``.
    """
    cfg.validate()
    model.validate()
    start = time.perf_counter()
    if w is None:
        scale = 0.0
        for comps in model.jump_fourier.values():
            scale = max(
                scale, sum(np.linalg.norm(op.matrix, ord=2) ** 2 for op in comps.values())
            )
        w = 10.0 * max(scale, 1.0)
    rng = np.random.default_rng(cfg.seed + 1)
    report = SolveReport()
    final_stage = cfg.warmup[-1]
    n_c = final_stage.n_c
    dl = model.site_dim**model.chain_length

    def run(mpo, terms, label, seed_state):
        state = seed_state
        theta = None
        for idx, stage in enumerate(cfg.warmup):
            if stage.n_c != n_c:
                continue  # decay solve runs at the production cutoff only
            trunc = TruncationSpec(max_rank=stage.chi, weight_cutoff=WEIGHT_CUTOFF)
            engine = SweepEngine(mpo, state, trunc, terms, None)
            sweep_stage = SweepStage(
                n_c=stage.n_c,
                chi=stage.chi,
                sweeps=max(stage.sweeps, 4),
                penalties_on=False,
                two_site=stage.two_site and model.chain_length > 1,
            )
            log, theta = _run_sweeps(engine, cfg, sweep_stage, "largest_real", label=label)
            report.stage_log.append(
                {"label": label, "n_c": stage.n_c, "chi": stage.chi, "two_site": sweep_stage.two_site, **log}
            )
            report.sweep_residuals.extend(log["sweep_residuals"])
            state = engine.state()
        return state, theta

    mpo = build_extended_lindbladian(model, n_c)
    ident_all = identity_operator_state(
        model.chain_length, model.omega, n_c, range(-n_c, n_c + 1), model.site_dim
    )
    right_terms = [RankOneTerm(-w / dl, ident_all, coupled=False)]
    seed = _orthogonalized_noise(model, n_c, min(final_stage.chi, 4), rng, model.site_dim)
    right, theta_r = run(mpo, right_terms, "decay right", seed)

    # re-center a folded copy of the mode
    from .freqspace import block_norms

    norms = block_norms(right)
    center = max(norms, key=norms.get)
    if center != 0:
        right = right.shifted(-center)
        theta_r = theta_r + 1j * center * model.omega
        report.warnings.append(f"mode came out centered at harmonic {center}; refolded")

    # clean residual trace content in every block, then normalize
    eye_mps = ident_all.blocks[0]
    eye_norm2 = eye_mps.inner(eye_mps).real
    for n in list(right.blocks):
        tr = eye_mps.inner(right.blocks[n])
        if abs(tr) == 0.0:
            continue
        cleaned = right.blocks[n].add(eye_mps.scaled(-tr / eye_norm2))
        cleaned, _ = cleaned.canonicalize(TruncationSpec(max_rank=final_stage.chi))
        right.blocks[n] = cleaned
    right = right.scaled(1.0 / max(right.norm(), 1e-300))

    ness_norm2 = max(ness.inner(ness).real, 1e-300)
    left_terms = [
        RankOneTerm(-w / ness_norm2, ness.shifted(s), coupled=True)
        for s in range(-n_c, n_c + 1)
        if ness.shifted(s).blocks
    ]
    seed_left = _orthogonalized_noise(model, n_c, min(final_stage.chi, 4), rng, model.site_dim)
    left, theta_l = run(mpo.adjoint(), left_terms, "decay left", seed_left)
    norms_l = block_norms(left)
    center_l = max(norms_l, key=norms_l.get)
    if center_l != 0:
        left = left.shifted(-center_l)
        theta_l = theta_l - 1j * center_l * model.omega
    # A complex pair is degenerate in real part, so the left solve may land
    # on the conjugate partner, whose pairing with our right mode vanishes; its
    # blockwise adjoint is then the matching left eigenvector.
    scale = max(left.norm() * right.norm(), 1e-300)
    if abs(left.inner(right)) < 1e-4 * scale:
        flipped = left.dagger_reflect()
        if abs(flipped.inner(right)) > abs(left.inner(right)):
            left = flipped
            theta_l = np.conj(theta_l)
            report.warnings.append("left mode matched via its conjugate partner")
    # project out the steady-state direction: <<L - beta I | ness>> = 0 with
    # beta = conj(<<L|ness>>) because <<I|ness>> = Tr rho^0 = 1
    overlap = left.inner(ness)
    if 0 in left.blocks:
        corrected = left.blocks[0].add(eye_mps.scaled(-np.conj(overlap)))
        corrected, _ = corrected.canonicalize(TruncationSpec(max_rank=final_stage.chi))
        left.blocks[0] = corrected
    pairing = left.inner(right)
    if abs(pairing) < 1e-9 * scale:
        raise SolverError("left and right modes are numerically orthogonal")
    left = left.scaled(1.0 / np.conj(pairing))

    lam = complex(theta_r)
    if lam.real > 1e-6:
        raise SolverError(f"decay eigenvalue has positive real part: {lam}")
    ident_overlap = abs(eye_mps.inner(right.blocks[0])) if 0 in right.blocks else 0.0
    steady_overlap = abs(left.inner(ness))
    if ident_overlap > 1e-6:
        report.warnings.append(
            f"identity overlap {ident_overlap:.2e} after projection; w may be too small"
        )
    pair = abs(lam.imag) > 1e-8 * max(1.0, abs(lam.real))
    if abs(theta_l.conjugate() - lam) > 1e-3 * max(abs(lam), 1e-10):
        report.warnings.append(
            f"left eigenvalue {theta_l:.6g} is not the conjugate of {lam:.6g}"
        )
    report.eigenvalue = lam
    report.final_residual = report.sweep_residuals[-1] if report.sweep_residuals else np.inf
    report.converged = True
    report.wall_time = time.perf_counter() - start
    tau = -1.0 / lam.real if lam.real < 0 else np.inf
    return DecayModeResult(
        eigenvalue=lam,
        right=right,
        left=left,
        tau_relax=float(tau),
        conjugate_pair=bool(pair),
        identity_overlap=float(ident_overlap),
        steady_overlap=float(steady_overlap),
        report=report,
    )


def transient_observable(
    ness: FloquetDensityMatrix,
    decay: DecayModeResult,
    rho_initial,
    observable: LocalOperator,
    times,
):
    """Slow-mode approximation of ``<O(t)>`` from an initial product state.

    The initial state is expanded over the steady state and the slowest mode
    using the bi-orthogonal pairing collapsed to ``t = 0`` (all harmonics
    summed); micro-motion of both contributions is kept. For a complex decay
    eigenvalue the conjugate partner mode is implied and the real combination
    is returned.
    """
    from .observables import ObservableSeries, expectation_series

    if isinstance(rho_initial, FloquetDensityMatrix):
        init_blocks = list(rho_initial.blocks.values())
    else:
        vecs = [np.asarray(m, dtype=complex).reshape(-1) for m in rho_initial]
        init_blocks = [Mps.from_product(vecs)]
    # physical (t = 0) pairing: sum over all harmonics on both sides
    def collapsed_overlap(state_a, mps_list):
        total = 0.0 + 0.0j
        for n in state_a.harmonics:
            if n not in state_a.blocks:
                continue
            for b in mps_list:
                total += state_a.blocks[n].inner(b)
        return total

    coeff_num = collapsed_overlap(decay.left, init_blocks)
    right_collapsed = [decay.right.blocks[n] for n in decay.right.blocks]
    coeff_den = collapsed_overlap(decay.left, right_collapsed)
    if abs(coeff_den) < 1e-12:
        raise SolverError("collapsed bi-orthogonal pairing vanished")
    coeff = coeff_num / coeff_den

    times = np.asarray(times, dtype=float)
    base = expectation_series(ness, observable, times)
    mode = expectation_series(decay.right, observable, times, hermitize=False)
    lam = decay.eigenvalue
    envelope = np.exp(lam * times)
    contrib = envelope * coeff * mode.complex_values
    if decay.conjugate_pair:
        values = base.values + 2.0 * np.real(contrib)
    else:
        values = base.values + np.real(contrib)
    return ObservableSeries(
        times=times,
        values=values,
        label=f"{base.label} (transient)",
        period=base.period,
        max_imag=base.max_imag,
    )
