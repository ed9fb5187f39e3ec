"""Sweeping eigensolver for steady states and slow modes in frequency space.

The solver works on the harmonic-resolved MPS of
:class:`~floquet_ness.freqspace.FloquetDensityMatrix`. All blocks are kept in
mixed-canonical gauge around the active site; contracting everything except
that site against the transfer components of the generator yields, for the
stacked per-block site tensors, an ordinary (non-Hermitian) eigenproblem
solved with a restarted Arnoldi method. Sweeping the active site back and
forth relaxes the state onto the eigenvector, with the trace constraints
enforced by rank-one penalty projectors during warm-up.

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


@dataclass
class SweepConfig:
    """Schedule and tolerances for the sweeping solver.

    `warmup` must end with the production stage (the one whose cutoff and
    bond dimension are the targets); stages must not shrink the cutoff or
    the bond dimension.
    """

    warmup: list = field(default_factory=list)
    eig_tol: float = 1e-10
    convergence_tol: float = 1e-3
    noise_amplitude: float = 1e-6
    seed: int = 7
    weight_cutoff: float = 1e-12
    krylov_dim: int = 36
    arpack_maxiter: int = 600
    dense_local_cutoff: int = 700
    dense_local_hard_cap: int = 4096
    degeneracy_tol: float = 1e-7

    def validate(self):
        if not self.warmup:
            raise ValueError("sweep schedule is empty")
        for a, b in zip(self.warmup, self.warmup[1:]):
            if b.n_c < a.n_c or b.chi < a.chi:
                raise ValueError("stages must not shrink the cutoff or bond dimension")
        if self.eig_tol <= 0 or self.convergence_tol <= 0:
            raise ValueError("tolerances must be positive")
        return self


def make_warmup_schedule(
    n_c,
    chi,
    warm_sweeps=3,
    final_sweeps=8,
    chi_start=None,
    two_site_final=False,
):
    """Standard schedule: grow the cutoff stepwise and ramp chi up."""
    chi_start = min(chi, 8) if chi_start is None else chi_start
    cutoffs = list(range(0, n_c + 1)) or [0]
    stages = []
    n_warm = len(cutoffs)
    for idx, nc in enumerate(cutoffs):
        frac = idx / max(n_warm - 1, 1)
        stage_chi = int(round(chi_start * (chi / chi_start) ** frac)) if chi_start else chi
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
            two_site=two_site_final,
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


class SweepEngine:
    """Mutable sweep state: block tensors, environments, penalty frames.

    The engine owns copies of the block tensors in mixed-canonical form and
    keeps, for every transfer component ``q`` and output block ``n``, the
    partially contracted environments needed by the local eigenproblem at
    the active site. Rank-one penalty vectors get overlap environments of
    the same structure.
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
        self.pairs = [
            (n, q)
            for n in self.harmonics
            for q in self.mpo.components
            if -self.cutoff <= n - q <= self.cutoff
        ]
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

    # -- environments ---------------------------------------------------------

    def _build_environments(self):
        left, right = {}, {}
        for n, q in self.pairs:
            left[(n, q)] = [None] * (self.length + 1)
            right[(n, q)] = [None] * (self.length + 1)
            left[(n, q)][0] = np.ones((1, 1, 1), dtype=complex)
            right[(n, q)][self.length - 1] = np.ones((1, 1, 1), dtype=complex)
        self.env_left, self.env_right = left, right
        self.vec_left, self.vec_right = [], []
        for term in self.rank_one_terms:
            vl, vr = {}, {}
            for n in term.vector.blocks:
                if abs(n) > self.cutoff:
                    continue
                vl[n] = [None] * (self.length + 1)
                vr[n] = [None] * (self.length + 1)
                vl[n][0] = np.ones((1, 1), dtype=complex)
                vr[n][self.length - 1] = np.ones((1, 1), dtype=complex)
            self.vec_left.append(vl)
            self.vec_right.append(vr)
        for i in range(self.length - 1, 0, -1):
            self._update_right(i)

    def _update_left(self, i):
        """Absorb site `i` into the left environments (valid at i+1)."""
        for (n, q) in self.pairs:
            env = self.env_left[(n, q)][i]
            bra = self.blocks[n][i].conj()
            ket = self.blocks[n - q][i]
            w = self.mpo.components[q].tensors[i]
            t1 = np.tensordot(env, bra, axes=([0], [1]))  # [w, b, p, a']
            t2 = np.tensordot(t1, w, axes=([0, 2], [0, 1]))  # [b, a', in, w']
            t3 = np.tensordot(t2, ket, axes=([0, 2], [1, 0]))  # [a', w', b']
            self.env_left[(n, q)][i + 1] = t3
        for term, vl in zip(self.rank_one_terms, self.vec_left):
            for n in vl:
                env = vl[n][i]
                vten = term.vector.blocks[n].tensors[i].conj()
                frame = self.blocks[n][i]
                t1 = np.tensordot(vten, env, axes=([1], [0]))  # [p, lv', l]
                t2 = np.tensordot(t1, frame, axes=([0, 2], [0, 1]))  # [lv', l']
                vl[n][i + 1] = t2

    def _update_right(self, i):
        """Absorb site `i` into the right environments (valid at i-1)."""
        for (n, q) in self.pairs:
            env = self.env_right[(n, q)][i]
            bra = self.blocks[n][i].conj()
            ket = self.blocks[n - q][i]
            w = self.mpo.components[q].tensors[i]
            t1 = np.tensordot(bra, env, axes=([2], [0]))  # [p, a, w, b]
            t2 = np.tensordot(w, t1, axes=([1, 3], [0, 2]))  # [w1, in, a, b]
            t3 = np.tensordot(t2, ket, axes=([1, 3], [0, 2]))  # [w1, a, b']
            self.env_right[(n, q)][i - 1] = t3.transpose(1, 0, 2)
        for term, vr in zip(self.rank_one_terms, self.vec_right):
            for n in vr:
                env = vr[n][i]
                vten = term.vector.blocks[n].tensors[i].conj()
                frame = self.blocks[n][i]
                t1 = np.tensordot(vten, env, axes=([2], [0]))  # [p, lv, r]
                t2 = np.tensordot(t1, frame, axes=([0, 2], [0, 2]))  # [lv, l]
                vr[n][i - 1] = t2

    def advance_to(self, site):
        """Move the orthogonality center rightward to `site` without solving."""
        if site < self.center:
            raise ValueError("advance_to only moves the center rightward")
        while self.center < site:
            i = self.center
            self.version += 1
            for n in self.harmonics:
                q, rmat = _qr_right(self.blocks[n][i])
                self.blocks[n][i] = q
                self.blocks[n][i + 1] = np.tensordot(
                    rmat, self.blocks[n][i + 1], axes=([1], [1])
                ).transpose(1, 0, 2)
            self._update_left(i)
            self.center += 1

    # -- local problem ---------------------------------------------------------

    def site_problem(self, i, two_site=False):
        return SiteProblem(self, i, two_site)

    def set_site(self, i, pieces, two_site=False, direction="right"):
        """Write back the solved tensors and restore the gauge.

        `pieces` maps the harmonic to the new site tensor(s). For two-site
        updates the merged tensor is split with the engine truncation; the
        orthogonality center moves along `direction`.
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
            u, s, vh, _ = truncated_svd(mat, self.trunc)
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
    """Stacked local eigenproblem at one (or two) active site(s).

    Packs the per-block site tensors into one flat vector; ``matvec``
    evaluates the projected generator action including the frequency ramp
    and any registered penalty terms. Environments are validated against the
    engine version, so a stale problem object fails loudly.
    """

    def __init__(self, engine: SweepEngine, site, two_site):
        if two_site and site >= engine.length - 1:
            raise ValueError("two-site problem needs a right neighbor")
        self.engine = engine
        self.site = site
        self.two_site = two_site
        self.version = engine.version
        self.shapes = {}
        self.offsets = {}
        off = 0
        for n in engine.harmonics:
            tl = engine.blocks[n][site]
            if two_site:
                tr = engine.blocks[n][site + 1]
                shape = (tl.shape[0], tr.shape[0], tl.shape[1], tr.shape[2])
            else:
                shape = tl.shape
            self.shapes[n] = shape
            self.offsets[n] = off
            off += int(np.prod(shape))
        self.dim = off
        self._scalar = (
            engine.scalar_coefficient(engine) if engine.scalar_coefficient else 0.0
        )
        self._prepare()

    def _check_fresh(self):
        if self.version != self.engine.version:
            raise StaleEnvironmentError("site problem built against an older sweep state")

    def _prepare(self):
        eng = self.engine
        i = self.site
        self._elw = {}
        for (n, q) in eng.pairs:
            el = eng.env_left[(n, q)][i]
            w = eng.mpo.components[q].tensors[i]
            # [a, w, b] x [w, p', p, w'] -> [a, b, p', p, w']
            self._elw[(n, q)] = np.tensordot(el, w, axes=([1], [0]))
        self._penalty_locals = []
        for term, vl, vr in zip(eng.rank_one_terms, eng.vec_left, eng.vec_right):
            locals_n = {}
            for n in vl:
                vmps = term.vector.blocks[n]
                left = vl[n][i]
                if self.two_site:
                    right = vr[n][i + 1]
                    v1 = vmps.tensors[i].conj()
                    v2 = vmps.tensors[i + 1].conj()
                    t = np.tensordot(v1, left, axes=([1], [0]))  # [p1, m, l]
                    t = np.tensordot(t, v2, axes=([1], [1]))  # [p1, l, p2, rv]
                    t = np.tensordot(t, right, axes=([3], [0]))  # [p1, l, p2, r]
                    locals_n[n] = t.transpose(0, 2, 1, 3)  # [p1, p2, l, r]
                else:
                    right = vr[n][i]
                    v1 = vmps.tensors[i].conj()
                    t = np.tensordot(v1, left, axes=([1], [0]))  # [p, rv, l]
                    locals_n[n] = np.tensordot(t, right, axes=([1], [0]))  # [p, l, r]
            self._penalty_locals.append(locals_n)

    def pack(self, pieces):
        out = np.zeros(self.dim, dtype=complex)
        for n, t in pieces.items():
            off = self.offsets[n]
            out[off : off + t.size] = t.reshape(-1)
        return out

    def unpack(self, vec):
        out = {}
        for n, shape in self.shapes.items():
            off = self.offsets[n]
            out[n] = vec[off : off + int(np.prod(shape))].reshape(shape)
        return out

    def current_vector(self):
        eng = self.engine
        pieces = {}
        for n in eng.harmonics:
            if self.two_site:
                t = np.tensordot(
                    eng.blocks[n][self.site], eng.blocks[n][self.site + 1], axes=([2], [1])
                )  # [p1, l, p2, r]
                pieces[n] = t.transpose(0, 2, 1, 3)
            else:
                pieces[n] = eng.blocks[n][self.site]
        return self.pack(pieces)

    def matvec(self, vec):
        self._check_fresh()
        eng = self.engine
        i = self.site
        x = self.unpack(np.asarray(vec, dtype=complex))
        y = {n: np.zeros(shape, dtype=complex) for n, shape in self.shapes.items()}
        for (n, q) in eng.pairs:
            m = n - q
            xm = x[m]
            elw = self._elw[(n, q)]
            if self.two_site:
                er = eng.env_right[(n, q)][i + 1]
                w2 = eng.mpo.components[q].tensors[i + 1]
                t = np.tensordot(elw, xm, axes=([1, 3], [2, 0]))  # [a, p1', wm, p2, r]
                t = np.tensordot(t, w2, axes=([2, 3], [0, 2]))  # [a, p1', r, p2', w']
                t = np.tensordot(t, er, axes=([2, 4], [2, 1]))  # [a, p1', p2', a']
                y[n] += t.transpose(1, 2, 0, 3)
            else:
                er = eng.env_right[(n, q)][i]
                t = np.tensordot(elw, xm, axes=([1, 3], [1, 0]))  # [a, p', w', r]
                t = np.tensordot(t, er, axes=([2, 3], [1, 2]))  # [a, p', a']
                y[n] += t.transpose(1, 0, 2)
        for n in eng.harmonics:
            coeff = eng.mpo.diagonal_coefficient(n)
            if coeff != 0:
                y[n] += coeff * x[n]
            if self._scalar:
                y[n] += self._scalar * x[n]
        for term, locals_n in zip(eng.rank_one_terms, self._penalty_locals):
            if term.coupled:
                s = sum(np.sum(locals_n[n] * x[n]) for n in locals_n if n in x)
                if s != 0:
                    for n in locals_n:
                        y[n] += term.coefficient * s * locals_n[n].conj()
            else:
                for n in locals_n:
                    s = np.sum(locals_n[n] * x[n])
                    if s != 0:
                        y[n] += term.coefficient * s * locals_n[n].conj()
        return self.pack(y)

    def operator(self):
        return spla.LinearOperator((self.dim, self.dim), matvec=self.matvec, dtype=complex)

    def dense_matrix(self):
        """Materialize the local operator column by column (small dims only)."""
        cols = np.empty((self.dim, self.dim), dtype=complex)
        basis = np.zeros(self.dim, dtype=complex)
        for j in range(self.dim):
            basis[:] = 0
            basis[j] = 1.0
            cols[:, j] = self.matvec(basis)
        return cols


def _select_eig(values, vectors, which):
    if which == "nearest_zero":
        order = np.argsort(np.abs(values))
    else:
        order = np.argsort(-values.real)
    return values[order], vectors[:, order]


def _local_eigensolve(problem: SiteProblem, v0, which, tol, ncv, maxiter, dense_cutoff, hard_cap, want_second=False):
    """Solve the local eigenproblem, returning ``(theta, vector, theta2)``.

    Small problems are densified outright; larger ones go to the restarted
    Arnoldi solver with the previous tensor as the starting vector, a larger
    Krylov space on a retry, and a dense fallback below `hard_cap`.
    """
    dim = problem.dim
    k = 2 if want_second else 1
    if dim <= max(dense_cutoff, k + 2):
        mat = problem.dense_matrix()
        values, vectors = np.linalg.eig(mat)
        values, vectors = _select_eig(values, vectors, which)
        second = values[1] if values.size > 1 else None
        return values[0], vectors[:, 0], second
    arpack_which = "SM" if which == "nearest_zero" else "LR"
    norm0 = np.linalg.norm(v0)
    v0 = None if norm0 == 0 else v0 / norm0
    last_error = None
    for attempt, factor in enumerate((1, 2)):
        try:
            values, vectors = spla.eigs(
                problem.operator(),
                k=k,
                which=arpack_which,
                v0=v0,
                ncv=min(dim, max(ncv * factor, 3 * k + 2)),
                maxiter=maxiter * factor,
                tol=tol,
            )
            values, vectors = _select_eig(values, vectors, which)
            second = values[1] if values.size > 1 else None
            return values[0], vectors[:, 0], second
        except spla.ArpackNoConvergence as err:
            last_error = err
            if len(err.eigenvalues):
                values, vectors = _select_eig(err.eigenvalues, err.eigenvectors, which)
                second = values[1] if values.size > 1 else None
                return values[0], vectors[:, 0], second
        except spla.ArpackError as err:
            last_error = err
    if dim <= hard_cap:
        mat = problem.dense_matrix()
        values, vectors = np.linalg.eig(mat)
        values, vectors = _select_eig(values, vectors, which)
        second = values[1] if values.size > 1 else None
        return values[0], vectors[:, 0], second
    raise EigensolverBreakdown(f"Arnoldi failed at dim {dim}: {last_error}")


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
    """Sweep until the local eigenvalue settles; returns (residuals, theta)."""
    thetas = []
    history = []
    theta = None
    use_two = stage.two_site and engine.length > 1
    for sweep in range(max(stage.sweeps, 1)):
        sweep_thetas = []
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
                ncv=cfg.krylov_dim,
                maxiter=cfg.arpack_maxiter,
                dense_cutoff=cfg.dense_local_cutoff,
                hard_cap=cfg.dense_local_hard_cap,
                want_second=want_second,
            )
            if want_second and second is not None and abs(second) < cfg.degeneracy_tol:
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
        thetas.append(resid)
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
    return thetas, history[-1] if history else None


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
        trunc = TruncationSpec(max_rank=stage.chi, weight_cutoff=cfg.weight_cutoff)
        stage_info = {
            "n_c": stage.n_c,
            "chi": stage.chi,
            "penalties_on": stage.penalties_on,
            "two_site": stage.two_site,
        }
        try:
            engine = SweepEngine(mpo, state, trunc, terms, scalar)
            residuals, final_theta = _run_sweeps(
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
            residuals, final_theta = _run_sweeps(
                engine,
                cfg,
                stage,
                "nearest_zero",
                label=f"stage {idx} retry",
                check_degeneracy=idx == last,
            )
        state = engine.state()
        stage_info["sweep_residuals"] = [float(r) for r in residuals]
        report.stage_log.append(stage_info)
        report.sweep_residuals.extend(float(r) for r in residuals)
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
        state, TruncationSpec(max_rank=final_stage.chi, weight_cutoff=cfg.weight_cutoff)
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
    if edge > cfg.convergence_tol:
        report.warnings.append(
            f"edge harmonic weight {edge:.2e} above tolerance {cfg.convergence_tol:.1e}; "
            "cutoff too small"
        )
    worst_defect = max(report.hermiticity_defects.values())
    if worst_defect > cfg.convergence_tol:
        report.warnings.append(
            f"hermiticity defect {worst_defect:.2e} above tolerance {cfg.convergence_tol:.1e}"
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
            trunc = TruncationSpec(max_rank=stage.chi, weight_cutoff=cfg.weight_cutoff)
            engine = SweepEngine(mpo, state, trunc, terms, None)
            sweep_stage = SweepStage(
                n_c=stage.n_c,
                chi=stage.chi,
                sweeps=max(stage.sweeps, 4),
                penalties_on=False,
                two_site=stage.two_site and model.chain_length > 1,
            )
            residuals, theta = _run_sweeps(
                engine, cfg, sweep_stage, "largest_real", label=label
            )
            report.sweep_residuals.extend(float(r) for r in residuals)
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
    # on the conjugate partner, which pairs to zero with our right mode; its
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
