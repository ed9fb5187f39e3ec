"""Sweeping eigensolver for steady states and slow modes in frequency space.

The solver works on the harmonic-resolved MPS of
:class:`~floquet_ness.freqspace.FloquetDensityMatrix`. All blocks are kept in
mixed-canonical gauge around the active site; contracting everything except
that site against the transfer components of the generator yields, for the
site tensors of all harmonic blocks at once, an ordinary (non-Hermitian)
local eigenproblem. Every local solve takes one contract: the eigenvalue
nearest a shift ``sigma`` (``0`` for the steady state, ``conj(lambda)`` for
the left partner of a decay mode ``lambda``). The right decay solve's first
sweep picks its shift at each site before it solves (later sweeps track that
mode at a shift): LAPACK's eigenvalues of the dense problem alone (no
eigenvectors) give the largest real part in the central Floquet zone
``|Im theta| < omega / 2``, since copies shifted by ``s`` harmonics sit at
``theta - i s omega`` and the truncated harmonic ladder carries spurious
ones at its edge (at cutoff 0, with no ladder, every value counts). It picks
once per site whose local problem is the whole space (every bond at its
exact size): there the frames are unitary, so the problem has the
generator's own spectrum on every visit, and a second visit is solved at
the first visit's pick. A solve first tests its start: one whose Rayleigh
quotient and residual already pass the acceptance test is returned with no
method run. Otherwise local problems up to
``SweepConfig.dense_local_cutoff`` are densified and solved by
shift-invert (one LU factorization of ``A - sigma I`` and a short Arnoldi
run on its inverse, whose top Ritz pair is tested after every step and
accepted only on a small true residual), and every refused one by a full
LAPACK diagonalization.
Above the cutoff nothing is densified. A sweep's shift, which is (nearly) a
local eigenvalue, is solved as the tethered linear system
``(A - sigma I + u u^H) x = u`` (``u`` the current centre vector). Every
method factors one LU per harmonic diagonal block (:func:`_block_jacobi`; a
dense matrix is one block), whose solve is the inverse with one block; with
more, the inverse is this module's restarted GMRES
(:func:`_shifted_inverse`, :func:`_gmres`), right-preconditioned by those
LUs (block Jacobi), so that its cheap residual estimate is the true
residual.
Every LU is LAPACK's getrf and getrs, called without scipy's wrappers, which
cost more than the solves at these block sizes. A method that cannot answer
raises :class:`EigensolverBreakdown` with its reason, and only
:func:`_local_eigensolve` (and the degeneracy check, for its own) catches
it: it logs a WARNING and falls back to the dense path, or re-raises above
``DENSE_LOCAL_HARD_CAP``.
Sweeping relaxes the state onto the targeted eigenvector: every
solve (steady state, right and left decay mode) runs the one sweep stage
``SweepConfig.warmup`` (:func:`_sweep_schedule`). It canonicalizes its start
once, at the stage's bond dimension, and runs single-site sweeps at that
bond and one harmonic cutoff, until a sweep accepts every start (it only
moved the gauge) or the stage's sweep count is reached. A sweep's residual
is the largest distance of its local eigenvalues from the shift it solved
at; the stage ends with one solve at the centre site ``L // 2`` that never
accepts its start, and returns its eigenvalue. Bonds are fixed at
the start, never grown, so the start must span them (a noisy start at the
full bond); a bond held at the bond dimension below its exact size is
reported. The steady state needs no trace constraint: its shifted copies sit
at ``i s omega``, ``|s| omega`` away from zero. Its degeneracy is checked
once, after the sweeps, on the centre solve's own problem and with that
solve's own factorization, which it hands over by return value: the
converged state, whose local image in the engine's orthonormal frames is
the centre vector ``x0``, is projected out by ``P = I - x0 w0^H / (w0^H
x0)``, and the eigenvalue nearest zero of what remains must not vanish
(:func:`_deflated_check`). The centre solve's write moved no environment,
so that problem is still valid, with what it assembled, and the check
factors nothing: on the dense LU at ``sigma = 0`` one adjoint solve gives
``w0``, and shift-invert runs on the projected inverse; on the tethered
inverse above the cutoff ``w0 = x0``, and ARPACK runs on it. That
comparison with ``DEGENERACY_TOL`` is the check's only decision, so it
accepts at ``DEGENERACY_TOL`` rather than at the sweeps' tolerance, and
reports the true residual of the projected operator at its answer. The
right decay solve moves the
steady state and its copies away with a penalty that is part of its
generator: a product operator added to the ``q = 0`` transfer component. So
every sweep contracts one MPO and nothing else. It is the only trace
mechanism: the decay modes are returned as swept, never projected or truncated.

Both solves finish their report in one place (:func:`_finish_report`): the
last sweep residuals against ``eig_tol``, the described mode's Schmidt
spectra and block norms, saturated bonds of every mode, and the true
fixed-point residual ``||(L - theta) x|| / ||x||`` of every mode, streamed
through one QR sweep per output harmonic block, so the image ``L x`` is
never built (:func:`_eigen_residual`). No block is canonicalized again for
it: the Schmidt spectra come from the engine's site stacks, still in
mixed-canonical gauge about the centre site, by one batched SVD per bond
walking out from it (:func:`_schmidt_spectra`), and the block norms, a
steady state's traces and Hermiticity defects from the public
:mod:`~floquet_ness.freqspace` routines, each one batched contraction or
zip-up QR per site over all harmonics.

Harmonic blocks ``n`` couple only through the transfer components ``q``, so
every local operation is one contraction batched over the live pairs
``(q, n)``, whose block ``n - q`` lies within the cutoff. All blocks share
their bonds, so the sweep engine holds each site as one stack over
harmonics, and that stack is the flat local vector of :class:`SiteProblem`
(layout in :class:`SweepEngine`). The engine acts only at its orthogonality
centre: its problem is built there, and a solved stack is written there
before the centre moves.

Sign conventions: eigenvalues are those of the frequency-space generator
(``Re <= 0``); a mode decays as ``exp(lambda t)`` and the relaxation time of
the slowest mode is ``-1 / Re(lambda_1)``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .freqspace import (
    FloquetDensityMatrix,
    FloquetMPO,
    _integer,
    _padded,
    _real,
    block_norms,
    hermiticity_defect,
    initial_guess,
    trace_components,
)
from .liouvillian import ModelSpec, build_extended_lindbladian
from .mps import Mpo, Mps, product_sum_norm
from .superops import LocalOperator, vectorize_choi
# perfbench/tracing.py wraps solver.truncated_svd, so the name stays bound here
from .tensors import TruncationSpec, _kept, truncated_svd

logger = logging.getLogger(__name__)

# complex LU and eig by LAPACK, called directly: at the local problems' block
# sizes and the Hessenberg sizes of shift-invert, scipy's lu_factor/lu_solve
# and eig wrappers cost more than the factorization's solve
_GETRF, _GETRS, _GEEV, _GEEV_LWORK = sla.get_lapack_funcs(("getrf", "getrs", "geev", "geev_lwork"), dtype=complex)

__all__ = [
    "SweepStage",
    "SweepConfig",
    "SolveReport",
    "DecayModeResult",
    "SolverError",
    "EigensolverBreakdown",
    "DegenerateSteadyStateError",
    "StaleEnvironmentError",
    "SweepEngine",
    "make_warmup_schedule",
    "solve_ness",
    "solve_first_decay_mode",
    "transient_observable",
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
    """The sweep stage every solve runs: up to `sweeps` single-site sweeps
    at harmonic cutoff `n_c` and bond dimension `chi`, the bond of the start
    and of the result."""

    n_c: int
    chi: int
    sweeps: int


CONVERGENCE_TOL = 1e-3  # edge-harmonic weight and Hermiticity defect that warn
WEIGHT_CUTOFF = 1e-12  # relative Schmidt value kept by compression and counted as saturating a bond
KRYLOV_DIM = 36  # shift-invert steps; GMRES restart length
GMRES_CYCLES = 8  # GMRES restart cycles of one inverse application (a tethered solve is one)
TETHER_ATTEMPTS = 5  # tethered solves of one local problem, each from the last one's answer
# first basis and restarts of the degeneracy check's shift-invert ARPACK run
# above the dense cutoff (a retry doubles both): the wanted value leads the
# projected inverse's spectrum and converges within a few restarts, and every
# basis vector costs an application of the centre solve's tethered inverse
ARNOLDI_DIM = 12
ARPACK_MAXITER = 50
# largest local problem densified (the first decay sweep's pick, a shift after
# GMRES failed, or the degeneracy check's eig), and largest harmonic block that
# GMRES preconditioning factorizes
DENSE_LOCAL_HARD_CAP = 4096
# a centre eigenvalue this close to 0, with the converged state projected out, is degenerate
DEGENERACY_TOL = 1e-7
# Methods a local solve is counted under in `SweepEngine.local_solves`: a
# start that already passes the acceptance test, returned with no method run;
# shift-invert below the dense cutoff; above the cutoff the tethered solve,
# whose inverse is an exact LU solve at one harmonic block and GMRES at more
# (the engine's `gmres_iterations` counts that work); a dense `eig` (or
# shift-invert) after any of them failed, or for a zero start. `dense_eig`
# counts no solve but the first decay sweep's picks, one `eigvals` each (a
# whole-space site's second visit reuses its first pick); the solve at a pick
# is counted like any shift solve. The degeneracy
# check counts its own solve: `shift_invert` on the centre solve's dense LU,
# shift-invert ARPACK (`arnoldi`) on its tethered inverse, `dense_fallback`
# for its `eig`.
LOCAL_METHODS = ("converged_start", "shift_invert", "dense_eig", "arnoldi", "tethered", "dense_fallback")


@dataclass
class SweepConfig:
    """Schedule and tolerances for the sweeping solver.

    `warmup` is the :class:`SweepStage` every solve runs, nothing else
    (integers, not ``bool``: ``n_c >= 0``, ``chi >= 1``, at least one
    sweep); a sweep whose
    every start passes the acceptance test ends it early, and one solve at
    the centre site ``L // 2`` ends it. `eig_tol` and `noise_amplitude`
    are real numbers (an int or a float, not ``bool``), positive and
    finite. `eig_tol` stops no sweep: a stage whose last sweep residual
    (the largest distance of the sweep's local eigenvalues from its shift,
    :func:`_sweep_schedule`) exceeds it is reported unconverged, with a
    warning, and it sets the local solves' residual bound. Single-site
    sweeps cannot grow a bond, so the start carries seeded noise of
    `noise_amplitude` at the full bond. Local problems up to
    `dense_local_cutoff` (an integer, at most DENSE_LOCAL_HARD_CAP) are
    densified. Every local solve is at a shift:
    the right decay mode's first sweep picks its shift from the dense
    eigenvalues at any size up to the cap (once per whole-space site), and
    solves at it like any other. A solve whose start does not already pass
    uses shift-invert (LU plus a short Arnoldi on the inverse, its Ritz
    pair tested after every step) and falls back to a full `eig` when it is
    refused. Larger problems are solved by the tethered solve, which
    inverts with one LU per harmonic block, exactly when there is one block
    and by GMRES otherwise. The degeneracy check
    factors nothing: it applies the steady-state centre solve's inverse with
    the converged state projected out, by shift-invert on the dense LU and
    by shift-invert ARPACK on the tethered inverse. The sweeps' local solves
    accept at :func:`_local_tol`, the degeneracy check at DEGENERACY_TOL,
    the only tolerance it decides at. `seed` (an integer, at least 0, not
    ``bool``) seeds the start's noise and the check's random start.
    """

    warmup: SweepStage
    eig_tol: float = 1e-10
    noise_amplitude: float = 1e-6
    seed: int = 7
    dense_local_cutoff: int = DENSE_LOCAL_HARD_CAP

    def validate(self):
        if not isinstance(self.warmup, SweepStage):
            raise ValueError(f"warmup must be a SweepStage, got {self.warmup!r}")
        integers = {**asdict(self.warmup), "dense_local_cutoff": self.dense_local_cutoff, "seed": self.seed}
        for name, value in integers.items():
            _integer(name, value)
        if self.warmup.sweeps < 1:
            raise ValueError("the stage must run at least one sweep")
        if self.warmup.n_c < 0:
            raise ValueError("the stage's harmonic cutoff n_c must be at least 0")
        if self.warmup.chi < 1:
            raise ValueError("the stage's bond dimension chi must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        for name, reason in (("eig_tol", ""), ("noise_amplitude", ": a noiseless start stays at bond 1")):
            if not 0 < _real(name, getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}{reason}")
        if not 0 <= self.dense_local_cutoff <= DENSE_LOCAL_HARD_CAP:
            raise ValueError(f"dense_local_cutoff must lie in [0, {DENSE_LOCAL_HARD_CAP}]")
        return self


def make_warmup_schedule(n_c, chi, warm_sweeps=3, final_sweeps=8):
    """The stage at cutoff `n_c` and bond `chi` of up to ``warm_sweeps +
    final_sweeps`` single-site sweeps. It only adds the two counts; it is
    kept for the benchmark's workloads, which build their configs with it."""
    return SweepStage(n_c, chi, warm_sweeps + final_sweeps)


@dataclass
class SolveReport:
    """Diagnostics of one steady-state or decay-mode solve.

    `stage_log` holds one entry per sweep stage (:func:`_sweep_schedule`):
    ``"ness"`` for a steady state, ``"decay right"`` and ``"decay left"``
    for a decay mode. Every entry has these keys:

    - ``"label"``: the stage's name, as above;
    - ``"target"``: the shift it solved at as ``[re, im]``, or
      ``"slowest_central"``;
    - ``"n_c"``, ``"chi"``: the stage's harmonic cutoff and bond dimension;
    - ``"start_discarded_weight"``: the relative weight the start's
      canonicalization at ``chi`` dropped, summed over blocks and bonds;
    - ``"seconds"``: the stage's wall time (a steady state's includes its
      degeneracy check);
    - ``"sweep_residuals"``: per sweep, the largest distance of its local
      eigenvalues from the shift;
    - ``"max_bond"``: per sweep, the largest bond after it;
    - ``"local_solves"``: the local solves counted by method (keys
      `LOCAL_METHODS`); ``"dense_eig"`` counts the first decay sweep's
      picks, one ``eigvals`` each, and the solve at a pick is counted
      under the method that answered it;
    - ``"gmres_iterations"``: the GMRES iterations of every inverse.

    A steady state's entry adds its degeneracy check (:func:`_deflated_check`):

    - ``"degeneracy_gap"``: ``|theta|`` of the centre problem's eigenvalue
      nearest zero once the converged state is projected out (the
      runner-up of the state's own value), above DEGENERACY_TOL;
    - ``"degeneracy_residual"``: the true residual ``||P A v - theta v||``
      of the projected operator at that unit eigenvector (``||A v - theta
      v||`` when ``eig`` answered), accepted at DEGENERACY_TOL: ``theta`` is
      an exact eigenvalue of a problem within this distance of ``P A``;
    - ``"degeneracy_inverse_solves"``: how often the check applied the
      centre solve's factorization as its projected inverse; the one
      adjoint solve on the dense LU is not counted, and ``eig`` applies
      none.

    `schmidt_spectra` (up to 16 values per bond) come from the sweep
    engine's site stacks (:func:`_schmidt_spectra`), and
    `block_norm_profile`, `trace_defects` and `hermiticity_defects` from
    :func:`~floquet_ness.freqspace.block_norms`,
    :func:`~floquet_ness.freqspace.trace_components` and
    :func:`~floquet_ness.freqspace.hermiticity_defect` of the returned
    state (:func:`_finish_report`).
    """

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
        """The report for ``json.dumps``, stored as ``json.dump(report.to_dict(),
        fh)``: every field but the complex eigenvalue, written as ``[re, im]``,
        is already plain numbers and lists (int keys are written as strings)."""
        out = asdict(self)
        if self.eigenvalue is not None:
            out["eigenvalue"] = [float(np.real(self.eigenvalue)), float(np.imag(self.eigenvalue))]
        return out


class SweepEngine:
    """Mutable sweep state: site stacks and environments.

    Every block is canonicalized once, at site 0 with its bonds capped at
    `chi` (no cap by default); `start_discarded_weight` is the relative
    weight that dropped, summed over blocks and bonds. All
    blocks must then share their bonds (a ``ValueError`` names them
    otherwise; an exactly zero block takes the frames of a nonzero one; no
    sweep changes a bond). ``sites[i]`` stacks site `i` of
    every harmonic block as ``[n, p, l, r]``. Only the live transfer/harmonic
    pairs ``(q, n)``, those with ``|n - q| <= n_c``, couple blocks: `_live`
    holds their transfer and harmonic indices, ordered by ``q``, `_source`
    the stack position of block ``n - q``, and `_groups`, per transfer, the
    slice of its pairs and the slice of their harmonics (consecutive). The
    environments of the local eigenproblem of the one generator `mpo`
    (penalties included, as MPO terms) are one array per bond:
    ``env_left[i]`` / ``env_right[i]`` is ``[pair, a, w, b]``, with ``a``
    the bra bond of block ``n``, ``b`` the ket bond of block ``n - q`` and
    ``w`` the operator bond, zero-padded over components (`_padded`), as
    are the pairs' MPO matrices in `_wstack`.

    `local_solves` counts the engine's local solves by method (keys
    `LOCAL_METHODS`), `gmres_iterations` the GMRES iterations of its
    tethered solves, the degeneracy check's applications of the centre
    solve's tethered inverse included, and `inverse_solves` the degeneracy
    check's applications of the centre solve's inverse
    (:func:`_deflated_check`), by GMRES or by the LU of its one block.

    The engine acts only at its orthogonality centre `center`: no method
    takes a site. :meth:`site_problem` builds the problem there, and
    :meth:`set_site` writes there and moves the centre. `version` changes
    only when an environment does (:meth:`_update_left`,
    :meth:`_update_right`), that is, when the centre moves: a problem built
    before a move is stale, one kept across a write in place is not.
    """

    def __init__(self, mpo: FloquetMPO, state: FloquetDensityMatrix, chi=None):
        self.mpo = mpo
        self.length = state.chain_length
        self.phys = state.phys_dim
        self.omega = state.omega
        self.cutoff = state.cutoff
        self.harmonics = list(range(-self.cutoff, self.cutoff + 1))
        spec = TruncationSpec() if chi is None else TruncationSpec(max_rank=chi)
        blocks, self.start_discarded_weight = [], 0.0
        for n in self.harmonics:
            block, info = state.blocks[n].canonicalize(spec)
            blocks.append(block.tensors)
            self.start_discarded_weight += info.total_discarded
        # an exactly zero block (zero centre) canonicalizes to bond 1; it takes
        # the orthonormal frames of a nonzero block instead and stays zero
        frames = next((ts for ts in blocks if np.any(ts[0])), None)
        if frames is not None:
            blocks = [ts if np.any(ts[0]) else [np.zeros_like(frames[0]), *frames[1:]] for ts in blocks]
        bonds = {n: [t.shape[2] for t in ts[:-1]] for n, ts in zip(self.harmonics, blocks)}
        if len({tuple(b) for b in bonds.values()}) > 1:
            raise ValueError(f"harmonic blocks must share their bonds, got {bonds}")
        self.sites = [np.stack(ts) for ts in zip(*blocks)]
        self.transfers = [q for q in mpo.components if abs(q) <= 2 * self.cutoff]
        shift = np.array([[n - q for n in self.harmonics] for q in self.transfers])
        self._live = q, n = np.nonzero(np.abs(shift) <= self.cutoff)
        self._source = shift[q, n] + self.cutoff
        bounds = np.searchsorted(q, np.arange(len(self.transfers) + 1))
        self._groups = [(slice(a, b), slice(n[a], n[b - 1] + 1)) for a, b in zip(bounds[:-1], bounds[1:])]
        # per site, [pair, (p' w'), (w p)] matrices of the [w, p', p, w'] tensors
        self._wstack = []
        for i in range(self.length):
            w = _padded([mpo.components[self.transfers[k]].tensors[i].transpose(1, 3, 0, 2) for k in q])
            self._wstack.append(w.reshape(w.shape[0], w.shape[1] * w.shape[2], -1))
        self.local_solves = dict.fromkeys(LOCAL_METHODS, 0)
        self.gmres_iterations = 0
        self.inverse_solves = 0
        self.version = 0
        self.center = 0
        # environments, the right ones absorbed from the last site inward
        tail = [None] * self.length
        self.env_left = [np.ones((len(q), 1, 1, 1), dtype=complex)] + tail
        self.env_right = tail[1:] + [self.env_left[0], None]
        for i in range(self.length - 1, 0, -1):
            self._update_right(i)

    # -- state access --------------------------------------------------------

    def state(self):
        blocks = {n: Mps([s[h].copy() for s in self.sites]) for h, n in enumerate(self.harmonics)}
        return FloquetDensityMatrix(blocks, self.omega, self.cutoff)

    # -- environments ---------------------------------------------------------

    def _operands(self, i):
        """Site `i` of every pair as the bra ``[pair, (l p), r]`` of block ``n``
        and the ket ``[pair, l, (p r)]`` of block ``n - q``, the pairs' MPO
        matrices, and the sizes ``(l, p, r)``."""
        stack = np.ascontiguousarray(self.sites[i].transpose(0, 2, 1, 3))  # [n, l, p, r]
        nh, l, p, r = stack.shape
        bra = stack.conj().reshape(nh, l * p, r)[self._live[1]]
        return bra, stack.reshape(nh, l, p * r)[self._source], self._wstack[i], (l, p, r)

    def _update_left(self, i):
        """Absorb site `i` into the left environments (valid at i+1)."""
        self.version += 1
        bra, ket, mpo, (l, p, r) = self._operands(i)
        env = self.env_left[i]
        pairs, w = env.shape[0], env.shape[2]
        t = env.reshape(pairs, l * w, l) @ ket  # [pair, (a w), (p b')]
        t = mpo[:, None] @ t.reshape(pairs, l, w * p, r)  # [pair, a, (p' w'), b']
        t = bra.swapaxes(1, 2) @ t.reshape(pairs, l * p, -1)  # [pair, a', (w' b')]
        self.env_left[i + 1] = t.reshape(pairs, r, -1, r)

    def _update_right(self, i):
        """Absorb site `i` into the right environments (valid at i-1)."""
        self.version += 1
        bra, ket, mpo, (l, p, r) = self._operands(i)
        env = self.env_right[i]
        pairs = env.shape[0]
        t = bra @ env.reshape(pairs, r, -1)  # [pair, (a p'), (w' b')]
        t = mpo.swapaxes(1, 2)[:, None] @ t.reshape(pairs, l, -1, r)  # [pair, a, (w p), b']
        t = t.reshape(pairs, -1, p * r) @ ket.swapaxes(1, 2)  # [pair, (a w), b]
        self.env_right[i - 1] = t.reshape(pairs, l, -1, l)

    def advance_to(self, site):
        """Move the orthogonality center rightward to `site` without solving."""
        if site < self.center:
            raise ValueError("advance_to only moves the center rightward")
        while self.center < site:
            self.set_site(None, direction="right")

    # -- local problem ---------------------------------------------------------

    def site_problem(self):
        """The local eigenproblem at the centre (:class:`SiteProblem`)."""
        return SiteProblem(self)

    def set_site(self, stack, direction="right"):
        """Write back the solved stack ``[n, p, l, r]`` at the centre (None
        keeps it) and restore the gauge: one batched QR moves the centre
        along `direction`, keeping every bond dimension. Any other
        `direction` (None), or one off the chain's end, leaves the centre and
        every environment in place."""
        i = self.center
        if stack is not None:
            self.sites[i] = stack
        nh, p, l, r = self.sites[i].shape
        if direction == "right" and i < self.length - 1:
            q, rmat = np.linalg.qr(self.sites[i].reshape(nh, p * l, r))
            self.sites[i] = q.reshape(nh, p, l, -1)
            _, p, l, r = self.sites[i + 1].shape
            t = rmat @ self.sites[i + 1].transpose(0, 2, 1, 3).reshape(nh, l, p * r)
            self.sites[i + 1] = t.reshape(nh, -1, p, r).transpose(0, 2, 1, 3)
            self._update_left(i)
            self.center = i + 1
        elif direction == "left" and i > 0:
            q, rmat = np.linalg.qr(self.sites[i].transpose(0, 1, 3, 2).reshape(nh, p * r, l))
            self.sites[i] = q.reshape(nh, p, r, -1).transpose(0, 1, 3, 2)
            _, p, l, r = self.sites[i - 1].shape
            t = self.sites[i - 1].reshape(nh, p * l, r) @ rmat.swapaxes(1, 2)
            self.sites[i - 1] = t.reshape(nh, p, l, -1)
            self._update_right(i)
            self.center = i - 1


class SiteProblem:
    """Local eigenproblem at the engine's centre, all harmonics at once.

    The flat local vector is the centre's site stack ``[n, p, l, r]``, of
    `shape` ``[p, l, r]`` per harmonic. `matvec` applies the projected
    generator of every live pair ``(q, n)`` in one batched contraction per
    environment and one for the site's MPO tensor, sums the pairs of each
    harmonic in order of ``q`` and adds the frequency ramp; it takes one
    vector or a ``(dim, k)`` block of columns.

    `dense_matrix` assembles the same operator without `matvec`: for every
    live pair ``(q, n)`` it contracts
    ``L[q, n, a, w, b] W_q[w, p', p, w'] R[q, n, a', w', b']`` in two
    batched products into block ``(n, n - q)`` of the ``(dim, dim)``
    matrix, and the ramp goes on the diagonal. `diagonal_blocks` assembles
    the same way only the harmonic diagonal blocks ``(n, n)``, from the
    ``q = 0`` pairs. Each is assembled once per problem and kept
    with it (`_assembled`), so callers must not write to them. `matvec`,
    `dense_matrix` and `diagonal_blocks`, assembled or kept, validate the
    environments against the engine version, so a problem kept across a
    move of the centre fails loudly; a write at the centre leaves it valid,
    and `current_vector` reads the written stack.
    """

    def __init__(self, engine: SweepEngine):
        self.engine = engine
        self.site = site = engine.center
        self.version = engine.version
        nh, p, l, r = engine.sites[site].shape
        self.shape = (p, l, r)
        self.dim = nh * p * l * r
        self._diag = np.repeat([engine.mpo.diagonal_coefficient(n) for n in engine.harmonics], p * l * r)
        pairs = len(engine._source)
        self._left = engine.env_left[site].reshape(pairs, -1, l)  # [pair, (a w), b]
        self._w = engine._wstack[site]  # [pair, (p' w'), (w p)]
        self._right = engine.env_right[site].reshape(pairs, r, -1)  # [pair, a', (w b')]
        self._assembled = {}  # "dense" [dim, dim] and "blocks" [n, m, m], each built once

    def _require_current(self):
        if self.version != self.engine.version:
            raise StaleEnvironmentError("site problem built against an older sweep state")

    def unpack(self, vec):
        """Site stack ``[n, p, l, r]`` of a flat local vector."""
        return np.asarray(vec).reshape(-1, *self.shape)

    def current_vector(self):
        return self.engine.sites[self.site].reshape(-1)

    def matvec(self, vec):
        self._require_current()
        vec = np.asarray(vec, dtype=complex)
        cols = vec.reshape(self.dim, -1)
        k = cols.shape[1]
        p, l, _ = self.shape
        pairs, nh = len(self._left), len(self.engine.harmonics)
        x = cols.reshape(nh, p, l, -1).swapaxes(1, 2).reshape(nh, l, -1)  # [n, b, (p b' k)]
        x = x[self.engine._source]  # [pair, b, (p b' k)] of block n - q
        t = self._left @ x  # [pair, (a w), (p b' k)]
        t = self._w[:, None] @ t.reshape(pairs, l, self._w.shape[-1], -1)  # [pair, a, (p' w'), (b' k)]
        t = self._right[:, None] @ t.reshape(pairs, l * p, self._right.shape[-1], k)  # [pair, (a p'), a', k]
        y = np.zeros((nh, *t.shape[1:]), dtype=complex)
        for group, harmonics in self.engine._groups:  # each harmonic's pairs in order of q
            y[harmonics] += t[group]
        y = y.reshape(nh, l, p, -1).swapaxes(1, 2).reshape(-1, k) + self._diag[:, None] * cols
        return y.reshape(vec.shape)

    def _pair_blocks(self, pairs=slice(None)):
        """Block ``(n, n - q)`` of each live pair in the slice `pairs`, rows
        ``(p', a, a')`` and columns ``(p, b, b')``, as ``[pair, p', a, a', p, b, b']``."""
        w = self._w[pairs]
        k = len(w)
        p, l, r = self.shape
        # the pairs' [(p' w'), (w p)] matrices as [w, p', p, w'] tensors
        mpo = w.reshape(k, p, -1, w.shape[-1] // p, p).transpose(0, 3, 1, 4, 2)
        wl, wr = mpo.shape[1], mpo.shape[4]
        left = self._left[pairs].reshape(k, l, wl, l).transpose(0, 1, 3, 2)  # [k, a, b, w]
        t = left.reshape(k, l * l, wl) @ mpo.reshape(k, wl, -1)  # [k, (a b), (p' p w')]
        right = self._right[pairs].reshape(k, r, wr, r).transpose(0, 2, 1, 3)  # [k, w', a', b']
        blocks = (t.reshape(k, -1, wr) @ right.reshape(k, wr, r * r)).reshape(k, l, l, p, p, r, r)
        return blocks.transpose(0, 3, 1, 5, 4, 2, 6)

    def dense_matrix(self):
        """Materialize the local operator from the environments and MPO tensors."""
        self._require_current()
        if "dense" not in self._assembled:
            nh = len(self.engine.harmonics)
            p, l, r = self.shape
            out = np.zeros((nh, p, l, r, nh, p, l, r), dtype=complex)
            out[self.engine._live[1], :, :, :, self.engine._source] = self._pair_blocks()
            out = out.reshape(self.dim, self.dim)
            out.flat[:: self.dim + 1] += self._diag
            self._assembled["dense"] = out
        return self._assembled["dense"]

    def diagonal_blocks(self):
        """Diagonal block ``(n, n)`` of every harmonic, ``[n, m, m]`` with
        ``m = p l r``: the ``q = 0`` pairs, one contiguous range of the stack
        over all harmonics, plus the ramp."""
        self._require_current()
        if "blocks" not in self._assembled:
            nh = len(self.engine.harmonics)
            m = self.dim // nh
            pairs, _ = self.engine._groups[self.engine.transfers.index(0)]
            out = self._pair_blocks(pairs).reshape(nh, m, m)
            out[:, np.arange(m), np.arange(m)] += self._diag.reshape(nh, m)
            self._assembled["blocks"] = out
        return self._assembled["blocks"]


def _slowest_central(values, engine):
    """Largest-real-part eigenvalue (Im >= 0 of a pair, up to 1e-10 of the
    spectrum's largest modulus, so a real value keeps its roundoff of either
    sign); with a harmonic ladder (cutoff >= 1) only values with
    ``|Im theta| < omega / 2``. Raises :class:`EigensolverBreakdown` when no
    value is central."""
    central = values.imag > -1e-10 * np.abs(values).max()
    if engine.cutoff:
        central &= np.abs(values.imag) < engine.omega / 2
    if not central.any():
        raise EigensolverBreakdown(f"no central local eigenvalue at dim {len(values)}")
    return values[np.flatnonzero(central)[np.argmax(values.real[central])]]


def _lu(mat):
    """The LAPACK factors ``(lu, piv)`` of complex `mat`, a block of
    :func:`_block_jacobi`, its only caller. Unusable factors, a zero pivot
    (getrf's ``info > 0``) or non-finite ones, raise
    :class:`EigensolverBreakdown`. getrf is called directly, and its factors
    are those of ``scipy.linalg.lu_factor``, bit for bit."""
    lu, piv, info = _GETRF(mat, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    if info > 0:
        raise EigensolverBreakdown(f"block LU: zero pivot {info}: singular matrix")
    if not np.all(np.isfinite(lu)):
        raise EigensolverBreakdown("block LU: non-finite LU factors")
    return lu, piv


def _arnoldi_step(basis, j, w):
    """Extend the orthonormal columns ``0..j`` of `basis` by `w` (classical
    Gram-Schmidt, twice) as column ``j + 1``, unless the remainder's norm is
    zero or not finite. Returns the Hessenberg column: coefficients, norm."""
    span = basis[:, : j + 1]
    h = np.zeros(j + 2, dtype=complex)
    for _ in range(2):
        coef = span.conj().T @ w
        w -= span @ coef
        h[: j + 1] += coef
    h[j + 1] = np.linalg.norm(w)
    if 0 < h[j + 1].real < np.inf:
        basis[:, j + 1] = w / h[j + 1]
    return h


def _shift_invert(matvec, inverse, v0, sigma, bound):
    """Eigenpair nearest `sigma` of the operator ``A`` that `matvec` applies,
    from Arnoldi on `inverse`, which applies ``(A - sigma I)^-1`` (the dense
    path's LU, :func:`_block_jacobi` of ``mat[None]``, or the degeneracy
    check's projection of it), whose eigenvalue ``mu`` gives ``theta = sigma
    + 1 / mu``.

    Returns ``(theta, vector)``. It raises :class:`EigensolverBreakdown`
    when no Ritz pair of largest ``|mu|`` reaches ``||A v - theta v|| <=
    bound`` within KRYLOV_DIM steps. `v0` is nonzero. An accepted vector is
    polished by one inverse-iteration step.

    The top Ritz pair is tested after every step (a Hessenberg ``eig`` and
    one true residual), and the loop stops early when the basis closes on an
    invariant subspace. `bound` sets how many steps run: the sweeps pass
    their :func:`_local_tol`, the degeneracy check the looser
    DEGENERACY_TOL (:func:`_deflated_check`).
    """
    steps = min(KRYLOV_DIM, len(v0))
    basis = np.zeros((len(v0), steps + 1), dtype=complex)
    hess = np.zeros((steps + 1, steps), dtype=complex)
    basis[:, 0] = v0 / np.linalg.norm(v0)
    for j in range(steps):
        hess[: j + 2, j] = _arnoldi_step(basis, j, inverse(basis[:, j]))
        if not np.isfinite(hess[j + 1, j]):
            raise EigensolverBreakdown("non-finite inverse step")
        # LAPACK geev at the workspace scipy's eig queries, so the Ritz pairs are its own; a failed
        # geev (info > 0) leaves pairs that the true residual below refuses
        mu, _, ritz, _ = _GEEV(hess[: j + 1, : j + 1], compute_vl=0, lwork=int(_GEEV_LWORK(j + 1, compute_vl=0)[0].real))
        top = np.argmax(np.abs(mu))
        if mu[top] != 0:
            theta = sigma + 1.0 / mu[top]
            vec = basis[:, : j + 1] @ ritz[:, top]
            vec /= np.linalg.norm(vec)
            if np.linalg.norm(matvec(vec) - theta * vec) <= bound:
                vec = inverse(vec)
                return theta, vec / np.linalg.norm(vec)
        if hess[j + 1, j] == 0:
            break  # invariant subspace: more steps add nothing
    raise EigensolverBreakdown(f"no Ritz pair accepted within {j + 1} steps")


def _block_jacobi(blocks, sigma, tether=None):
    """Block-Jacobi preconditioner of ``A - sigma I`` (plus ``u u^H`` for a
    flat `tether` ``u``): one LU per harmonic diagonal block ``[n, m, m]`` of
    `blocks` (:meth:`SiteProblem.diagonal_blocks`), each shifted and given
    its part of the tether. Returns ``solve``, where ``solve(x)`` applies the
    inverse of the block diagonal to a flat vector by one getrs per block on
    the factors of :func:`_lu` (``solve(x, 2)`` the inverse of its adjoint);
    an unusable block LU raises (:func:`_lu`)."""
    nh, m, _ = blocks.shape
    diagonal = np.arange(m), np.arange(m)
    parts = [None] * nh if tether is None else tether.reshape(nh, m)
    lus = []
    for block, part in zip(blocks, parts):
        shifted = block.copy() if part is None else block + np.outer(part, part.conj())
        shifted[diagonal] -= sigma
        lus.append(_lu(shifted))

    def solve(x, trans=0):  # getrs's info is nonzero only for an illegal argument
        return np.concatenate([_GETRS(*lu, part, trans=trans)[0] for lu, part in zip(lus, x.reshape(nh, m))])

    return solve


def _gmres(problem: SiteProblem, matvec, rhs, jacobi, atol, x0):
    """Solution of ``matvec(x) = rhs`` by restarted GMRES (Saad & Schultz,
    SIAM J. Sci. Stat. Comput. 7, 856 (1986)) from `x0`, right-preconditioned
    by `jacobi` (:func:`_block_jacobi`): ``A M y = b`` with ``x = x0 + M y``.

    Right preconditioning leaves the residual unchanged, so the Givens
    estimate ``beta |Q[j+1, 0]|`` of the Hessenberg least-squares problem is
    the true residual ``||b - A x||`` in exact arithmetic, and each cycle
    runs until it is at most `atol` or KRYLOV_DIM steps are taken. Every
    cycle begins with the true residual at its starting point, which
    confirms the previous cycle's answer: one that meets `atol` is returned
    (so an `x0` that already does comes back with no iteration), and
    otherwise the cycle runs from there, GMRES_CYCLES in all. The basis
    grows by :func:`_arnoldi_step`; the preconditioned basis ``M v_j`` is
    kept, so ``x`` is updated without applying `jacobi` again. A step whose
    rotated column is zero on and below the diagonal (a zero Givens norm:
    the column adds no direction, as every one does when the preconditioner
    returns zeros) ends its cycle without that column.

    Every Arnoldi step is added to ``problem.engine.gmres_iterations``.
    Returns `x`; when no cycle met `atol` it raises
    :class:`EigensolverBreakdown`, whose reason names the inverse of
    :func:`_shifted_inverse`, its only caller.
    """
    engine = problem.engine
    dim = problem.dim
    steps = min(KRYLOV_DIM, dim)
    x = np.array(x0, dtype=complex)
    resid = rhs - matvec(x)
    basis = np.zeros((dim, steps + 1), dtype=complex)  # columns v_j
    images = np.zeros((steps, dim), dtype=complex)  # rows M v_j
    tri = np.zeros((steps, steps), dtype=complex)  # R of the rotated Hessenberg matrix
    for _ in range(GMRES_CYCLES):
        beta = np.linalg.norm(resid)
        if beta <= atol:
            return x
        basis[:, 0] = resid / beta
        rot = np.eye(steps + 1, dtype=complex)  # the Givens rotations so far, as one unitary Q
        size = 0
        for j in range(steps):
            engine.gmres_iterations += 1
            images[j] = jacobi(basis[:, j])
            h = _arnoldi_step(basis, j, matvec(images[j]))
            h[: j + 1] = rot[: j + 1, : j + 1] @ h[: j + 1]
            a, b = complex(h[j]), h[j + 1].real
            norm = math.hypot(abs(a), b)
            if norm == 0:
                break
            phase = a / abs(a) if a else 1.0
            c, s = abs(a) / norm, phase * b / norm  # the rotation zeroing b under a
            rot[j : j + 2, : j + 2] = np.array([[c, s], [-s.conjugate(), c]]) @ rot[j : j + 2, : j + 2]
            tri[:j, j] = h[:j]
            tri[j, j] = phase * norm
            size = j + 1
            if beta * abs(rot[j + 1, 0]) <= atol or b == 0:
                break
        if size:
            y = np.linalg.solve(tri[:size, :size], beta * rot[:size, 0])
            x += y @ images[:size]
        resid = rhs - matvec(x)
    if np.linalg.norm(resid) <= atol:
        return x
    raise EigensolverBreakdown(f"inverse: GMRES did not converge in {GMRES_CYCLES} cycles of {steps} steps")


def _shifted_inverse(problem: SiteProblem, jacobi, sigma, bound, tether):
    """The inverse of ``A - sigma I + u u^H`` (``u`` the flat `tether`),
    ``A`` the operator of ``problem.matvec``, from the factored, tethered
    LUs `jacobi` of its harmonic blocks (:func:`_block_jacobi`).

    With one block the block LU's solve is the inverse, and `jacobi` itself
    is returned: no GMRES runs and no matvec confirms it. Otherwise
    ``inverse(b)`` is one :func:`_gmres` solve, right-preconditioned by the
    block LUs ``M``, from ``M b`` to a true residual of
    ``0.1 bound ||M b||``: its answer (of norm about ``||M b||``) is exact
    for a perturbation of ``A`` a tenth of the acceptance bound `bound` (Simoncini
    & Szyld, SIAM J. Sci. Comput. 25, 454 (2003)), and the ``(dim, dim)``
    matrix is never built. So one set of LUs serves any bound: the
    degeneracy check applies the centre solve's at its own. A GMRES run that
    does not converge raises :class:`EigensolverBreakdown`.
    """
    if len(problem.engine.harmonics) == 1:
        return jacobi

    def shifted(x):
        return problem.matvec(x) - sigma * x + tether * np.vdot(tether, x)

    def inverse(b):
        x0 = jacobi(b)
        return _gmres(problem, shifted, b, jacobi, atol=0.1 * bound * np.linalg.norm(x0), x0=x0)

    return inverse


def _tethered_solve(problem: SiteProblem, v0, sigma, blocks, bound):
    """Eigenpair of the local problem at a shift `sigma` that is (nearly) one
    of its eigenvalues (a sweep's shift above the dense cutoff, a first
    decay sweep's pick included), from the tethered linear system ``(A -
    sigma I + u u^H) x = u`` with ``u = v0 / ||v0||``, solved by
    :func:`_shifted_inverse` on the tethered LUs of the harmonic diagonal
    `blocks` (:func:`_block_jacobi`), exactly with one block.

    When `sigma` is an exact eigenvalue, its left null vector ``w`` turns the
    system into ``(w^H u)(1 - u^H x) = 0``, so ``u^H x = 1`` and
    ``(A - sigma I) x = 0``: any tether that makes the matrix nonsingular
    gives the eigenvector. Near an eigenvalue ``theta`` it is one step of
    inverse iteration, which shrinks the other components by
    ``|theta - sigma| / gap``. The eigenvalue is the Rayleigh quotient of
    ``x``, accepted only on a true residual ``||A x - theta x|| <= bound
    ||x||``, the bound of :func:`_local_eigensolve`. A refused answer is
    retethered at ``x``, and the shift moves to its Rayleigh quotient (so a
    shift well off the eigenvalue converges as Rayleigh-quotient
    iteration), TETHER_ATTEMPTS solves in all.

    Returns ``(theta, vector, factored)``, `factored` the accepted solve's
    ``(jacobi, sigma, u)``, ``jacobi`` its block LUs (:func:`_block_jacobi`);
    an unusable block LU, a failed inverse or no accepted pair raises
    :class:`EigensolverBreakdown`.
    """
    u = v0 / np.linalg.norm(v0)
    for _ in range(TETHER_ATTEMPTS):
        jacobi = _block_jacobi(blocks, sigma, u)
        x = _shifted_inverse(problem, jacobi, sigma, bound, u)(u)
        ax = problem.matvec(x)
        norm = np.linalg.norm(x)
        theta = np.vdot(x, ax) / norm**2
        if np.linalg.norm(ax - theta * x) <= bound * norm:
            return theta, x / norm, (jacobi, sigma, u)
        u, sigma = x / norm, theta
    raise EigensolverBreakdown(f"no pair accepted in {TETHER_ATTEMPTS} tethered solves")


def _arnoldi(matvec, inverse, v0, sigma, bound):
    """Eigenpair nearest `sigma` of the operator ``A`` that `matvec` applies
    (the degeneracy check's projected one above the dense cutoff), by ARPACK
    in shift-invert mode (Ericsson & Ruhe, Math. Comp. 35, 1251 (1980)): the
    eigenvalue ``mu`` of largest modulus of `inverse`, which applies ``(A -
    sigma I)^-1``, with ``k = 1``, from `v0` on ARNOLDI_DIM vectors, gives
    ``theta = sigma + 1 / mu``. ARPACK stays the outer loop, and stops at
    its own tolerance DEGENERACY_TOL, the check's.

    The pair is accepted only on a true residual
    ``||A v - theta v|| <= bound ||v||``, as in :func:`_tethered_solve`. A
    failed or refused attempt is retried once with twice the Krylov space
    and restarts; a partial, unconverged result is never used. Returns
    ``(theta, vector)``; no accepted pair raises
    :class:`EigensolverBreakdown`, and so does a failed inverse, which is not
    retried.
    """
    dim = len(v0)
    # in shift-invert mode ARPACK applies only `opinv`; `op` gives shape and type
    op = spla.LinearOperator((dim, dim), matvec=matvec, dtype=complex)
    opinv = spla.LinearOperator((dim, dim), matvec=inverse, dtype=complex)
    for factor in (1, 2):
        try:
            values, vectors = spla.eigs(
                op,
                k=1,
                sigma=sigma,
                OPinv=opinv,
                which="LM",
                v0=v0 / np.linalg.norm(v0),
                ncv=min(dim, ARNOLDI_DIM * factor),
                maxiter=ARPACK_MAXITER * factor,
                tol=DEGENERACY_TOL,
            )
        except spla.ArpackError as err:  # includes ArpackNoConvergence
            reason = str(err)
            continue
        theta, vec = values[0], vectors[:, 0]
        resid = np.linalg.norm(matvec(vec) - theta * vec) / np.linalg.norm(vec)
        if resid <= bound:
            return theta, vec
        reason = f"Ritz pair refused: residual {resid:.2e} above {bound:.2e}"
    raise EigensolverBreakdown(reason)


def _tested_start(problem: SiteProblem, v0, sigma, bound):
    """The nonzero start `v0` at the shift `sigma`, tested before any method
    runs: ``(found, start)``.

    ``theta`` is the Rayleigh quotient of `v0`, from one ``problem.matvec``.
    `found` is ``(theta, v0 / ||v0||)`` when both ``|theta - sigma|`` and
    ``||A v0 - theta v0|| / ||v0||`` are at most `bound`, else None.
    `start` is the vector the methods start from: `v0`, unless `v0` is an
    eigenvector (its residual within the bound) of an eigenvalue away from
    `sigma`. Such a start spans an invariant subspace, from which
    shift-invert and the tethered solve would return its own eigenvalue, so
    `start` adds to it a random vector of its norm, seeded by the dimension.
    """
    norm0 = np.linalg.norm(v0)
    u = v0 / norm0
    au = problem.matvec(u)
    theta = np.vdot(u, au)
    if np.linalg.norm(au - theta * u) > bound:
        return None, v0
    if abs(theta - sigma) <= bound:
        return (theta, u), v0
    rng = np.random.default_rng(problem.dim)
    noise = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
    return None, v0 + noise * (norm0 / np.linalg.norm(noise))


def _nearest_eig(mat, sigma, v0, bound):
    """Eigenpair of `mat` nearest `sigma` by ``np.linalg.eig``; of values within
    `bound` of the nearest (one eigenspace), the one whose vector overlaps `v0` most."""
    values, vectors = np.linalg.eig(mat)
    dist = np.abs(values - sigma)
    near = np.flatnonzero(dist <= dist.min() + bound)
    best = near[np.argmax(np.abs(vectors[:, near].conj().T @ v0))]
    return values[best], vectors[:, best]


def _local_eigensolve(problem: SiteProblem, v0, sigma, tol, dense_cutoff, accept_start=True):
    """Solve the local eigenproblem at the shift `sigma` (the eigenvalue
    nearest it), returning ``(theta, vector, factored)``. Every local solve
    takes this one path: the first decay sweep picks its shift before it
    calls (:func:`_sweep_schedule`).

    A harmonic block above DENSE_LOCAL_HARD_CAP raises
    :class:`EigensolverBreakdown` before anything is built: every method
    factorizes the blocks (:func:`_block_jacobi`). One residual bound
    ``tol ||D||``, ``D`` the harmonic diagonal blocks (Frobenius norm), is
    computed once, and every method and the ``eig`` tie-break
    (:func:`_nearest_eig`) accept at it. No method starts from a zero `v0`,
    so ``eig`` answers it, with one WARNING log. Otherwise the start is
    tested first (:func:`_tested_start`): one that passes is returned,
    normalized, unless `accept_start` is false, and an eigenvector of an
    eigenvalue away from the shift gets a random part added. Then a problem
    up to `dense_cutoff` is densified and solved by :func:`_shift_invert`
    on the LU of ``A - sigma I``. A larger one is not: a sweep's shift is
    (nearly) a local eigenvalue, whose vector :func:`_tethered_solve` finds
    from `v0`. A method refuses (unusable LU, failed inverse, no accepted
    pair) by raising :class:`EigensolverBreakdown` with its reason, and
    this is the one place that catches it for the sweeps (the degeneracy
    check catches its own, :func:`_deflated_check`): the refusal is logged
    at WARNING and falls back, the tethered solve to the dense
    shift-invert, and that to :func:`_nearest_eig`. Above
    DENSE_LOCAL_HARD_CAP a zero start or a refused method raises
    :class:`EigensolverBreakdown` instead.

    `factored` is the factorization that answered, ``(jacobi, sigma,
    tether)`` with ``jacobi`` its block LUs (:func:`_block_jacobi`): the
    dense LU of ``A - sigma I`` with tether None, or the tethered solve's
    last block LUs of ``A - sigma I + u u^H`` with its shift and tether
    ``u`` (:func:`_tethered_solve`); None when ``eig`` answered or the
    start was accepted. The centre solve hands it to the degeneracy check
    by return value, and nothing stores it. Each solve is counted in
    ``problem.engine.local_solves`` under the method that answered it
    (``"converged_start"`` for an accepted start), or under
    ``"dense_fallback"`` after a zero start or a refusal.
    """
    dim = problem.dim
    counts = problem.engine.local_solves
    block = dim // len(problem.engine.harmonics)
    if block > DENSE_LOCAL_HARD_CAP:  # the methods above the cutoff factorize the blocks
        raise EigensolverBreakdown(f"harmonic block of dim {block} above the dense cap, at dim {dim}")
    blocks = problem.diagonal_blocks()
    bound = tol * np.linalg.norm(blocks)
    if not np.linalg.norm(v0) > 0:  # no method starts from a zero vector
        if dim > DENSE_LOCAL_HARD_CAP:
            raise EigensolverBreakdown(f"zero start vector at dim {dim}, above the dense cap")
        logger.warning("zero start vector at dim %d; solving with eig", dim)
        counts["dense_fallback"] += 1
        return (*_nearest_eig(problem.dense_matrix(), sigma, v0, bound), None)
    found, v0 = _tested_start(problem, v0, sigma, bound)
    if found is not None and accept_start:
        counts["converged_start"] += 1
        return (*found, None)
    fallback = False
    if dim > max(dense_cutoff, 2):  # the check's ARPACK run on a tethered inverse needs k = 1 < dim - 1
        try:
            found = _tethered_solve(problem, v0, sigma, blocks, bound)
            counts["tethered"] += 1
            return found
        except EigensolverBreakdown as err:
            if dim > DENSE_LOCAL_HARD_CAP:
                raise EigensolverBreakdown(f"tethered GMRES failed at dim {dim}: {err}") from err
            logger.warning("tethered GMRES failed at dim %d (%s); solving densely", dim, str(err))
        fallback = True
    mat = problem.dense_matrix()
    try:
        lu = _block_jacobi(mat[None], sigma)
        theta, vec = _shift_invert(mat.__matmul__, lu, v0, sigma, bound)
    except EigensolverBreakdown as err:
        logger.warning("shift-invert refused at dim %d (%s); solving with eig", dim, str(err))
        counts["dense_fallback"] += 1
        return (*_nearest_eig(mat, sigma, v0, bound), None)
    counts["dense_fallback" if fallback else "shift_invert"] += 1
    return theta, vec, (lu, sigma, None)


def _local_tol(cfg):
    """Tolerance of the sweeps' local solves (the residual bound of shift-invert
    and the tethered solve, relative to ``||D||``). The degeneracy check
    accepts at DEGENERACY_TOL instead (:func:`_deflated_check`)."""
    return min(cfg.eig_tol * 1e-1, 1e-9)


def _sweep_schedule(mpo, state, cfg, report, target, label):
    """Sweep `state` through the stage ``cfg.warmup`` towards `target`.

    An engine of `mpo` canonicalizes every block of `state` once, at the
    stage's bond dimension with no weight cutoff; the sweeps keep those
    bonds. Single sites are swept until a sweep only moves the gauge: a
    sweep whose every local solve accepted its start (``"converged_start"``)
    would be followed by the same, so it ends the stage; otherwise the stage
    runs ``stage.sweeps`` sweeps. Every solve is at a shift
    (:func:`_local_eigensolve`). For ``"slowest_central"`` the first sweep
    picks its shift at every site it visits: the slowest central value
    (:func:`_slowest_central`) of ``np.linalg.eigvals`` of the dense
    problem, at any size up to DENSE_LOCAL_HARD_CAP (above it, or with no
    central value, it raises :class:`EigensolverBreakdown`), counted under
    ``"dense_eig"``. It picks once per site whose problem is the whole
    space, ``(2 n_c + 1) p^L``. Every bond there is at its exact size, so
    the frames form a unitary ``V`` and the problem ``V^H A V`` has the
    generator's own spectrum on both visits: the second visit (sites
    ``1..L-2`` are visited twice) is solved at the first visit's pick, with
    no second ``eigvals``. Later sweeps track the mode at the sweep before's
    last local eigenvalue (Yu, Pekker, Clark, PRL 118, 017201 (2017)). A
    sweep's residual is the largest distance of its local eigenvalues from
    the shift it solved at (a shift `target`, or the tracked value); the
    first ``"slowest_central"`` sweep, which picks a shift per site,
    measures its spread about its last value. It is logged and stops
    nothing. The stage ends with one solve at the centre site ``L // 2`` at
    the last shift, which never accepts its start. Every local
    solve writes a unit-norm centre vector into orthonormal frames, so the
    state keeps unit norm and its bond dimensions.

    ``report.stage_log`` gains one entry, `label`, with the keys that
    :class:`SolveReport` lists for every stage (its counts are the engine's,
    the centre solve included). The residuals also extend
    ``report.sweep_residuals``. Returns ``(engine, problem, theta,
    factored)``: the engine, which holds the swept state
    (``engine.state()``) with its orthogonality centre at the centre site
    and its environments, the centre solve's problem, its eigenvalue and
    the factorization that answered it (:func:`_local_eigensolve`). The
    centre solve writes with ``direction=None``, which moves no
    environment, so that problem stays valid, with what it assembled, and
    the degeneracy check applies that factorization to it
    (:func:`_deflated_check`). The problem refers to the engine, and the
    engine to neither it nor the factorization, so a caller that drops all
    three frees them together.
    """
    stage = cfg.warmup
    start = time.perf_counter()
    engine = SweepEngine(mpo, state, chi=stage.chi)
    residuals, bonds = [], []
    shift = target
    whole = len(engine.harmonics) * engine.phys**engine.length
    picks = {}  # site: the first sweep's pick there, reused only for whole-space problems

    def solve(problem, direction, accept_start=True):
        sigma = shift
        if isinstance(shift, str):  # the first "slowest_central" sweep picks its shift
            sigma = picks.get(problem.site) if problem.dim == whole else None
            if sigma is None:
                if problem.dim > DENSE_LOCAL_HARD_CAP:
                    raise EigensolverBreakdown(f"slowest central value wanted at dim {problem.dim}, above the dense cap")
                sigma = picks[problem.site] = _slowest_central(np.linalg.eigvals(problem.dense_matrix()), engine)
                engine.local_solves["dense_eig"] += 1
        theta, vec, factored = _local_eigensolve(
            problem, problem.current_vector(), sigma, _local_tol(cfg), cfg.dense_local_cutoff, accept_start=accept_start
        )
        engine.set_site(problem.unpack(vec), direction=direction)
        return complex(theta), factored

    # from the centre at 0: right from 0..L-2, left from L-1..1, so each end
    # site is solved once, 2 (L - 1) in all (one at L = 1), and back at 0
    moves = ["right"] * max(engine.length - 1, 1) + ["left"] * (engine.length - 1)
    for sweep in range(stage.sweeps):
        accepted = engine.local_solves["converged_start"]
        thetas = [solve(engine.site_problem(), direction)[0] for direction in moves]
        idle = engine.local_solves["converged_start"] - accepted == len(moves)
        anchor = thetas[-1] if isinstance(shift, str) else shift
        resid = max(abs(t - anchor) for t in thetas)
        if target == "slowest_central":
            shift = thetas[-1]
        residuals.append(float(resid))
        bonds.append(max(max(s.shape[2:]) for s in engine.sites))
        logger.debug("%s sweep %d: residual %.3e", label, sweep + 1, resid)
        if idle:
            break
    engine.advance_to(engine.length // 2)
    problem = engine.site_problem()
    theta, factored = solve(problem, None, accept_start=False)
    report.stage_log.append(
        {
            "label": label,
            "target": target if isinstance(target, str) else [target.real, target.imag],
            "n_c": stage.n_c,
            "chi": stage.chi,
            "start_discarded_weight": float(engine.start_discarded_weight),
            "seconds": time.perf_counter() - start,
            "sweep_residuals": residuals,
            "max_bond": bonds,
            "local_solves": dict(engine.local_solves),
            "gmres_iterations": engine.gmres_iterations,
        }
    )
    report.sweep_residuals.extend(residuals)
    return engine, problem, theta, factored


def _saturation_warnings(spectra, chi, phys, length):
    """One warning for bonds held at `chi` below their exact size, or none.

    `spectra` lists, per block, the Schmidt values of every bond; bond ``i``
    splits off sites ``0..i`` and has exact size ``min(p^(i+1), p^(L-i-1))``.
    A bond is saturated when it keeps `chi` values below that size and the
    smallest is at least WEIGHT_CUTOFF times the largest: a larger `chi`
    would then keep more weight.
    """
    saturated = sorted(
        {
            i
            for bonds in spectra
            for i, s in enumerate(bonds)
            if len(s) == chi < min(phys ** (i + 1), phys ** (length - i - 1))
            and s[-1] >= WEIGHT_CUTOFF * s[0] > 0
        }
    )
    if not saturated:
        return []
    return [f"bond dimension {chi} saturated below the exact bond at bonds {saturated}; chi may truncate the state"]


def _walk_spectra(sites):
    """Singular values ``[n, k]`` of each bond right of ``sites[0]``, the
    orthogonality centre of site stacks ``[n, p, l, r]`` whose later sites
    are right-orthonormal: one batched SVD of the centre per bond, whose
    ``s vh`` then moves the centre into the next site."""
    out, centre = [], sites[0]
    for site in sites[1:]:
        _, s, vh = np.linalg.svd(centre.reshape(len(centre), -1, centre.shape[-1]), full_matrices=False)
        out.append(s)
        centre = (s[:, :, None] * vh)[:, None] @ site  # [n, p', k, r']
    return out


def _schmidt_spectra(engine, chi, scale):
    """Schmidt values of every bond of every block of the engine's state,
    times `scale`, as :func:`~floquet_ness.freqspace.compress` at bond `chi`
    and WEIGHT_CUTOFF reports them: ``{n: [bond 0, ..., bond L-2]}``.

    The site stacks are already in mixed-canonical gauge about
    ``engine.center``, so no block is canonicalized again:
    :func:`_walk_spectra` walks out from the centre to the right, and on
    the mirrored stacks to the left, and each block's values are cut by the
    truncation rule of :func:`~floquet_ness.tensors.truncated_svd`.
    """
    mirrored = [site.swapaxes(2, 3) for site in engine.sites[engine.center :: -1]]
    bonds = [scale * s for s in _walk_spectra(mirrored)[::-1] + _walk_spectra(engine.sites[engine.center :])]
    spec = TruncationSpec(max_rank=chi, weight_cutoff=WEIGHT_CUTOFF)
    return {n: [s[h, : _kept(s[h], spec)] for s in bonds] for h, n in enumerate(engine.harmonics)}


def _finish_report(report, cfg, modes, eigenvalue):
    """Fill in what every solve reports, from ``report.stage_log`` and the
    solve's `modes` ``[(mpo, state, theta, spectra), ...]``, the described
    mode first, each with its :func:`_schmidt_spectra`.

    `final_residual` is the largest last sweep residual of the stages, and
    `converged` holds when it is at most ``cfg.eig_tol``; each stage above it
    adds a warning under its label. `eigenvalue` is reported as given.
    `schmidt_spectra` (the 16 largest values of every bond) and
    `block_norm_profile` (:func:`~floquet_ness.freqspace.block_norms`)
    describe the first mode; :func:`_saturation_warnings` covers the bonds of
    every mode, and `fixed_point_residual` is the largest
    :func:`_eigen_residual` of a mode at its `theta`.
    """
    last = {entry["label"]: entry["sweep_residuals"][-1] for entry in report.stage_log}
    report.warnings.extend(
        f"{label}: last sweep residual {resid:.2e} above eig_tol {cfg.eig_tol:.1e}"
        for label, resid in last.items()
        if resid > cfg.eig_tol
    )
    report.final_residual = max(last.values())
    report.converged = report.final_residual <= cfg.eig_tol
    report.eigenvalue = eigenvalue
    _, first, _, spectra = modes[0]
    report.schmidt_spectra = {n: [list(map(float, s[:16])) for s in bonds] for n, bonds in spectra.items()}
    report.block_norm_profile = block_norms(first)
    bonds = [b for *_, spectra in modes for b in spectra.values()]
    report.warnings.extend(_saturation_warnings(bonds, cfg.warmup.chi, first.phys_dim, first.chain_length))
    report.fixed_point_residual = max(_eigen_residual(mpo, state, theta) for mpo, state, theta, _ in modes)


def _deflated_check(problem, factored, rng):
    """Eigenvalue nearest zero of the centre solve's `problem` with the engine's state projected out.

    `problem` is the last solve of the stage that converged the state
    (:func:`_sweep_schedule`), at the centre site ``L // 2``, whose write
    moved no environment, so it is still valid; the state's local image in
    the orthonormal frames is the unit centre vector ``x0``, and ``A x0 =
    theta0 x0`` within the sweeps' tolerance. `factored` is that solve's
    ``(jacobi, sigma, tether)`` (:func:`_local_eigensolve`): the check
    applies its LUs and factors nothing. It works on range(P) of the spectral
    projector ``P = I - x0 w0^H / (w0^H x0)`` (Saad, *Numerical Methods for
    Large Eigenvalue Problems*, SIAM 2011, section 4.2). Since ``P x0 = 0``,
    ``P A`` and ``P (A - sigma I)^-1 P`` carry exactly the other
    eigenvalues of ``A`` there, with nothing moved, so what remains nearest
    zero is the runner-up of the centre problem:

    - on the dense LU of ``A - sigma I`` (no tether), ``w0 = (A - sigma
      I)^-H x0``, one adjoint solve on that LU, approximates the left
      eigenvector, so every Krylov vector stays clear of the LU's near-zero
      pivot along ``x0``; :func:`_shift_invert` runs on ``P A`` with the
      inverse ``P (A - sigma I)^-1 P``;
    - on the tethered LUs of ``A - sigma I + u u^H``, whose inverse is not
      singular along ``x0``, ``w0 = x0`` (the orthogonal projector), and
      ARPACK (:func:`_arnoldi`) runs on the projected inverse, by GMRES
      (:func:`_shifted_inverse`) at the check's bound when there are
      several harmonic blocks.

    Both start from ``P v0``, ``v0`` a random vector drawn from `rng`, and
    are counted in the engine's `local_solves` (``"shift_invert"``,
    ``"arnoldi"``) like the sweeps' solves, and every application of the
    projected inverse (not the adjoint solve) in its `inverse_solves`.
    The check's only decision is ``|theta| < DEGENERACY_TOL``, so it accepts
    at ``DEGENERACY_TOL ||D||``, ``D`` the centre problem's harmonic
    diagonal blocks, not at the sweeps' :func:`_local_tol`. When `factored`
    is None (``eig`` answered the centre solve) or the method refuses, one
    WARNING is logged and ``np.linalg.eig`` of the centre problem answers,
    without the eigenvector that overlaps ``x0`` most, counted under
    ``"dense_fallback"``; above DENSE_LOCAL_HARD_CAP it raises
    :class:`EigensolverBreakdown` instead.

    Returns ``(theta, residual)``, ``residual`` the true residual ``||P A v
    - theta v||`` of the projected operator at the returned unit vector
    ``v`` (``||A v - theta v||`` for ``eig``): `theta` is an exact
    eigenvalue of a problem within this distance of it in norm; raises
    :class:`DegenerateSteadyStateError` when ``|theta| < DEGENERACY_TOL``.
    """
    dim, engine = problem.dim, problem.engine
    x0 = problem.current_vector()
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    bound = DEGENERACY_TOL * np.linalg.norm(problem.diagonal_blocks())
    try:
        if factored is None:
            raise EigensolverBreakdown("no centre factorization to apply")
        jacobi, sigma, tether = factored
        if tether is None:  # the dense LU, its own inverse: one adjoint solve gives w0
            method, solve, inverse, apply = "shift_invert", _shift_invert, jacobi, problem.dense_matrix().__matmul__
            w0 = jacobi(x0, 2)
        else:  # the tethered LUs, whose inverse is regular along x0: the orthogonal projector
            method, solve, apply, w0 = "arnoldi", _arnoldi, problem.matvec, x0
            inverse = _shifted_inverse(problem, jacobi, sigma, bound, tether)
        w0 = w0 / np.conj(np.vdot(w0, x0))  # w0^H x0 = 1

        def project(x):
            return x - x0 * np.vdot(w0, x)

        def matvec(x):
            return project(apply(x))

        def projected_inverse(x):
            engine.inverse_solves += 1
            return project(inverse(project(x)))

        theta, vec = solve(matvec, projected_inverse, project(v0), sigma, bound)
        engine.local_solves[method] += 1
    except EigensolverBreakdown as err:
        if dim > DENSE_LOCAL_HARD_CAP:
            raise EigensolverBreakdown(f"degeneracy check failed at dim {dim}: {err}") from err
        logger.warning("degeneracy check refused at dim %d (%s); solving with eig", dim, str(err))
        engine.local_solves["dense_fallback"] += 1
        values, vectors = np.linalg.eig(problem.dense_matrix())
        values[np.argmax(np.abs(vectors.conj().T @ x0))] = np.inf  # drop the state's own value
        best = np.argmin(np.abs(values))
        theta, vec, matvec = values[best], vectors[:, best], problem.dense_matrix().__matmul__
    vec = vec / np.linalg.norm(vec)
    residual = np.linalg.norm(matvec(vec) - theta * vec)
    if abs(theta) < DEGENERACY_TOL:
        message = f"projected centre-site eigenvalue {theta:.2e} is near zero; steady space looks degenerate"
        raise DegenerateSteadyStateError(message)
    return theta, float(residual)


def solve_ness(model: ModelSpec, cfg: SweepConfig):
    """Sweep the frequency-space zero mode of the model's generator.

    Builds the generator MPO once, at the cutoff of ``cfg.warmup``, and
    sweeps :func:`initial_guess`, with its noise at the stage's bond
    dimension, on the bare generator (`stage_log` label ``"ness"``),
    targeting the local eigenvalue nearest zero. Returns the
    trace-normalized state with a :class:`SolveReport`. An
    :class:`EigensolverBreakdown` of a local solve propagates. After the
    sweeps, the state is taken from the sweep engine, and
    :func:`_deflated_check` projects it out of the centre solve's problem,
    applying that solve's factorization; it raises
    :class:`DegenerateSteadyStateError` when the steady state is degenerate;
    the check accepts its eigenvalue at DEGENERACY_TOL, and the `stage_log`
    entry records its ``"degeneracy_gap"`` and ``"degeneracy_residual"``,
    counts its solve, its time and its GMRES iterations, and records under
    ``"degeneracy_inverse_solves"`` how often it applied the centre
    factorization as its projected inverse, on the dense path its Arnoldi
    steps and polishing step (:class:`SolveReport` lists every key). :func:`_finish_report` describes the
    normalized state at ``theta = 0``, with the centre solve's eigenvalue;
    only a steady state adds its trace and Hermiticity defects per harmonic
    and warns about weight in the edge harmonic and Hermiticity defects.
    """
    cfg.validate()
    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    report = SolveReport()
    stage = cfg.warmup
    n_c = stage.n_c
    mpo = build_extended_lindbladian(model, n_c)  # validates the model
    state = initial_guess(
        model.chain_length,
        model.site_dim,
        n_c,
        model.omega,
        noise_amplitude=cfg.noise_amplitude,
        seed=cfg.seed,
        noise_bond=stage.chi,
    )
    engine, problem, final_theta, factored = _sweep_schedule(mpo, state, cfg, report, 0.0, "ness")
    state = engine.state()
    check_start = time.perf_counter()
    theta, residual = _deflated_check(problem, factored, rng)
    production = report.stage_log[-1]
    production["seconds"] += time.perf_counter() - check_start
    production["degeneracy_gap"] = float(abs(theta))
    production["degeneracy_residual"] = residual
    # the engine's counters, the check's solve and inner GMRES iterations included
    production["local_solves"] = dict(engine.local_solves)
    production["gmres_iterations"] = engine.gmres_iterations
    production["degeneracy_inverse_solves"] = engine.inverse_solves
    # exact trace normalization (fixes the overall phase as well)
    t0 = state.block_trace(0)
    if abs(t0) < 1e-12:
        raise SolverError("converged state carries no trace in the static block")
    state = state.scaled(1.0 / t0)
    _finish_report(report, cfg, [(mpo, state, 0.0, _schmidt_spectra(engine, stage.chi, 1.0 / abs(t0)))], final_theta)
    report.trace_defects = {n: abs(t - (1.0 if n == 0 else 0.0)) for n, t in trace_components(state).items()}
    report.hermiticity_defects = hermiticity_defect(state)
    edge = report.block_norm_profile[n_c] / (report.block_norm_profile[0] or 1.0)
    if edge > CONVERGENCE_TOL:
        report.warnings.append(f"edge harmonic weight {edge:.2e} above tolerance {CONVERGENCE_TOL:.1e}; cutoff too small")
    worst_defect = max(report.hermiticity_defects.values())
    if worst_defect > CONVERGENCE_TOL:
        report.warnings.append(f"hermiticity defect {worst_defect:.2e} above tolerance {CONVERGENCE_TOL:.1e}")
    report.wall_time = time.perf_counter() - start
    return state, report


@dataclass
class DecayModeResult:
    """Slowest decaying mode and its bi-orthogonal partner, as swept (unit-norm
    `right`, ``<<left|right>> = 1``). The overlaps ``|Tr right^0|`` and
    ``|<<left|ness>>|`` measure the solve: an exact pair has both zero."""

    eigenvalue: complex
    right: FloquetDensityMatrix
    left: FloquetDensityMatrix
    tau_relax: float
    conjugate_pair: bool
    identity_overlap: float
    steady_overlap: float
    report: SolveReport


def _trace_penalized(mpo, strength):
    """`mpo` plus ``-strength |I><I| / <I|I>`` in every harmonic block.

    ``|I>`` is the vectorized identity of the chain, a product state, so the
    term is a bond-1 product operator; it acts within each block, so it joins
    the ``q = 0`` transfer component as a direct sum, whose bond grows by one.
    """
    eye = vectorize_choi(np.eye(mpo.site_dim, dtype=complex))
    projector = np.outer(eye, eye.conj())[None, :, :, None] / mpo.site_dim  # <I|I> = d per site
    penalty = Mpo([-strength * projector] + [projector] * (mpo.chain_length - 1))
    components = {**mpo.components, 0: mpo.components[0].add(penalty)}
    return FloquetMPO(components, mpo.omega, mpo.diag_sign)


def _eigen_residual(mpo, vec, theta):
    """True residual ``||(mpo - theta) vec|| / ||vec||``, streamed block by block.

    Output block ``n`` sums ``W_q x_(n-q)`` over the transfers ``q`` with
    ``|n - q| <= cutoff`` and ``(c_n - theta) x_n``, with ``c_n`` the ramp
    coefficient (dropped when zero);
    :func:`~floquet_ness.mps.product_sum_norm` takes its norm without
    building the products. Its tests compare it with the dense generator.
    """
    norms = []
    for n in vec.harmonics:
        terms = [(w, vec.blocks[n - q]) for q, w in mpo.components.items() if abs(n - q) <= vec.cutoff]
        coeff = mpo.diagonal_coefficient(n) - theta
        if coeff != 0:
            terms.append((None, vec.blocks[n].scaled(coeff)))
        norms.append(product_sum_norm(terms))
    return float(np.linalg.norm(norms)) / max(vec.norm(), 1e-300)


def solve_first_decay_mode(model: ModelSpec, ness: FloquetDensityMatrix, cfg: SweepConfig):
    """Slowest decaying mode ``lambda`` and its left partner.

    The frequency-space kernel is degenerate: shifting the steady state by
    ``s`` harmonics gives an eigenvector at ``-i s omega``, all with vanishing
    real part. The right solve therefore sweeps a penalized generator: its
    ``q = 0`` transfer component gains, as a direct sum, the bond-1 product
    operator ``-w |I><I| / <I|I>`` (``|I>`` the vectorized identity, so the
    trace content of every harmonic block is penalized alike), of strength
    ``w = 10 max(1, s)`` with ``s`` the largest sum of squared spectral
    norms of one jump operator's Fourier components. That moves all kernel
    copies at once while leaving genuine decay modes alone, and the solve
    targets ``"slowest_central"`` from random blocks at the stage's bond
    dimension: its first sweep picks each site's shift, the slowest central
    value of its dense eigenvalues, and solves at it like any shift
    (:func:`_local_eigensolve`); a second visit of a site whose problem is
    the whole space, which has the same spectrum, reuses its first pick
    (:func:`_sweep_schedule`). The left partner is the
    eigenvector of the bare adjoint generator at ``conj(lambda)``, solved at
    that shift from the right mode.
    `ness` must be the model's steady state at the stage's cutoff: a chain
    length, site dimension, ``omega`` or cutoff that differs from the
    model's raises ``ValueError`` before any sweep.
    Both solves sweep the stage of ``cfg.warmup`` (`stage_log` labels
    ``"decay right"`` and ``"decay left"``).

    The exact modes need no repair, so none is made. Every Fourier component
    of the generator preserves the trace, so ``<I_n|`` (the identity in block
    ``n``) is a left eigenvector of the penalized generator at
    ``-i n omega - w``, and every other right eigenvector is traceless in
    every block; and ``lambda <<left|ness>> = <<left|L ness>> = 0``. The
    modes are returned as swept, only the left one rescaled to
    ``<<left|right>> = 1``, so the overlaps measure the solve: the report
    warns when either exceeds 1e-6, the steady-state one only for a
    ``lambda`` that is not zero within the converged solve's
    ``fixed_point_residual``: a zero ``lambda``, a mode of a degenerate
    kernel, leaves ``<<left|ness>>`` free, and the report warns instead
    that it is such a mode, which does not decay (``solve_ness`` raises
    :class:`DegenerateSteadyStateError` on the same model). Above cutoff 0,
    ``lambda`` is the central copy of its quasi-energy. A model without jump
    operators has ``w = 10``, and its modes lie on the imaginary axis up to
    roundoff. So when the
    solve converged and the rate ``-Re lambda`` is within the report's
    ``fixed_point_residual``, the rate is roundoff and ``tau_relax`` is
    infinite. Before convergence that residual bounds nothing about
    ``Re lambda`` (the generator is not normal), so ``tau_relax`` stays
    ``-1 / Re lambda`` for any ``Re lambda < 0``, next to the report's
    unconverged warning.

    :func:`_finish_report` describes the right mode at ``lambda``, with the
    left one at ``conj(lambda)`` in the residuals and saturation warnings
    (the left solve's last sweep residual bounds ``|theta_left -
    conj(lambda)|``); each `stage_log` entry records its ``"target"``.
    ``trace_defects`` and ``hermiticity_defects`` stay empty, since a decay
    mode is traceless (the identity overlap measures that) and need not be
    Hermitian.
    """
    cfg.validate()
    start = time.perf_counter()
    scales = [sum(np.linalg.norm(op.matrix, ord=2) ** 2 for op in ops.values()) for ops in model.jump_fourier.values()]
    w = 10.0 * max([1.0, *scales])
    report = SolveReport()
    stage = cfg.warmup
    n_c = stage.n_c
    mpo = build_extended_lindbladian(model, n_c)  # validates the model
    found = (ness.chain_length, ness.site_dim, ness.omega, ness.cutoff)
    wanted = (model.chain_length, model.site_dim, model.omega, n_c)
    if found != wanted:
        raise ValueError(
            f"ness has (chain_length, site_dim, omega, n_c) {found}, "
            f"but the model at the stage's cutoff has {wanted}"
        )
    rng = np.random.default_rng(cfg.seed + 1)
    blocks = {n: Mps.random(model.chain_length, model.site_dim**2, stage.chi, rng) for n in range(-n_c, n_c + 1)}
    seed = FloquetDensityMatrix(blocks, model.omega, n_c)
    engine, problem, lam, factored = _sweep_schedule(
        _trace_penalized(mpo, w), seed, cfg, report, "slowest_central", "decay right"
    )
    if lam.real > 1e-6:
        raise SolverError(f"decay eigenvalue has positive real part: {lam}")
    right, right_spectra = engine.state(), _schmidt_spectra(engine, stage.chi, 1.0)
    del engine, problem, factored  # and the operator and factorization of its centre solve

    adjoint = mpo.adjoint()  # the left solve starts from the right mode, its pair
    engine, *_ = _sweep_schedule(adjoint, right, cfg, report, lam.conjugate(), "decay left")
    left = engine.state()
    pairing = left.inner(right)
    if abs(pairing) < 1e-9 * max(left.norm() * right.norm(), 1e-300):
        raise SolverError("left and right modes are numerically orthogonal")
    left = left.scaled(1.0 / np.conj(pairing))
    left_spectra = _schmidt_spectra(engine, stage.chi, 1.0 / abs(pairing))

    _finish_report(report, cfg, [(mpo, right, lam, right_spectra), (adjoint, left, lam.conjugate(), left_spectra)], lam)
    ident_overlap, steady_overlap = abs(right.block_trace(0)), abs(left.inner(ness))
    if ident_overlap > 1e-6:
        report.warnings.append(
            f"identity overlap {ident_overlap:.2e} above 1e-6; w too small, or chi unconverged or binding"
        )
    if report.converged and abs(lam) <= report.fixed_point_residual:
        report.warnings.append(
            f"decay eigenvalue {lam:.2e} is 0 within its residual: a mode of a degenerate kernel, which does not decay"
        )
    elif steady_overlap > 1e-6:
        report.warnings.append(f"steady-state overlap {steady_overlap:.2e} above 1e-6; chi unconverged or binding")
    pair = abs(lam.imag) > 1e-8 * max(1.0, abs(lam.real))
    report.wall_time = time.perf_counter() - start
    roundoff = report.converged and -lam.real <= report.fixed_point_residual
    tau = -1.0 / lam.real if lam.real < 0 and not roundoff else np.inf
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
    eigenvalue the complex-conjugate mode is implied and the real combination
    is returned.
    """
    from .observables import ObservableSeries, expectation_series

    if isinstance(rho_initial, FloquetDensityMatrix):
        init_blocks = list(rho_initial.blocks.values())
    else:
        vecs = [np.asarray(m, dtype=complex).reshape(-1) for m in rho_initial]
        init_blocks = [Mps.from_product(vecs)]
    # physical (t = 0) pairing: sum over all harmonics on both sides
    left = decay.left.blocks.values()
    coeff_num = sum(a.inner(b) for a in left for b in init_blocks)
    coeff_den = sum(a.inner(b) for a in left for b in decay.right.blocks.values())
    if abs(coeff_den) < 1e-12:
        raise SolverError("collapsed bi-orthogonal pairing vanished")
    coeff = coeff_num / coeff_den

    times = np.asarray(times, dtype=float)
    base = expectation_series(ness, observable, times)
    mode = expectation_series(decay.right, observable, times, hermitize=False)
    lam = decay.eigenvalue
    envelope = np.exp(lam * times)
    contrib = envelope * coeff * mode.complex_values
    values = base.values + (2.0 if decay.conjugate_pair else 1.0) * np.real(contrib)
    return ObservableSeries(
        times=times,
        values=values,
        label=f"{base.label} (transient)",
        period=base.period,
        max_imag=base.max_imag,
    )
