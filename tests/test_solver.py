import functools
import gc
import json
import logging
import types
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import ArpackNoConvergence

from floquet_ness.freqspace import FloquetDensityMatrix, block_norms, compress, initial_guess, trace_components
from floquet_ness.liouvillian import (
    ModelSpec,
    build_extended_lindbladian,
    dense_extended_lindbladian,
    extended_null_vector,
)
from floquet_ness.mps import Mps
from floquet_ness.models import DTCParams, IsingBenchmarkParams, build_driven_ising, build_dtc_model
from floquet_ness import solver
from floquet_ness.solver import (
    DegenerateSteadyStateError,
    EigensolverBreakdown,
    StaleEnvironmentError,
    SweepConfig,
    SweepEngine,
    SweepStage,
    make_warmup_schedule,
    solve_first_decay_mode,
    solve_ness,
    transient_observable,
)
from floquet_ness.superops import PAULI, LocalOperator
from floquet_ness.tensors import TruncationSpec
from test_liouvillian import single_qubit_model as damped_qubit, small_driven_model, time_dependent_jump_model

SM = np.array([[0, 1], [0, 0]], dtype=complex)


def single_qubit_model(gamma=1.0, omega_z=0.0, drive=5.0):
    ham = {0: [LocalOperator(0, omega_z * PAULI["Z"] / 2)]} if omega_z else {}
    return ModelSpec(
        1, drive, ham, {"d": {0: LocalOperator(0, np.sqrt(gamma) * SM)}}
    ).validate()


def quick_config(n_c, chi, **kwargs):
    defaults = dict(
        warmup=make_warmup_schedule(n_c, chi, warm_sweeps=2, final_sweeps=6),
        eig_tol=1e-10,
        noise_amplitude=1e-4,
        seed=11,
    )
    defaults.update(kwargs)
    return SweepConfig(**defaults)


def densify_problem(problem):
    return problem.dense_matrix()


def test_local_operator_single_site_equals_dense():
    model = single_qubit_model(gamma=0.7, omega_z=1.1, drive=4.0)
    n_c = 1
    mpo = build_extended_lindbladian(model, n_c)
    state = initial_guess(1, 2, n_c, model.omega, noise_amplitude=1e-2, seed=3)
    engine = SweepEngine(mpo, state)
    problem = engine.site_problem()
    local = densify_problem(problem)
    dense = dense_extended_lindbladian(model, n_c)
    assert np.max(np.abs(local - dense)) < 1e-10


def driven_three_site_model():
    h1 = [
        LocalOperator(0, 0.3 * PAULI["X"]),
        LocalOperator(1, 0.2j * PAULI["Y"]),
        LocalOperator(2, 0.1 * PAULI["Z"]),
    ]
    hm1 = [LocalOperator(t.start, t.matrix.conj().T) for t in h1]
    zz = np.kron(PAULI["Z"], PAULI["Z"])
    return ModelSpec(
        3,
        3.0,
        {0: [LocalOperator(0, zz), LocalOperator(1, 0.5 * zz)], 1: h1, -1: hm1},
        {
            "a": {0: LocalOperator(0, np.sqrt(0.5) * np.kron(SM, PAULI["I"]))},
            "b": {0: LocalOperator(2, 0.3 * SM)},
        },
    ).validate()


def frame_map(engine, problem):
    """Dense map from local coordinates to the frequency-stacked space.

    Column j is the state whose active site tensor is the j-th local basis
    tensor and whose other sites are the engine's frames.
    """
    site = problem.site
    d = engine.phys**engine.length
    nh = len(engine.harmonics)
    columns = []
    for h in range(nh):
        for idx in np.ndindex(problem.shape):
            basis = np.zeros(problem.shape, dtype=complex)
            basis[idx] = 1.0
            tensors = [s[h] for s in engine.sites[:site]] + [basis] + [s[h] for s in engine.sites[site + 1 :]]
            column = np.zeros(nh * d, dtype=complex)
            column[h * d : (h + 1) * d] = Mps(tensors).to_dense()
            columns.append(column)
    return np.array(columns).T


def identity_projectors(length, harmonics):
    """Dense ``sum_n |I_n><I_n|`` over the harmonic blocks of a stacked vector."""
    eye = functools.reduce(np.kron, [np.eye(2, dtype=complex).reshape(-1)] * length)
    return np.kron(np.eye(harmonics), np.outer(eye, eye.conj()))


@pytest.mark.parametrize("terms", ["none", "uncoupled", "deflated"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["one-forward", "one-adjoint"])  # one-site problems
def test_local_operator_matches_dense_projection(adjoint, terms):
    # the local matrix at every site equals Phi^dag A Phi, Phi mapping local
    # coordinates to the full space through the frames, with A the generator
    # L, the decay solve's penalized L + c sum_n |I_n><I_n| (one identity
    # projector per harmonic, in the q = 0 MPO component), or for the
    # deflated problem L - s |rho><rho| / ||rho||^2 with rho the engine's
    # state
    model = driven_three_site_model()
    n_c, length = 1, 3
    rng = np.random.default_rng(5)
    blocks = {n: Mps.random(length, 4, 3, rng, norm=1.0) for n in (-1, 0, 1)}
    state = FloquetDensityMatrix(blocks, model.omega, n_c)
    mpo = build_extended_lindbladian(model, n_c)
    dense = dense_extended_lindbladian(model, n_c)
    if adjoint:
        mpo, dense = mpo.adjoint(), dense.conj().T
    stacked = np.concatenate([state.blocks[n].to_dense() for n in (-1, 0, 1)])
    deflation = 0.0
    if terms == "uncoupled":
        mpo = solver._trace_penalized(mpo, 3.0)
        dense = dense - 3.0 / 2**length * identity_projectors(length, 3)
    elif terms == "deflated":
        deflation = solver.DEFLATION_SHIFT
        dense = dense - deflation * np.outer(stacked, stacked.conj()) / np.vdot(stacked, stacked).real
    for site in range(length):
        engine = SweepEngine(mpo, state)
        engine.advance_to(site)
        problem = engine.site_problem()
        if deflation:
            problem.deflate(deflation)
        local = problem.dense_matrix()
        phi = frame_map(engine, problem)
        assert np.max(np.abs(phi.conj().T @ dense @ phi - local)) < 1e-10
        x = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
        assert np.max(np.abs(problem.matvec(x) - local @ x)) < 1e-12
        assert np.max(np.abs(phi @ problem.current_vector() - stacked)) < 1e-12


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # DTC harmonics exceed n_c = 1
@pytest.mark.parametrize("terms", ["bare", "projectors", "deflated"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["one-forward", "one-adjoint"])  # one-site problems
def test_dense_matrix_assembles_matvec_without_calling_it(adjoint, terms, monkeypatch):
    # DTC at n_c = 1 keeps 5 transfer components (q = -2..2), so pairs (q, n)
    # with |n - q| > n_c are dead; the decay solve's identity projectors
    # widen the q = 0 component, and the degeneracy check's deflation adds a
    # low-rank update
    model = build_dtc_model(DTCParams(chain_length=3), n_c=1)
    n_c, length = 1, 3
    mpo = build_extended_lindbladian(model, n_c)
    assert sorted(q for q in mpo.components if abs(q) <= 2 * n_c) == [-2, -1, 0, 1, 2]
    if adjoint:
        mpo = mpo.adjoint()
    if terms == "projectors":
        mpo = solver._trace_penalized(mpo, 2.5 * 2**length)
    deflation = solver.DEFLATION_SHIFT if terms == "deflated" else 0.0
    rng = np.random.default_rng(8)
    blocks = {n: Mps.random(length, 4, 4, rng, norm=1.0) for n in (-1, 0, 1)}
    state = FloquetDensityMatrix(blocks, model.omega, n_c)
    for site in range(length):
        engine = SweepEngine(mpo, state)
        engine.advance_to(site)
        problem = engine.site_problem()
        if deflation:
            problem.deflate(deflation)
        columns = problem.matvec(np.eye(problem.dim))

        def refuse(_):
            raise AssertionError("dense_matrix called matvec")

        monkeypatch.setattr(problem, "matvec", refuse)
        local = problem.dense_matrix()
        assert local.shape == (problem.dim, problem.dim)
        assert np.max(np.abs(local - columns)) <= 1e-13 * np.max(np.abs(columns))
        # the tethered solve's preconditioner takes the harmonic diagonal
        # blocks from the q = 0 pairs alone
        nh = len(engine.harmonics)
        m = problem.dim // nh
        diagonal = np.array([columns[h * m : (h + 1) * m, h * m : (h + 1) * m] for h in range(nh)])
        assert np.max(np.abs(problem.diagonal_blocks() - diagonal)) <= 1e-13 * np.max(np.abs(columns))


def test_engine_refuses_blocks_of_different_bonds():
    # the engine stacks the site tensors of all harmonic blocks, so they must
    # share their bonds; a solve canonicalizes its start at one bond
    model = driven_three_site_model()
    mpo = build_extended_lindbladian(model, 1)
    rng = np.random.default_rng(5)
    blocks = {n: Mps.random(3, 4, chi, rng, norm=1.0) for n, chi in ((-1, 1), (0, 3), (1, 2))}
    state = FloquetDensityMatrix(blocks, model.omega, 1)
    with pytest.raises(ValueError, match=r"share their bonds.*-1: \[1, 1\], 0: \[3, 3\], 1: \[2, 2\]"):
        SweepEngine(mpo, state)
    blocks = {n: Mps.random(3, 4, 2, rng, norm=1.0) for n in (-1, 0, 1)}
    engine = SweepEngine(mpo, FloquetDensityMatrix(blocks, model.omega, 1))
    assert [s.shape for s in engine.sites] == [(3, 4, 1, 2), (3, 4, 2, 2), (3, 4, 2, 1)]
    # an exactly zero block has no bonds of its own: it is not refused, but
    # takes orthonormal frames at the shared bonds and stays zero
    blocks[1] = Mps.zeros(3, 4)
    engine = SweepEngine(mpo, FloquetDensityMatrix(blocks, model.omega, 1))
    assert [s.shape for s in engine.sites] == [(3, 4, 1, 2), (3, 4, 2, 2), (3, 4, 2, 1)]
    assert engine.state().blocks[1].norm() == 0.0
    phi = frame_map(engine, engine.site_problem())
    assert np.max(np.abs(phi.conj().T @ phi - np.eye(phi.shape[1]))) < 1e-12


def test_engine_canonicalizes_each_block_once(monkeypatch):
    # a solve's engine canonicalizes every block once, at the stage's bond,
    # and reports the weight that dropped, summed over blocks and bonds
    model = driven_three_site_model()
    mpo = build_extended_lindbladian(model, 1)
    rng = np.random.default_rng(5)
    blocks = {n: Mps.random(3, 4, 4, rng, norm=1.0) for n in (-1, 0, 1)}
    state = FloquetDensityMatrix(blocks, model.omega, 1)
    dropped = sum(b.canonicalize(TruncationSpec(max_rank=2))[1].total_discarded for b in blocks.values())
    calls = []
    original = Mps.canonicalize

    def counts(self, spec=None):
        calls.append(spec)
        return original(self, spec)

    monkeypatch.setattr(Mps, "canonicalize", counts)
    engine = SweepEngine(mpo, state, chi=2)
    assert calls == [TruncationSpec(max_rank=2)] * 3
    assert engine.start_discarded_weight == dropped > 0
    assert [s.shape for s in engine.sites] == [(3, 4, 1, 2), (3, 4, 2, 2), (3, 4, 2, 1)]


def test_stale_problem_rejected():
    # a problem's environments change only when the centre moves: a write at
    # the centre (direction None, or a move off the chain's end) leaves the
    # problem valid, reading the written stack, and a move makes it stale,
    # what it already assembled included
    model = driven_three_site_model()
    rng = np.random.default_rng(5)
    blocks = {n: Mps.random(3, 4, 3, rng, norm=1.0) for n in (-1, 0, 1)}
    engine = SweepEngine(build_extended_lindbladian(model, 1), FloquetDensityMatrix(blocks, model.omega, 1))
    engine.advance_to(2)
    problem = engine.site_problem()
    x = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
    expected = problem.matvec(x)
    problem.dense_matrix(), problem.diagonal_blocks()
    for direction in (None, "right"):
        stack = problem.unpack(rng.standard_normal(problem.dim) + 0j)
        engine.set_site(stack, direction=direction)
        assert engine.center == 2 and np.array_equal(problem.current_vector(), stack.reshape(-1))
        assert np.array_equal(problem.matvec(x), expected)
    engine.set_site(None, direction="left")
    assert engine.center == 1
    for use in (lambda: problem.matvec(x), problem.dense_matrix, problem.diagonal_blocks):
        with pytest.raises(StaleEnvironmentError):
            use()


def test_a_problem_is_deflated_once():
    # deflate adds the rank-one term to what the problem already assembled,
    # bit for bit what a problem deflated before assembling builds, and
    # refuses a second call
    model = driven_three_site_model()
    rng = np.random.default_rng(5)
    blocks = {n: Mps.random(3, 4, 3, rng, norm=1.0) for n in (-1, 0, 1)}
    engine = SweepEngine(build_extended_lindbladian(model, 1), FloquetDensityMatrix(blocks, model.omega, 1))
    engine.advance_to(1)
    assembled, early = engine.site_problem(), engine.site_problem()
    undeflated = assembled.dense_matrix().copy()
    assembled.diagonal_blocks()
    for problem in (assembled, early):
        problem.deflate(solver.DEFLATION_SHIFT)
    assert np.array_equal(assembled.dense_matrix(), early.dense_matrix())
    assert np.array_equal(assembled.diagonal_blocks(), early.diagonal_blocks())
    x0 = assembled.current_vector()
    rank_one = solver.DEFLATION_SHIFT * np.outer(x0, x0.conj()) / np.vdot(x0, x0).real
    assert np.max(np.abs(undeflated - rank_one - assembled.dense_matrix())) < 1e-12
    with pytest.raises(ValueError, match="already deflated"):
        assembled.deflate(solver.DEFLATION_SHIFT)


def test_solve_ness_amplitude_damping():
    model = single_qubit_model(gamma=0.8)
    cfg = quick_config(0, 4)
    state, report = solve_ness(model, cfg)
    rho = state.to_dense_blocks()[0]
    assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) < 1e-8
    assert report.converged
    assert report.final_residual <= cfg.eig_tol


def test_solve_ness_static_drive_localizes_in_zero_block():
    model = single_qubit_model(gamma=0.6, omega_z=0.9)
    cfg = quick_config(2, 4)
    state, report = solve_ness(model, cfg)
    norms = block_norms(state)
    for n in (-2, -1, 1, 2):
        assert norms[n] <= 1e-6


def test_solve_ness_driven_ising_l3_matches_dense():
    p = IsingBenchmarkParams(chain_length=3, omega=5.0)
    model = build_driven_ising(p)
    n_c = 3
    cfg = quick_config(n_c, 16, noise_amplitude=1e-5)
    state, report = solve_ness(model, cfg)
    assert report.converged
    exact = extended_null_vector(model, n_c)
    got = state.to_dense_blocks()
    for n in range(-n_c, n_c + 1):
        assert np.max(np.abs(got[n] - exact[n])) < 1e-7
    # constraint suite
    traces = trace_components(state)
    assert abs(traces[0] - 1.0) < 1e-12
    for n in range(1, n_c + 1):
        assert abs(traces[n]) < 1e-8
        assert abs(traces[-n]) < 1e-8
    assert report.fixed_point_residual < 1e-7


def ising_l4():
    return build_driven_ising(IsingBenchmarkParams(chain_length=4, omega=5.0))


def block_error(state, model, n_c):
    exact = extended_null_vector(model, n_c)
    got = state.to_dense_blocks()
    return max(np.max(np.abs(got[n] - exact[n])) for n in exact)


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # the drive's harmonic 1 exceeds n_c = 0
def test_solve_ness_ising_l4_full_bond_matches_oracle():
    # chi = 16 is the exact bond of the L=4 chain (bonds 4, 16, 4): the start
    # holds it, and no bond counts as saturated
    model = ising_l4()
    state, report = solve_ness(model, quick_config(0, 16))
    assert report.converged
    assert block_error(state, model, 0) < 1e-7
    assert max(report.stage_log[-1]["max_bond"]) == 16
    assert not any("saturated" in w for w in report.warnings)


def test_solve_ness_ising_l4_first_harmonic_matches_oracle():
    # L=4 with a harmonic ladder; the default dense cutoff keeps every local
    # problem (up to dimension 768) on shift-invert, off ARPACK
    model = ising_l4()
    state, report = solve_ness(model, quick_config(1, 16, noise_amplitude=1e-5))
    assert report.converged
    assert block_error(state, model, 1) < 1e-7
    assert sum(e["local_solves"]["arnoldi"] for e in report.stage_log) == 0


def test_solve_ness_ising_l4_second_harmonic_at_default_config():
    # at the default dense cutoff every local problem (up to dimension 1280)
    # is an LU shift-invert solve; ARPACK at these sizes takes minutes
    model = ising_l4()
    state, report = solve_ness(model, quick_config(2, 16, noise_amplitude=1e-5))
    assert report.converged
    assert block_error(state, model, 2) < 1e-7
    assert sum(e["local_solves"]["arnoldi"] for e in report.stage_log) == 0
    assert report.wall_time < 6.0


# Block error of the chi=4 solve below at its fixed point, reached within the
# 30 sweeps it runs; an 8-sweep solve stops short of it (2.8e-2 to 2.9e-2 for
# seeds 11 to 13).
BINDING_CHI_ERROR = 2.547e-2


def test_solve_ness_binding_chi_reports_truncation():
    # chi = 4 is below the exact bond of 16: the solve stays unconverged, the
    # bonds stay at chi, the report warns that the centre bond is saturated,
    # and the error is that of the chi = 4 fixed point
    model = ising_l4()
    cfg = quick_config(1, 4, warmup=make_warmup_schedule(1, 4, warm_sweeps=2, final_sweeps=28))
    state, report = solve_ness(model, cfg)
    assert not report.converged
    (entry,) = report.stage_log
    assert max(entry["max_bond"]) == 4
    assert any("bond dimension 4 saturated below the exact bond at bonds [1]" in w for w in report.warnings)
    assert abs(block_error(state, model, 1) - BINDING_CHI_ERROR) <= 0.05 * BINDING_CHI_ERROR


def test_solve_ness_builds_one_mpo_per_cutoff(monkeypatch):
    # every stage runs at n_c = 1: one build, and the drive's second harmonic
    # is reported once
    drive = {n: [LocalOperator(0, 0.3 * PAULI["X"])] for n in (-2, 2)}
    model = ModelSpec(1, 4.0, drive, {"d": {0: LocalOperator(0, SM)}}).validate()
    cutoffs = []

    def build(model, n_c):
        cutoffs.append(n_c)
        return build_extended_lindbladian(model, n_c)

    monkeypatch.setattr(solver, "build_extended_lindbladian", build)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_ness(model, quick_config(1, 4))
    assert cutoffs == [1]
    messages = [str(w.message) for w in caught if "exceed the frequency cutoff" in str(w.message)]
    assert len(messages) == 1 and "n_c=1;" in messages[0]


def test_solve_ness_detects_degenerate_steady_space():
    model = ModelSpec(
        1, 2.0, {}, {"z": {0: LocalOperator(0, PAULI["Z"])}}
    ).validate()
    cfg = quick_config(0, 2)
    with pytest.raises(DegenerateSteadyStateError):
        solve_ness(model, cfg)


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # the drive's harmonic 1 exceeds n_c = 0
def test_breakdown_in_production_stage_propagates(monkeypatch):
    # a local solve is deterministic given its start vector, so a breakdown
    # would repeat on a restart; solve_ness lets it through instead
    original = solver._local_eigensolve
    injected = []

    def breaks_once(problem, *args, **kwargs):
        production = not problem.deflation
        if production and not injected:
            injected.append(problem.dim)
            raise EigensolverBreakdown("injected breakdown")
        return original(problem, *args, **kwargs)

    monkeypatch.setattr(solver, "_local_eigensolve", breaks_once)
    with pytest.raises(EigensolverBreakdown, match="injected"):
        solve_ness(ising_l3(), quick_config(0, 4))
    assert len(injected) == 1


def test_partial_arpack_result_is_not_accepted(monkeypatch, caplog):
    # above the dense cutoff ARPACK solves only the degeneracy check's
    # deflated problem (the converged state deflated out); here it gives up
    # with a wrong partial eigenvalue: both attempts fail, the dense fallback
    # answers with the undeflated runner-up and says so; above the hard cap
    # the solve breaks down instead
    model = single_qubit_model(gamma=0.7, omega_z=1.1, drive=4.0)
    ness, _ = solve_ness(model, quick_config(1, 4))
    engine = SweepEngine(build_extended_lindbladian(model, 1), ness)
    values = np.linalg.eigvals(engine.site_problem().dense_matrix())
    steady, runner_up = values[np.argsort(np.abs(values))[:2]]
    assert abs(steady) < 1e-10
    problem = engine.site_problem()
    problem.deflate(solver.DEFLATION_SHIFT)
    attempts = []

    def partial(op, k=1, **kwargs):
        attempts.append(kwargs["maxiter"])
        raise ArpackNoConvergence("injected", np.array([0.5 + 0j]), np.ones((op.shape[0], 1), complex))

    monkeypatch.setattr(solver.spla, "eigs", partial)
    rng = np.random.default_rng(3)  # the check starts from a random vector
    v0 = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
    solve = dict(v0=v0, target=0.0, tol=1e-10, dense_cutoff=4)
    with caplog.at_level(logging.WARNING, logger="floquet_ness.solver"):
        theta, _ = solver._local_eigensolve(problem, **solve)
    values = np.linalg.eigvals(problem.dense_matrix())
    assert abs(theta - values[np.argmin(np.abs(values))]) < 1e-12
    assert abs(theta - runner_up) < 1e-10
    assert engine.local_solves == counted(dense_fallback=1)
    assert attempts == [solver.ARPACK_MAXITER, 2 * solver.ARPACK_MAXITER]
    assert any(r.levelno == logging.WARNING and "Arnoldi failed" in r.getMessage() for r in caplog.records)
    monkeypatch.setattr(solver, "DENSE_LOCAL_HARD_CAP", problem.dim - 1)
    with pytest.raises(EigensolverBreakdown):
        solver._local_eigensolve(problem, **solve)


def stalled_preconditioner(blocks, sigma, tether=None):
    """A block-Jacobi stand-in whose inverse returns zeros, so GMRES makes no progress."""
    return np.zeros_like


@pytest.mark.parametrize("case", ["wrong_pair", "inverse_stalls"])
def test_refused_shift_invert_arpack_returns_the_dense_answer(case, monkeypatch, caplog):
    # the degeneracy check's shift-invert ARPACK run is accepted only on a
    # true residual: a made-up pair fails it on both attempts, and an inverse
    # whose GMRES does not converge ends the run at once; each is refused
    # loudly, the dense fallback answers with the undeflated runner-up, and
    # above the hard cap the solve breaks down instead
    model = single_qubit_model(gamma=0.7, omega_z=1.1, drive=4.0)
    ness, _ = solve_ness(model, quick_config(1, 4))
    engine = SweepEngine(build_extended_lindbladian(model, 1), ness)
    values = np.linalg.eigvals(engine.site_problem().dense_matrix())
    runner_up = values[np.argsort(np.abs(values))[1]]
    problem = engine.site_problem()
    problem.deflate(solver.DEFLATION_SHIFT)
    attempts = []
    if case == "wrong_pair":

        def wrong(op, k=1, **kwargs):
            attempts.append(kwargs["maxiter"])
            return np.array([0.5 + 0j]), np.ones((op.shape[0], 1), complex) / np.sqrt(op.shape[0])

        monkeypatch.setattr(solver.spla, "eigs", wrong)
        reason = "Ritz pair refused"
    else:
        monkeypatch.setattr(solver, "_block_jacobi", stalled_preconditioner)
        reason = "inverse: GMRES did not converge"
    rng = np.random.default_rng(3)
    v0 = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
    solve = dict(v0=v0, target=0.0, tol=1e-10, dense_cutoff=4)
    with caplog.at_level(logging.WARNING, logger="floquet_ness.solver"):
        theta, _ = solver._local_eigensolve(problem, **solve)
    assert abs(theta - runner_up) < 1e-10
    assert engine.local_solves == counted(dense_fallback=1)
    if case == "wrong_pair":
        assert attempts == [solver.ARPACK_MAXITER, 2 * solver.ARPACK_MAXITER]
    else:
        # each cycle stops at its first step, whose image is zero; the dense
        # shift-invert then applies its stalled inverse once and closes its basis
        assert engine.gmres_iterations == solver.GMRES_CYCLES and engine.inverse_solves == 2
    assert any(
        r.levelno == logging.WARNING and "Arnoldi failed" in r.getMessage() and reason in r.getMessage()
        for r in caplog.records
    )
    monkeypatch.setattr(solver, "DENSE_LOCAL_HARD_CAP", problem.dim - 1)
    with pytest.raises(EigensolverBreakdown, match=reason):
        solver._local_eigensolve(problem, **solve)


@pytest.mark.parametrize("deflated", [True, False], ids=["check", "sweep"])
def test_single_block_inverse_is_the_block_lu(deflated, monkeypatch):
    # at cutoff 0 the one harmonic block is the whole local problem, so its
    # LU solve is the inverse: no GMRES runs and no matvec confirms it, both
    # in the degeneracy check's shift-invert ARPACK run on the deflated
    # problem (whose value nearest 0 is the undeflated runner-up) and in a
    # sweep's tethered solve
    model = single_qubit_model(gamma=0.7, omega_z=1.1, drive=4.0)
    ness, _ = solve_ness(model, quick_config(0, 4))
    engine = SweepEngine(build_extended_lindbladian(model, 0), ness)
    values = np.linalg.eigvals(engine.site_problem().dense_matrix())
    runner_up = values[np.argsort(np.abs(values))[1]]
    problem = engine.site_problem()
    if deflated:
        problem.deflate(solver.DEFLATION_SHIFT)
    values, vectors = np.linalg.eig(problem.dense_matrix())
    best = np.argmin(np.abs(values))
    assert abs(values[best] - runner_up) < 1e-10 if deflated else abs(values[best]) < 1e-12

    def refuse(*args, **kwargs):
        raise AssertionError("GMRES ran")

    monkeypatch.setattr(solver, "_gmres", refuse)
    rng = np.random.default_rng(3)
    v0 = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
    theta, vec = solver._local_eigensolve(problem, v0, 0.0, tol=1e-10, dense_cutoff=0)
    assert abs(theta - values[best]) < 1e-10
    assert abs(np.vdot(vectors[:, best], vec)) / np.linalg.norm(vec) >= 1 - 1e-10
    assert engine.local_solves == counted(**{"arnoldi" if deflated else "tethered": 1})
    assert engine.gmres_iterations == 0
    assert (engine.inverse_solves > 0) == deflated


def keep_checked_engine(monkeypatch):
    """Record the engine of every degeneracy check, with its GMRES count and local-solve counts before the check."""
    checked = []
    original = solver._deflated_check

    def keeps(problem, *args):
        engine = problem.engine
        checked.append((engine, engine.gmres_iterations, dict(engine.local_solves)))
        return original(problem, *args)

    monkeypatch.setattr(solver, "_deflated_check", keeps)
    return checked


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # DTC harmonics exceed n_c = 1
def test_degeneracy_check_above_cutoff_on_a_small_gap(monkeypatch, caplog):
    # DTC L=3, n_c=1 at cutoff 100: the deflated centre problem (dim 192,
    # norm ~1e3) has its eigenvalue nearest zero at 0.0123, where ARPACK
    # "SM" without a shift-invert ran out of restarts after about 95000
    # matvecs and fell back; shift-invert finds it within one short basis.
    # The check accepts at DEGENERACY_TOL, so its gap is only as close as
    # the residual it reports (4.9e-8 off, residual 6.3e-6, when measured)
    checked = keep_checked_engine(monkeypatch)
    model = build_dtc_model(DTCParams(chain_length=3), n_c=1)
    with caplog.at_level(logging.WARNING, logger="floquet_ness.solver"):
        _, report = solve_ness(model, quick_config(1, 8, noise_amplitude=1e-5, dense_local_cutoff=100))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    ((engine, _, _),) = checked
    (entry,) = json.loads(json.dumps(report.to_dict()))["stage_log"]
    assert entry["local_solves"]["arnoldi"] == 1
    assert entry["local_solves"]["dense_fallback"] == 0
    problem = engine.site_problem()
    problem.deflate(solver.DEFLATION_SHIFT)
    values = np.linalg.eigvals(problem.dense_matrix())
    assert abs(entry["degeneracy_gap"] - np.min(np.abs(values))) <= entry["degeneracy_residual"]
    assert 0 < entry["degeneracy_inverse_solves"] <= 2 * solver.ARNOLDI_DIM  # 13 when measured


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # DTC harmonics exceed n_c = 1
@pytest.mark.parametrize(
    "chain, n_c, cutoff, method",
    [("ising", 1, solver.DENSE_LOCAL_HARD_CAP, "dense LU"), ("ising", 0, 40, "block LU"), ("dtc", 1, 100, "GMRES")],
)
def test_degeneracy_check_certifies_its_gap_on_every_inverse(monkeypatch, chain, n_c, cutoff, method):
    # the check accepts at DEGENERACY_TOL, not at the sweeps' tolerance, on
    # each inverse it can apply: shift-invert on the dense LU, and ARPACK on
    # one exact block LU (n_c = 0, as on the benchmark's Krylov workload) or
    # on GMRES; its reported residual bounds the gap's distance from the
    # runner-up of the centre problem's dense spectrum
    checked = keep_checked_engine(monkeypatch)
    model = ising_l3() if chain == "ising" else build_dtc_model(DTCParams(chain_length=3), n_c=1)
    _, report = solve_ness(model, quick_config(n_c, 8, dense_local_cutoff=cutoff))
    ((engine, gmres_before, before),) = checked
    (entry,) = report.stage_log
    check = {name: count - before[name] for name, count in entry["local_solves"].items()}
    assert check == counted(**{"shift_invert" if method == "dense LU" else "arnoldi": 1})
    assert (entry["gmres_iterations"] > gmres_before) == (method == "GMRES")
    values = np.linalg.eigvals(engine.site_problem().dense_matrix())
    runner_up = values[np.argsort(np.abs(values))[1]]
    assert abs(entry["degeneracy_gap"] - abs(runner_up)) <= entry["degeneracy_residual"]
    assert entry["degeneracy_gap"] > solver.DEGENERACY_TOL


def test_stage_log_counts_the_degeneracy_checks_inner_solves(monkeypatch):
    # above the cutoff the check's shift-invert inverse runs GMRES: the
    # stage's GMRES iterations include the check's, and the report says how
    # often the check applied its inverse; below the cutoff its dense
    # shift-invert applies one LU inverse per Arnoldi step and one to polish
    checked = keep_checked_engine(monkeypatch)
    model = ising_l3()
    _, report = solve_ness(model, quick_config(1, 4, dense_local_cutoff=100))
    ((engine, before, _),) = checked
    (entry,) = json.loads(json.dumps(report.to_dict()))["stage_log"]
    assert entry["gmres_iterations"] == engine.gmres_iterations > before > 0
    assert entry["degeneracy_inverse_solves"] == engine.inverse_solves > 0
    _, report = solve_ness(model, quick_config(1, 4))
    (entry,) = json.loads(json.dumps(report.to_dict()))["stage_log"]
    assert entry["gmres_iterations"] == 0
    assert entry["degeneracy_inverse_solves"] == 16  # 15 steps and the polishing one


def ising_l3():
    return build_driven_ising(IsingBenchmarkParams(chain_length=3, omega=5.0))


def at_one_bond(state, chi):
    """`state` with every block canonicalized at bond `chi`, as a solve's start is."""
    spec = TruncationSpec(max_rank=chi)
    blocks = {n: state.blocks[n].canonicalize(spec)[0] for n in state.harmonics}
    return FloquetDensityMatrix(blocks, state.omega, state.cutoff)


def counted(**counts):
    return {**dict.fromkeys(solver.LOCAL_METHODS, 0), **counts}


@pytest.mark.parametrize("penalties", [False, True], ids=["one-bare", "one-penalized"])  # one-site problems
@pytest.mark.parametrize("start", ["guess", "random"])
def test_shift_invert_matches_dense_eig(start, penalties):
    # at every site the shift-invert pair is LAPACK's eigenpair nearest zero;
    # from the noisy guess it takes several Arnoldi steps, and on the random
    # state the edge problems have that eigenvalue at |theta| ~ 1;
    # the penalized cases deflate the state itself out of the local problem,
    # as the degeneracy check does
    model = ising_l3()
    n_c = 1
    mpo = build_extended_lindbladian(model, n_c)
    if start == "guess":
        state = at_one_bond(initial_guess(3, 2, n_c, model.omega, noise_amplitude=1e-2, seed=3), 2)
    else:
        rng = np.random.default_rng(5)
        blocks = {n: Mps.random(3, 4, 4, rng, norm=1.0) for n in range(-n_c, n_c + 1)}
        state = FloquetDensityMatrix(blocks, model.omega, n_c)
    deflation = solver.DEFLATION_SHIFT if penalties else 0.0
    for site in range(3):
        engine = SweepEngine(mpo, state)
        engine.advance_to(site)
        problem = engine.site_problem()
        if deflation:
            problem.deflate(deflation)
        mat = problem.dense_matrix()
        values, vectors = np.linalg.eig(mat)
        best = np.argmin(np.abs(values))
        theta, vec = solver._local_eigensolve(
            problem, problem.current_vector(), 0.0, tol=1e-11, dense_cutoff=700
        )
        assert engine.local_solves == counted(shift_invert=1)
        assert abs(theta - values[best]) <= 1e-12 * np.linalg.norm(mat)
        assert abs(np.vdot(vectors[:, best], vec)) >= 1 - 1e-10


@pytest.mark.parametrize(
    "case, cutoff, deflation",
    [
        pytest.param("singular", 700, 0.0, id="singular"),
        pytest.param("zero_start", 700, 0.0, id="zero_start"),
        pytest.param("zero_start", 0, 0.0, id="zero_start-tethered"),
        pytest.param("zero_start", 0, solver.DEFLATION_SHIFT, id="zero_start-deflated"),
        pytest.param("budget", 700, 0.0, id="budget"),
    ],
)
def test_refused_shift_invert_returns_the_eig_answer(case, cutoff, deflation, monkeypatch, caplog):
    # an exactly singular matrix, a zero start vector and a step budget the
    # noisy guess cannot meet each fall back to np.linalg.eig and say so in
    # one WARNING; the guess's block 0 (bond 3) keeps the identity in its
    # frames, so the local problem has an eigenvalue at zero to rounding. A
    # zero start is refused before any method, on the dense path, by the
    # tethered solve's path and by the degeneracy check's above the cutoff
    # alike, and above the hard cap it breaks the solve down
    model = ising_l3()
    mpo = build_extended_lindbladian(model, 1)
    guess = initial_guess(3, 2, 1, model.omega, noise_amplitude=1e-2, seed=3)
    rng = np.random.default_rng(3)
    blocks = {n: Mps.random(3, 4, 3, rng, norm=1e-2) for n in (-1, 1)}
    state = FloquetDensityMatrix({**blocks, 0: guess.blocks[0]}, model.omega, 1)
    engine = SweepEngine(mpo, state)
    problem = engine.site_problem()
    if deflation:
        problem.deflate(deflation)
    mat = problem.dense_matrix()
    v0 = problem.current_vector()
    if case == "singular":
        mat[:, 0] = 0.0  # LU meets an exact zero pivot
        monkeypatch.setattr(problem, "dense_matrix", mat.copy)
    elif case == "zero_start":
        v0 = np.zeros_like(v0)
    else:
        monkeypatch.setattr(solver, "KRYLOV_DIM", 1)
    with caplog.at_level(logging.DEBUG, logger="floquet_ness.solver"):
        theta, vec = solver._local_eigensolve(problem, v0, 0.0, tol=1e-11, dense_cutoff=cutoff)
    # the eig value nearest zero; the singular case has two within the
    # residual bound, one eigenspace, whose vector nearest v0 is taken
    values, vectors = np.linalg.eig(mat)
    near = np.flatnonzero(np.abs(values) <= np.min(np.abs(values)) + 1e-11 * np.linalg.norm(mat))
    assert len(near) == (2 if case == "singular" else 1)
    best = near[np.argmax(np.abs(vectors[:, near].conj().T @ v0))]
    assert theta == values[best]
    assert np.array_equal(vec, vectors[:, best])
    assert engine.local_solves == counted(dense_fallback=1)
    (warning,) = [r for r in caplog.records if r.levelno >= logging.WARNING]
    reason = "zero start vector" if case == "zero_start" else "shift-invert refused"
    assert reason in warning.getMessage()
    if case == "zero_start":
        monkeypatch.setattr(solver, "DENSE_LOCAL_HARD_CAP", problem.dim - 1)
        with pytest.raises(EigensolverBreakdown, match="zero start vector"):
            solver._local_eigensolve(problem, v0, 0.0, tol=1e-11, dense_cutoff=cutoff)


def test_zero_pivot_at_an_exact_shift_falls_back_loudly(caplog):
    # nothing leaves |0><0| of the damped qubit, so the generator's first
    # column is exactly zero and the LU at the exact shift 0 meets a zero
    # pivot without any patching; the eig fallback is a WARNING and is
    # counted, and it returns the steady state
    model = single_qubit_model(gamma=0.8)
    engine = SweepEngine(build_extended_lindbladian(model, 0), initial_guess(1, 2, 0, model.omega))
    problem = engine.site_problem()
    with caplog.at_level(logging.DEBUG, logger="floquet_ness.solver"):
        theta, vec = solver._local_eigensolve(problem, problem.current_vector(), 0.0, tol=1e-11, dense_cutoff=700)
    assert engine.local_solves == counted(dense_fallback=1)
    (record,) = [r for r in caplog.records if "shift-invert refused" in r.getMessage()]
    assert record.levelno == logging.WARNING
    assert "zero pivot 1" in record.getMessage()
    assert abs(theta) < 1e-14
    assert np.allclose(np.abs(vec), [1, 0, 0, 0], atol=1e-14)


@pytest.mark.parametrize(
    "method, reason",
    [
        ("_shift_invert", "no Ritz pair accepted"),
        ("_tethered_solve", "block LU: zero pivot"),
        ("_arnoldi", "Ritz pair refused"),
        ("_gmres", "GMRES did not converge"),
    ],
)
def test_every_method_raises_its_refusal(method, reason, monkeypatch):
    # a local-solve method that cannot answer raises EigensolverBreakdown
    # with its reason, which _local_eigensolve alone catches: shift-invert
    # with a budget of one Krylov step, the tethered solve on an exactly
    # singular harmonic block, ARPACK returning a made-up pair and GMRES
    # behind a preconditioner that returns zeros, all on the noisy guess's
    # centre problem (dimension 192 in three harmonic blocks)
    model = ising_l3()
    mpo = build_extended_lindbladian(model, 1)
    state = at_one_bond(initial_guess(3, 2, 1, model.omega, noise_amplitude=1e-2, seed=3, noise_bond=4), 4)
    engine = SweepEngine(mpo, state)
    engine.advance_to(1)
    problem = engine.site_problem()
    if method == "_arnoldi":
        problem.deflate(solver.DEFLATION_SHIFT)
    v0 = problem.current_vector()
    blocks = problem.diagonal_blocks()
    bound = 1e-11 * np.linalg.norm(blocks)
    if method == "_shift_invert":
        monkeypatch.setattr(solver, "KRYLOV_DIM", 1)
        mat = problem.dense_matrix()
        args = (problem, mat.__matmul__, mat[None], v0, 0.0, bound)
    elif method == "_tethered_solve":
        part = v0.reshape(len(blocks), -1)[0] / np.linalg.norm(v0)
        blocks[0] = -np.outer(part, part.conj())  # block 0 of D - sigma I + u u^H is exactly zero
        args = (problem, v0, 0.0, blocks, bound)
    elif method == "_arnoldi":

        def wrong(op, k=1, **kwargs):
            return np.array([0.5 + 0j]), np.ones((op.shape[0], 1), complex) / np.sqrt(op.shape[0])

        monkeypatch.setattr(solver.spla, "eigs", wrong)
        args = (problem, v0, 0.0, blocks, bound, 1e-11)
    else:
        args = (problem, problem.matvec, v0, stalled_preconditioner(blocks, 0.0), bound, np.zeros_like(v0))
    with pytest.raises(EigensolverBreakdown, match=reason):
        getattr(solver, method)(*args)


@pytest.mark.parametrize("coupling", [0.05, 0.3, 0.5])  # 0.5 takes a second cycle
def test_gmres_meets_atol_in_scipys_iterations(coupling):
    # on a random system whose harmonic-like diagonal blocks dominate, the
    # block-Jacobi GMRES answer has a true residual within atol, in no more
    # iterations than scipy's left-preconditioned gmres at the same restart
    # (up to one; scipy stops on the preconditioned residual, and at coupling
    # 0.3 took 30 to this kernel's 27), and an answer that already meets atol
    # costs none
    rng = np.random.default_rng(17)
    nh, m = 3, 24
    dim = nh * m
    blocks = rng.standard_normal((nh, m, m)) + 1j * rng.standard_normal((nh, m, m)) + 8 * np.eye(m)
    mat = coupling * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    for n in range(nh):
        mat[n * m : (n + 1) * m, n * m : (n + 1) * m] = blocks[n]
    rhs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    atol = 1e-10 * np.linalg.norm(rhs)
    jacobi = solver._block_jacobi(blocks, 0.0)
    problem = types.SimpleNamespace(dim=dim, engine=types.SimpleNamespace(gmres_iterations=0))
    x = solver._gmres(problem, mat.__matmul__, rhs, jacobi, atol, x0=np.zeros(dim, dtype=complex))
    assert np.linalg.norm(rhs - mat @ x) <= atol
    ours = problem.engine.gmres_iterations
    theirs = []
    _, info = spla.gmres(
        spla.LinearOperator((dim, dim), matvec=mat.__matmul__, dtype=complex),
        rhs,
        rtol=0.0,
        atol=atol,
        restart=solver.KRYLOV_DIM,
        maxiter=solver.GMRES_CYCLES,
        M=spla.LinearOperator((dim, dim), matvec=jacobi, dtype=complex),
        callback=theirs.append,
        callback_type="pr_norm",
    )
    assert info == 0
    assert ours <= len(theirs) + 1
    again = solver._gmres(problem, mat.__matmul__, rhs, jacobi, atol, x0=x)
    assert np.array_equal(again, x)
    assert problem.engine.gmres_iterations == ours


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # DTC harmonics exceed n_c = 1
@pytest.mark.parametrize("offset", [0.0, 1e-2], ids=["zero", "tracked"])
@pytest.mark.parametrize("chain", ["ising", "dtc"])
def test_tethered_solve_matches_dense_eig(chain, offset, caplog):
    # above the dense cutoff a sweep's shift solve is the tethered GMRES one:
    # at every site of the noisy guess its pair is LAPACK's eigenpair nearest
    # the shift, both at the steady state's shift 0 and at a tracked shift
    # 1e-2 off the local eigenvalue, which takes repeated tethered solves
    model = ising_l3() if chain == "ising" else build_dtc_model(DTCParams(chain_length=3), n_c=1)
    mpo = build_extended_lindbladian(model, 1)
    state = at_one_bond(initial_guess(3, 2, 1, model.omega, noise_amplitude=1e-2, seed=3, noise_bond=4), 4)
    for site in range(3):
        engine = SweepEngine(mpo, state)
        engine.advance_to(site)
        problem = engine.site_problem()
        mat = problem.dense_matrix()
        values, vectors = np.linalg.eig(mat)
        sigma = values[np.argmin(np.abs(values))] + offset if offset else 0.0
        best = np.argmin(np.abs(values - sigma))
        with caplog.at_level(logging.WARNING, logger="floquet_ness.solver"):
            theta, vec = solver._local_eigensolve(problem, problem.current_vector(), sigma, tol=1e-11, dense_cutoff=0)
        assert engine.local_solves == counted(tethered=1)
        assert engine.gmres_iterations > 0
        assert abs(theta - values[best]) <= 1e-12 * np.linalg.norm(mat)
        assert abs(np.vdot(vectors[:, best], vec)) >= 1 - 1e-10
    assert not caplog.records


def converged_ising_l3():
    """Converged steady state of Ising L=3, n_c=1, chi=8, and its generator."""
    model = ising_l3()
    ness, _ = solve_ness(model, quick_config(1, 8))
    return ness, build_extended_lindbladian(model, 1)


@pytest.mark.parametrize("cutoff", [700, 0], ids=["dense", "gmres"])
def test_converged_starts_are_accepted_before_any_method(cutoff, monkeypatch):
    # on a converged engine every site's start passes the acceptance test:
    # with the LU, the dense matrix and the block-Jacobi preconditioner
    # refusing to run, each solve returns its start, normalized, with its
    # Rayleigh quotient
    ness, mpo = converged_ising_l3()

    def refuse(*args, **kwargs):
        raise AssertionError("a local method ran")

    monkeypatch.setattr(solver, "_lu", refuse)
    monkeypatch.setattr(solver, "_block_jacobi", refuse)
    monkeypatch.setattr(solver.SiteProblem, "dense_matrix", refuse)
    engine = SweepEngine(mpo, ness)
    for site in range(3):
        engine.advance_to(site)
        problem = engine.site_problem()
        v0 = problem.current_vector()
        theta, vec = solver._local_eigensolve(problem, v0, 0.0, tol=1e-11, dense_cutoff=cutoff)
        assert np.array_equal(vec, v0 / np.linalg.norm(v0))
        assert theta == np.vdot(vec, problem.matvec(vec))
        assert abs(theta) <= 1e-11 * np.linalg.norm(problem.diagonal_blocks())
    assert engine.local_solves == counted(converged_start=3)


@pytest.mark.parametrize("cutoff, method", [(700, "shift_invert"), (0, "tethered")], ids=["dense", "gmres"])
def test_eigenvector_away_from_the_shift_is_not_accepted(cutoff, method):
    # an exact eigenvector of the runner-up eigenvalue passes the residual
    # test but not the shift test, so a method runs; from that start alone
    # shift-invert and the tethered solve would return the runner-up, so the
    # start gets a random part, and the solve returns the eigenpair nearest 0
    ness, mpo = converged_ising_l3()
    for site in range(3):
        engine = SweepEngine(mpo, ness)
        engine.advance_to(site)
        problem = engine.site_problem()
        mat = problem.dense_matrix()
        values, vectors = np.linalg.eig(mat)
        nearest, runner_up = np.argsort(np.abs(values))[:2]
        assert abs(values[runner_up]) > 0.1
        theta, vec = solver._local_eigensolve(problem, vectors[:, runner_up], 0.0, tol=1e-11, dense_cutoff=cutoff)
        assert engine.local_solves == counted(**{method: 1})
        assert abs(theta - values[nearest]) <= 1e-12 * np.linalg.norm(mat)
        assert abs(np.vdot(vectors[:, nearest], vec)) >= 1 - 1e-10


@pytest.mark.parametrize("case", ["gmres", "singular_block"])
def test_refused_tethered_solve_returns_the_dense_answer(case, monkeypatch, caplog):
    # a GMRES run that does not converge and a harmonic block whose LU meets
    # an exact zero pivot are refused loudly: a WARNING, a count under
    # dense_fallback and the dense shift-invert answer; above the hard cap
    # the solve breaks down instead, and so it does when one harmonic block
    # exceeds the cap
    model = ising_l3()
    mpo = build_extended_lindbladian(model, 1)
    state = at_one_bond(initial_guess(3, 2, 1, model.omega, noise_amplitude=1e-2, seed=3, noise_bond=4), 4)
    engine = SweepEngine(mpo, state)
    engine.advance_to(1)
    problem = engine.site_problem()  # the centre site, dimension 192 in three harmonic blocks
    v0 = problem.current_vector()
    if case == "gmres":
        monkeypatch.setattr(solver, "_block_jacobi", stalled_preconditioner)
    else:
        # block 0 of D - sigma I + u u^H is exactly zero
        blocks = problem.diagonal_blocks()
        part = v0.reshape(len(blocks), -1)[0] / np.linalg.norm(v0)
        blocks[0] = -np.outer(part, part.conj())
        monkeypatch.setattr(problem, "diagonal_blocks", blocks.copy)
    solve = dict(v0=v0, target=0.0, tol=1e-11, dense_cutoff=0)
    with caplog.at_level(logging.WARNING, logger="floquet_ness.solver"):
        theta, vec = solver._local_eigensolve(problem, **solve)
    mat = problem.dense_matrix()
    values, vectors = np.linalg.eig(mat)
    best = np.argmin(np.abs(values))
    assert abs(theta - values[best]) <= 1e-12 * np.linalg.norm(mat)
    assert abs(np.vdot(vectors[:, best], vec)) >= 1 - 1e-10
    assert engine.local_solves == counted(dense_fallback=1)
    # a stalled cycle stops at its first step; an unusable block LU runs none
    assert engine.gmres_iterations == (solver.GMRES_CYCLES if case == "gmres" else 0)
    reason = "GMRES did not converge" if case == "gmres" else "block LU"
    assert any(
        r.levelno == logging.WARNING and "tethered GMRES failed" in r.getMessage() and reason in r.getMessage()
        for r in caplog.records
    )
    monkeypatch.setattr(solver, "DENSE_LOCAL_HARD_CAP", problem.dim - 1)
    with pytest.raises(EigensolverBreakdown, match=reason):
        solver._local_eigensolve(problem, **solve)
    # blocks above the cap are never built, not even for the start test
    monkeypatch.setattr(solver, "DENSE_LOCAL_HARD_CAP", problem.dim // 3 - 1)

    def refuse():
        raise AssertionError("diagonal blocks built above the cap")

    monkeypatch.setattr(problem, "diagonal_blocks", refuse)
    with pytest.raises(EigensolverBreakdown, match="harmonic block of dim 64 above the dense cap"):
        solver._local_eigensolve(problem, **solve)


@pytest.mark.parametrize("n_c", [1, 2])
def test_solve_ness_tethered_gmres_matches_oracle(n_c):
    # at cutoff 100 the centre site (dimension 192 at n_c = 1, 320 at n_c = 2)
    # is solved by tethered GMRES, and only the degeneracy check by ARPACK;
    # the stage log sums the GMRES iterations. The first sweep solves site 0
    # by shift-invert and the centre by GMRES, after which every start
    # passes: the second sweep is idle and ends the stage, whose last solve
    # is GMRES at the centre
    model = ising_l3()
    state, report = solve_ness(model, quick_config(n_c, 8, noise_amplitude=1e-5, dense_local_cutoff=100))
    assert report.converged
    assert block_error(state, model, n_c) < 1e-7
    (entry,) = report.stage_log
    assert len(entry["sweep_residuals"]) == 2
    assert entry["local_solves"] == counted(converged_start=6, shift_invert=1, tethered=2, arnoldi=1)
    logged = json.loads(json.dumps(report.to_dict()))["stage_log"]
    assert logged[0]["gmres_iterations"] == entry["gmres_iterations"] > 0


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # DTC harmonics exceed n_c = 1
@pytest.mark.parametrize("chain", ["ising", "dtc"])
def test_stage_log_counts_local_solves_by_method(chain):
    # every local solve is counted once, under the method that answered it:
    # the first sweep's first two by shift-invert, and every later start
    # passes (4 solves per sweep at L = 3), so the second sweep is idle and
    # ends the stage; then the centre solve and the deflated degeneracy
    # check, both by shift-invert
    model = ising_l3() if chain == "ising" else build_dtc_model(DTCParams(chain_length=3), n_c=1)
    _, report = solve_ness(model, quick_config(1, 8))
    (entry,) = report.stage_log
    assert len(entry["sweep_residuals"]) == 2
    assert entry["local_solves"] == counted(converged_start=6, shift_invert=4)
    assert entry["gmres_iterations"] == 0
    assert entry["degeneracy_gap"] > solver.DEGENERACY_TOL
    (logged,) = json.loads(json.dumps(report.to_dict()))["stage_log"]
    assert logged["local_solves"] == entry["local_solves"]
    assert logged["degeneracy_gap"] == entry["degeneracy_gap"]


def test_idle_second_sweep_ends_the_stage_at_the_centre(monkeypatch):
    # on Ising L=3 every start passes after the first sweep's first two
    # solves, so the second sweep only moves the gauge and ends the stage
    # before the third; one solve at the centre site L // 2 follows, which
    # never accepts its start, and the stage returns its eigenvalue with the
    # engine's centre left there
    solves = []
    original = solver._local_eigensolve

    def records(problem, *args, **kwargs):
        found = original(problem, *args, **kwargs)
        solves.append((problem.site, kwargs.get("accept_start", True), found[0]))
        return found

    monkeypatch.setattr(solver, "_local_eigensolve", records)
    model = ising_l3()
    cfg = quick_config(1, 8)
    start = initial_guess(3, 2, 1, model.omega, noise_amplitude=cfg.noise_amplitude, seed=cfg.seed, noise_bond=8)
    report = solver.SolveReport()
    engine, problem, theta = solver._sweep_schedule(build_extended_lindbladian(model, 1), start, cfg, report, 0.0, "ness")
    (entry,) = report.stage_log
    assert len(entry["sweep_residuals"]) == 2 < cfg.warmup.sweeps
    assert entry["local_solves"] == counted(converged_start=6, shift_invert=3)
    assert [site for site, _, _ in solves] == [0, 1, 2, 1] * 2 + [1]
    assert [accept for _, accept, _ in solves] == [True] * 8 + [False]
    assert theta == solves[-1][2]
    assert engine.center == problem.site == 1


def test_small_sweep_residual_does_not_end_the_stage(monkeypatch):
    # with no start ever accepted no sweep is idle, so the stage runs every
    # sweep of its cap, although the residual is within eig_tol from the
    # second sweep on
    monkeypatch.setattr(solver, "_tested_start", lambda problem, v0, sigma, bound: (None, v0))
    model = ising_l3()
    cfg = quick_config(1, 8, warmup=SweepStage(1, 8, 5))
    start = initial_guess(3, 2, 1, model.omega, noise_amplitude=cfg.noise_amplitude, seed=cfg.seed, noise_bond=8)
    report = solver.SolveReport()
    solver._sweep_schedule(build_extended_lindbladian(model, 1), start, cfg, report, 0.0, "ness")
    (entry,) = report.stage_log
    assert len(entry["sweep_residuals"]) == 5
    assert max(entry["sweep_residuals"][1:]) <= cfg.eig_tol
    assert entry["local_solves"]["converged_start"] == 0


def swept_engine(model, cfg):
    """The sweep engine of `solve_ness` on `model` at cutoff 1, bond 8, and its centre solve's problem,
    as the degeneracy check finds them."""
    start = initial_guess(3, 2, 1, model.omega, noise_amplitude=cfg.noise_amplitude, seed=cfg.seed, noise_bond=8)
    engine, problem, _ = solver._sweep_schedule(
        build_extended_lindbladian(model, 1), start, cfg, solver.SolveReport(), 0.0, "ness"
    )
    return engine, problem


def hessenberg_eig_sizes(monkeypatch):
    """The size of every Hessenberg matrix passed to LAPACK geev from now on, as a list that grows."""
    sizes = []
    original = solver._GEEV

    def counting(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(solver, "_GEEV", counting)
    return sizes


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # DTC harmonics exceed n_c = 1
@pytest.mark.parametrize("chain", ["ising", "dtc"])
def test_deflated_check_matches_eig_runner_up(chain):
    # deflating the converged state out of the centre-site problem of the
    # sweep engine leaves the runner-up eigenvalue of the undeflated problem
    # nearest zero, found to the residual the check returns (it accepts at
    # DEGENERACY_TOL); the check counts its own solve only, and moving the
    # engine's centre there leaves the state as it was
    model = ising_l3() if chain == "ising" else build_dtc_model(DTCParams(chain_length=3), n_c=1)
    cfg = quick_config(1, 8)
    engine, problem = swept_engine(model, cfg)
    state = engine.state()
    assert engine.local_solves == counted(converged_start=6, shift_invert=3)
    before = dict(engine.local_solves)
    theta, residual = solver._deflated_check(problem, cfg, np.random.default_rng(3))
    assert {method: count - before[method] for method, count in engine.local_solves.items()} == counted(shift_invert=1)
    assert engine.center == 1
    for n, block in engine.state().blocks.items():
        assert np.max(np.abs(block.to_dense() - state.blocks[n].to_dense())) < 1e-13
    mat = engine.site_problem().dense_matrix()
    values = np.linalg.eig(mat)[0]
    steady, runner_up = values[np.argsort(np.abs(values))[:2]]
    scale = np.linalg.norm(mat)
    assert abs(steady) <= 1e-8 * scale
    assert abs(runner_up) > solver.DEGENERACY_TOL
    assert abs(theta - runner_up) <= residual <= solver.DEGENERACY_TOL * scale
    _, report = solve_ness(model, cfg)
    entry = report.stage_log[-1]
    assert abs(entry["degeneracy_gap"] - abs(runner_up)) <= entry["degeneracy_residual"]


def test_dense_degeneracy_check_tests_few_ritz_pairs(monkeypatch):
    # the check's shift-invert tests its top Ritz pair (a Hessenberg eig and
    # a true residual) after every step, and accepting at DEGENERACY_TOL it
    # stops after few: 14 steps on the Ising chain, where converging the
    # pair to the sweeps' tolerance took 22
    cfg = quick_config(1, 8)
    engine, problem = swept_engine(ising_l3(), cfg)
    sizes = hessenberg_eig_sizes(monkeypatch)
    theta, residual = solver._deflated_check(problem, cfg, np.random.default_rng(3))
    assert sizes == list(range(1, len(sizes) + 1)) and len(sizes) <= 16  # 14 when measured
    assert engine.inverse_solves == sizes[-1] + 1  # every step's and one polishing application
    mat = engine.site_problem().dense_matrix()
    values = np.linalg.eigvals(mat)
    runner_up = values[np.argsort(np.abs(values))[1]]
    assert abs(theta - runner_up) <= residual


def test_shift_invert_tests_its_last_step(monkeypatch, caplog):
    # the check above accepts at step 14; with KRYLOV_DIM at 14 it still
    # accepts there, at its last step, and one step fewer is refused and
    # falls back to eig
    cfg = quick_config(1, 8)
    engine, problem = swept_engine(ising_l3(), cfg)
    sizes = hessenberg_eig_sizes(monkeypatch)
    monkeypatch.setattr(solver, "KRYLOV_DIM", 14)
    before = dict(engine.local_solves)
    solver._deflated_check(problem, cfg, np.random.default_rng(3))
    assert {method: count - before[method] for method, count in engine.local_solves.items()} == counted(shift_invert=1)
    assert sizes == list(range(1, 15))
    assert engine.inverse_solves == 15
    monkeypatch.setattr(solver, "KRYLOV_DIM", 13)
    with caplog.at_level(logging.WARNING, logger="floquet_ness.solver"):
        solver._deflated_check(engine.site_problem(), cfg, np.random.default_rng(3))
    assert engine.local_solves["dense_fallback"] == before["dense_fallback"] + 1
    assert "no Ritz pair accepted within 13 steps" in caplog.text


@pytest.mark.parametrize("theta", [0.0, -0.3 + 1.2j], ids=["zero", "complex"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_eigen_residual_matches_dense(adjoint, theta):
    # the streamed residual ||(L - theta) x|| / ||x|| equals the dense one on
    # random states, with every block random and with the lowest one zero,
    # for the models of test_mpo_action_matches_dense_action; the driven ones
    # have output blocks n with a transfer q whose n - q lies outside the cutoff
    rng = np.random.default_rng(17)
    edge_pairs = 0
    for model, n_c in [
        (small_driven_model(length=3), 2),
        (time_dependent_jump_model(length=2), 2),
        (damped_qubit(gamma=0.5, omega_z=1.0), 1),
    ]:
        mpo = build_extended_lindbladian(model, n_c)
        dense = dense_extended_lindbladian(model, n_c)
        if adjoint:
            mpo, dense = mpo.adjoint(), dense.conj().T
        harmonics = range(-n_c, n_c + 1)
        edge_pairs += sum(abs(n - q) > n_c for q in mpo.components for n in harmonics)
        blocks = {n: Mps.random(model.chain_length, 4, 3, rng, norm=1.0) for n in harmonics}
        for stored in (blocks, {**blocks, -n_c: Mps.zeros(model.chain_length, 4)}):
            state = FloquetDensityMatrix(stored, model.omega, n_c)
            vec = np.concatenate([state.blocks[n].to_dense() for n in harmonics])
            expect = np.linalg.norm(dense @ vec - theta * vec) / np.linalg.norm(vec)
            assert abs(solver._eigen_residual(mpo, state, theta) - expect) <= 1e-12 * expect
    assert edge_pairs > 0


def test_stage_log_entries_carry_label_and_target():
    # steady-state and decay solves log one stage each, with the same keys
    model = single_qubit_model(gamma=0.8)
    cfg = quick_config(0, 4)
    ness, report = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    keys = {"label", "target", "n_c", "chi", "seconds", "start_discarded_weight"}
    keys |= {"sweep_residuals", "max_bond", "local_solves", "gmres_iterations"}
    assert [(e["label"], e["target"]) for e in report.stage_log] == [("ness", [0.0, 0.0])]
    assert [e["label"] for e in decay.report.stage_log] == ["decay right", "decay left"]
    for rep in (report, decay.report):
        logged = json.loads(json.dumps(rep.to_dict()))["stage_log"]
        assert len(logged) == len(rep.stage_log)
        for entry, exported in zip(rep.stage_log, logged):
            assert set(entry) - {"degeneracy_gap", "degeneracy_residual", "degeneracy_inverse_solves"} == keys
            assert exported["seconds"] > 0
            assert (exported["label"], exported["target"]) == (entry["label"], entry["target"])


@pytest.mark.parametrize("length", [1, 2, 3, 5])
def test_sweep_sites_solve_each_end_site_once(length, monkeypatch):
    # a sweep solves at the engine's centre and then moves it: from site 0 it
    # solves every site, each end site once, 2 (L - 1) solves (one at L = 1),
    # each next to the one before, so the centre never jumps; the stage's
    # last solve is at the centre site L // 2
    sites = []

    def records(problem, v0, *args, **kwargs):
        sites.append(problem.site)
        return 0.0, v0

    monkeypatch.setattr(solver, "_local_eigensolve", records)
    jumps = {f"d{i}": {0: LocalOperator(i, SM)} for i in range(length)}
    model = ModelSpec(length, 2.0, {}, jumps).validate()
    state = initial_guess(length, 2, 0, model.omega, noise_amplitude=1e-2, seed=1)
    cfg = quick_config(0, 2, warmup=SweepStage(0, 2, 1))
    solver._sweep_schedule(build_extended_lindbladian(model, 0), state, cfg, solver.SolveReport(), 0.0, "sites")
    *sweep, centre = sites
    assert set(sweep) == set(range(length)) and centre == length // 2
    assert len(sweep) == max(2 * (length - 1), 1)
    assert all(abs(a - b) == 1 for a, b in zip(sweep, sweep[1:]))


def test_sweeps_keep_unit_norm():
    # every local solve writes a unit-norm centre vector into orthonormal
    # frames, so no rescale is needed between sweeps
    model = ising_l3()
    mpo = build_extended_lindbladian(model, 1)
    state = initial_guess(3, 2, 1, model.omega, noise_amplitude=1e-4, seed=2, noise_bond=8)
    assert abs(state.norm() - 1.0) > 0.1
    cfg = quick_config(1, 8, warmup=make_warmup_schedule(1, 8, warm_sweeps=1, final_sweeps=1))
    engine, _, _ = solver._sweep_schedule(mpo, state, cfg, solver.SolveReport(), 0.0, "norm")
    assert abs(engine.state().norm() - 1.0) < 1e-12


def test_stage_log_reports_discarded_weight_and_bond():
    # chi=2 binds on the L=3 chain (bonds up to 4): the start truncated to
    # chi says how much it dropped, every sweep keeps the bond at chi, and
    # the report warns that the bond is saturated
    model = build_driven_ising(IsingBenchmarkParams(chain_length=3, omega=5.0))
    _, report = solve_ness(model, quick_config(1, 2))
    (entry,) = report.stage_log
    assert len(entry["max_bond"]) == len(entry["sweep_residuals"])
    assert entry["max_bond"] == [2] * len(entry["sweep_residuals"])
    assert entry["start_discarded_weight"] > 0
    assert any("bond dimension 2 saturated" in w for w in report.warnings)
    logged = json.loads(json.dumps(report.to_dict()))["stage_log"]
    assert logged[0]["start_discarded_weight"] == entry["start_discarded_weight"]


def assert_right_solve_tracks_after_one_eig_sweep(decay, per_sweep, centre):
    # one dense eig per local solve of the first sweep (`per_sweep` of them);
    # at the tracked shift every start of the second sweep passes, so it is
    # idle and ends the stage, and the centre solve answers by `centre`
    (entry,) = [e for e in decay.report.stage_log if e["label"] == "decay right"]
    assert len(entry["sweep_residuals"]) == 2
    assert entry["local_solves"] == counted(dense_eig=per_sweep, converged_start=per_sweep, **{centre: 1})


def test_decay_mode_of_a_closed_chain_does_not_decay():
    # with no jump operator the penalty strength is 10, and every mode of
    # -i[H, .] lies on the imaginary axis: the slowest is one of them, and
    # only roundoff gives it a real part, within the certified residual, so
    # tau_relax is infinite whatever that roundoff's sign. Here it is a
    # conserved traceless mode at lambda = 0 (about 1e-16), a mode of the
    # degenerate kernel on which solve_ness raises, and the report says so
    ham = {0: [LocalOperator(0, -np.kron(PAULI["Z"], PAULI["Z"]))] + [LocalOperator(i, 0.7 * PAULI["X"]) for i in (0, 1)]}
    model = ModelSpec(2, 4.0, ham, {}).validate()
    decay = solve_first_decay_mode(model, initial_guess(2, 2, 1, model.omega), quick_config(1, 4))
    lam = decay.eigenvalue
    assert abs(lam.real) < 1e-12
    assert decay.tau_relax == np.inf
    assert np.min(np.abs(np.linalg.eigvals(dense_extended_lindbladian(model, 1)) - lam)) < 1e-8
    assert decay.report.converged and abs(lam) <= decay.report.fixed_point_residual
    assert_kernel_mode_warning(decay)
    with pytest.raises(DegenerateSteadyStateError):
        solve_ness(model, quick_config(1, 4))


def assert_kernel_mode_warning(decay):
    # a converged lambda within its fixed-point residual of 0 is reported
    # as a mode of a degenerate kernel, and nothing else is warned about
    (warning,) = decay.report.warnings
    assert warning.startswith("decay eigenvalue") and "a mode of a degenerate kernel, which does not decay" in warning


@pytest.mark.parametrize("n_c", [1, 2])
def test_decay_mode_of_a_closed_driven_chain_does_not_decay(n_c):
    # the driven XZ chain without its jump: roundoff gives Re lambda of
    # either sign here (about -3e-16 at n_c = 1, +1e-16 at n_c = 2), and
    # neither sign may turn into a finite relaxation time; lambda itself
    # (about 1.96i) is no kernel mode, so nothing is warned about
    driven = small_driven_model()
    model = ModelSpec(driven.chain_length, driven.omega, driven.hamiltonian_fourier, {}).validate()
    decay = solve_first_decay_mode(model, initial_guess(2, 2, n_c, model.omega), quick_config(n_c, 4))
    lam = decay.eigenvalue
    assert abs(lam.real) <= decay.report.fixed_point_residual < 1e-12 < abs(lam)
    assert decay.tau_relax == np.inf
    assert np.min(np.abs(np.linalg.eigvals(dense_extended_lindbladian(model, n_c)) - lam)) < 1e-8
    assert decay.report.converged and not decay.report.warnings


def test_decay_mode_at_zero_converges():
    # Z dephasing keeps every diagonal state, so the slowest mode is a
    # traceless diagonal one at lambda = 0: its local eigenvalues lie within
    # about 1e-16 of each other and of zero, a spread that a residual
    # relative to the tracked value (1.70 on the second sweep) never calls
    # converged
    z = PAULI["Z"]
    ham = {0: [LocalOperator(i, 0.45 * z) for i in (0, 1)]}
    jumps = {f"z{i}": {0: LocalOperator(i, np.sqrt(0.3) * z)} for i in (0, 1)}
    model = ModelSpec(2, 5.0, ham, jumps).validate()
    decay = solve_first_decay_mode(model, initial_guess(2, 2, 1, 5.0), quick_config(1, 4))
    assert decay.report.converged
    assert abs(decay.eigenvalue) < 1e-12
    assert decay.tau_relax == np.inf
    assert_kernel_mode_warning(decay)


def test_solves_are_deterministic_for_a_seed():
    # one config solved twice gives the same state, eigenvalues, residual
    # and stage-log counters, bit for bit
    model = ising_l3()
    cfg = quick_config(1, 8)
    (first, report), (second, again) = [solve_ness(model, cfg) for _ in range(2)]
    blocks, other = first.to_dense_blocks(), second.to_dense_blocks()
    assert all(np.array_equal(blocks[n], other[n]) for n in blocks)
    assert report.eigenvalue == again.eigenvalue
    assert report.fixed_point_residual == again.fixed_point_residual
    for entry, repeated in zip(report.stage_log, again.stage_log, strict=True):
        assert {**entry, "seconds": 0} == {**repeated, "seconds": 0}
    decays = [solve_first_decay_mode(model, first, cfg) for _ in range(2)]
    assert decays[0].eigenvalue == decays[1].eigenvalue
    for side in ("right", "left"):
        blocks, other = (getattr(d, side).to_dense_blocks() for d in decays)
        assert all(np.array_equal(blocks[n], other[n]) for n in blocks)


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # DTC harmonics exceed n_c = 0
def test_unconverged_slow_rate_keeps_its_relaxation_time():
    # chi = 2 binds on the DTC chain: the solve finds the slow rate 0.0123
    # (1/tau = 0.012347 at n_c = 1) with a fixed-point residual about twice
    # as large, which bounds nothing about Re lambda before convergence, so
    # tau_relax stays -1/Re lambda next to the unconverged warning
    model = build_dtc_model(DTCParams(chain_length=3), n_c=1)
    cfg = quick_config(0, 2)
    ness, _ = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    lam = decay.eigenvalue
    assert not decay.report.converged
    assert any("above eig_tol" in w for w in decay.report.warnings)
    assert -lam.real < decay.report.fixed_point_residual
    assert decay.tau_relax == -1.0 / lam.real
    assert abs(decay.tau_relax * 0.012347015 - 1) < 0.01


def test_decay_mode_amplitude_damping():
    gamma = 0.8
    model = single_qubit_model(gamma=gamma)
    cfg = quick_config(0, 4)
    ness, _ = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    assert abs(decay.eigenvalue - (-gamma / 2)) < 1e-8
    assert abs(decay.tau_relax - 2.0 / gamma) < 1e-7
    assert decay.identity_overlap < 1e-8
    assert decay.steady_overlap < 1e-6
    assert decay.report.converged and not decay.report.warnings
    # the right mode's first sweep is solved by eig, the centre solves of
    # both modes at a shift, where the LU is exactly singular on this qubit
    # (the shift is an exact local eigenvalue) and the solve falls back to
    # eig; the right mode is also the left one, so the left solve's one
    # sweep is idle
    assert_right_solve_tracks_after_one_eig_sweep(decay, 1, "dense_fallback")
    logged = json.loads(json.dumps(decay.report.to_dict()))
    for entry, exported in zip(decay.report.stage_log, logged["stage_log"]):
        if entry["label"] == "decay right":
            assert exported["target"] == "slowest_central"
        else:
            assert exported["target"] == [decay.eigenvalue.real, -decay.eigenvalue.imag]
            assert len(entry["sweep_residuals"]) == 1
            assert entry["local_solves"] == counted(converged_start=1, dense_fallback=1)
    assert logged["fixed_point_residual"] == decay.report.fixed_point_residual < 1e-10


def test_decay_mode_with_positive_real_part_fails_before_the_left_solve(monkeypatch):
    # a growing right mode is refused as soon as the right solve returns it:
    # the left solve never runs
    model = single_qubit_model(gamma=0.8)
    cfg = quick_config(0, 4)
    ness, _ = solve_ness(model, cfg)
    original, labels = solver._sweep_schedule, []

    def growing(*args):
        labels.append(args[-1])
        engine, problem, _ = original(*args)
        return engine, problem, 0.25 + 0.5j

    monkeypatch.setattr(solver, "_sweep_schedule", growing)
    with pytest.raises(solver.SolverError, match="positive real part"):
        solve_first_decay_mode(model, ness, cfg)
    assert labels == ["decay right"]


def test_decay_mode_refuses_a_foreign_steady_state(monkeypatch):
    # the steady state must be the model's at the stage's cutoff: a state on
    # a longer chain, of another site dimension, at another drive frequency
    # or at another cutoff is refused before any sweep, where its
    # steady-state overlap warning would blame chi
    model = single_qubit_model(gamma=0.8)
    cfg = quick_config(0, 4)
    solve_first_decay_mode(model, initial_guess(1, 2, 0, 5.0), cfg)  # the model's geometry sweeps

    def refuse(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(solver, "_sweep_schedule", refuse)
    for foreign in [initial_guess(2, 2, 0, 5.0), initial_guess(1, 3, 0, 5.0), initial_guess(1, 2, 0, 7.0), initial_guess(1, 2, 1, 5.0)]:
        with pytest.raises(ValueError, match=r"ness has \(chain_length, site_dim, omega, n_c\)"):
            solve_first_decay_mode(model, foreign, cfg)


def test_decay_mode_of_undriven_chain_above_cutoff_zero():
    # without a drive the harmonic blocks decouple, so the right mode's first
    # eig leaves the blocks n != 0 exactly zero; the left solve starts from
    # them and must give the cutoff-0 answer
    zz = np.kron(PAULI["Z"], PAULI["Z"])
    model = ModelSpec(
        2,
        5.0,
        {0: [LocalOperator(0, 0.7 * zz), LocalOperator(0, 0.4 * PAULI["X"]), LocalOperator(1, 0.3 * PAULI["X"])]},
        {"a": {0: LocalOperator(0, 0.8 * SM)}, "b": {0: LocalOperator(1, 0.5 * SM)}},
    ).validate()
    lams = []
    for n_c in (0, 1):
        cfg = quick_config(n_c, 4)
        decay = solve_first_decay_mode(model, solve_ness(model, cfg)[0], cfg)
        assert decay.report.converged
        lams.append(decay.eigenvalue)
    assert all(decay.right.blocks[n].norm() == 0.0 for n in (-1, 1))
    assert abs(lams[1] - lams[0]) < 1e-10


def test_decay_mode_conjugate_pair():
    gamma, wz = 0.6, 1.3
    model = single_qubit_model(gamma=gamma, omega_z=wz)
    cfg = quick_config(0, 4)
    ness, _ = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    assert decay.conjugate_pair
    assert abs(decay.eigenvalue.real - (-gamma / 2)) < 1e-8
    assert abs(abs(decay.eigenvalue.imag) - wz) < 1e-8
    # the conjugate must be in the dense spectrum too
    dense = dense_extended_lindbladian(model, 0)
    eigs = np.linalg.eigvals(dense)
    assert np.min(np.abs(eigs - np.conj(decay.eigenvalue))) < 1e-8


@pytest.mark.parametrize("n_c, rotation", [(0, 3.0), (1, 2.0)])
def test_decay_mode_rotating_faster_than_half_omega(n_c, rotation):
    # omega_z = 3 exceeds omega / 2 = 2.5. Without a ladder (n_c = 0) there is
    # no zone and the mode is -0.3 +- 3i itself; with one, it is its central
    # copy -0.3 +- 2i (3 - omega), the same quasi-energy
    gamma = 0.6
    model = single_qubit_model(gamma=gamma, omega_z=3.0)
    cfg = quick_config(n_c, 4)
    ness, _ = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    assert abs(decay.eigenvalue - complex(-gamma / 2, rotation)) < 1e-8
    assert abs(decay.tau_relax - 2.0 / gamma) < 1e-7
    assert decay.report.converged and not decay.report.warnings


def central_slowest(model, n_c):
    """Slowest nonzero eigenvalue of the dense generator with |Im| < omega / 2,
    and the whole spectrum."""
    eigs = np.linalg.eigvals(dense_extended_lindbladian(model, n_c))
    central = eigs[(np.abs(eigs.imag) < model.omega / 2) & (eigs.real < -1e-8)]
    return central[np.argmax(central.real)], eigs


def pair_error(lam, exact):
    return min(abs(lam - exact), abs(np.conj(lam) - exact)) / abs(exact)


def damped_driven_qutrits(omega=3.0, gamma=0.3):
    lower = np.diag([1.0, np.sqrt(2.0)], k=1)
    sz, drive = np.diag([1.0, 0.0, -1.0]), 0.3 * (lower + lower.T)
    ham = {
        0: [LocalOperator(0, 0.4 * np.kron(sz, sz), 3)] + [LocalOperator(i, 0.7 * sz, 3) for i in range(2)],
        1: [LocalOperator(i, drive, 3) for i in range(2)],
        -1: [LocalOperator(i, drive, 3) for i in range(2)],
    }
    jumps = {i: {0: LocalOperator(i, np.sqrt(gamma) * lower, 3)} for i in range(2)}
    return ModelSpec(2, omega, ham, jumps, site_dim=3).validate()


def test_damped_driven_qutrit_chain_matches_the_dense_references():
    # no other solver test runs at d != 2: two driven, damped qutrits
    model = damped_driven_qutrits()
    cfg = quick_config(1, 9)
    ness, report = solve_ness(model, cfg)
    got, exact = ness.to_dense_blocks(), extended_null_vector(model, 1)
    assert ness.site_dim == 3 and report.converged
    assert max(np.max(np.abs(got[n] - exact[n])) for n in exact) < 1e-10
    decay = solve_first_decay_mode(model, ness, cfg)
    lam_exact, _ = central_slowest(model, 1)
    assert pair_error(decay.eigenvalue, lam_exact) < 1e-8
    assert decay.report.converged


def test_degeneracy_check_certifies_a_cluster_of_qutrit_values(monkeypatch, caplog):
    # at omega=4, gamma=0.5 the deflated centre problem (dim 243) has four
    # values within 5e-4 of its runner-up -0.4993929 (dense eig of the
    # whole generator), which Arnoldi on the inverse did not separate to the
    # sweeps' bound; the check only compares the gap with DEGENERACY_TOL, so
    # shift-invert accepts at that tolerance (34 inverse applications when
    # measured) with no eig fallback, and the residual bounds the gap's error
    checked = keep_checked_engine(monkeypatch)
    model = damped_driven_qutrits(omega=4.0, gamma=0.5)
    with caplog.at_level(logging.WARNING, logger="floquet_ness.solver"):
        _, report = solve_ness(model, quick_config(1, 9))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    ((_, _, before),) = checked
    (entry,) = report.stage_log
    assert {method: count - before[method] for method, count in entry["local_solves"].items()} == counted(shift_invert=1)
    assert entry["local_solves"]["dense_fallback"] == 0
    assert abs(entry["degeneracy_gap"] - 0.4993929) <= entry["degeneracy_residual"]


def test_decay_mode_l3_ising_vs_dense_spectrum():
    p = IsingBenchmarkParams(chain_length=3, omega=5.0, gamma=1.0)
    model = build_driven_ising(p)
    n_c = 2
    cfg = quick_config(n_c, 16, noise_amplitude=1e-5)
    ness, _ = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    lam_exact, eigs = central_slowest(model, n_c)
    assert pair_error(decay.eigenvalue, lam_exact) < 1e-8
    assert decay.report.converged
    # the truncated ladder carries a spurious copy at fold +-n_c whose real
    # part is larger than the central value's; it is not the decay mode
    fold = np.round(eigs.imag / model.omega)
    edge = eigs[(np.abs(fold) == n_c) & (eigs.real < -1e-8)]
    artifact = edge[np.argmax(edge.real)]
    assert artifact.real > lam_exact.real + 0.05
    assert pair_error(decay.eigenvalue, artifact) > 0.05


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # DTC harmonics exceed n_c = 1
def test_decay_mode_dtc_l3_central_zone():
    # the edge copy (-0.012314) is slower than the central mode (-0.012347)
    model = build_dtc_model(DTCParams(chain_length=3), n_c=1)
    cfg = quick_config(1, 16, seed=7)
    ness, _ = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    lam_exact, _ = central_slowest(model, 1)
    assert abs(lam_exact - (-0.012347015)) < 1e-9
    assert abs(decay.eigenvalue - lam_exact) < 1e-8
    assert decay.report.converged and not decay.report.warnings


def test_decay_mode_tethered_gmres_central_zone():
    # the right mode's first sweep is a dense eig (largest local dimension
    # 192, above the cutoff); its later sweeps solve the tethered system at
    # the tracked shift by GMRES, and so does the left mode at its shift;
    # ARPACK never runs
    model = ising_l3()
    ness, _ = solve_ness(model, quick_config(1, 8))
    decay = solve_first_decay_mode(model, ness, quick_config(1, 8, dense_local_cutoff=150))
    lam_exact, _ = central_slowest(model, 1)
    assert pair_error(decay.eigenvalue, lam_exact) < 1e-8
    assert decay.report.converged
    for label in ("decay right", "decay left"):
        entries = [e for e in decay.report.stage_log if e["label"] == label]
        assert sum(e["local_solves"]["tethered"] for e in entries) > 0
        assert sum(e["local_solves"]["arnoldi"] + e["local_solves"]["dense_fallback"] for e in entries) == 0


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # Ising harmonics exceed n_c = 0
def test_decay_mode_binding_chi_is_not_converged():
    # chi=2 binds on L=4 (exact bond 16): the sweep residuals stay above
    # eig_tol, the left eigenvalue misses conj(lambda) and the modes report
    # saturated bonds
    model = build_driven_ising(IsingBenchmarkParams(chain_length=4, omega=5.0))
    cfg = quick_config(0, 2)
    ness, _ = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    assert not decay.report.converged
    assert any("above eig_tol" in w for w in decay.report.warnings)
    assert any("bond dimension 2 saturated" in w for w in decay.report.warnings)
    assert decay.report.fixed_point_residual > 1e-6


@pytest.fixture(scope="module")
def ising_l3_decay():
    """Converged steady state and decay mode of Ising L=3, n_c=1, chi=8."""
    model = ising_l3()
    cfg = quick_config(1, 8)
    ness, report = solve_ness(model, cfg)
    return ness, report, solve_first_decay_mode(model, ness, cfg)


def test_hermiticity_defect_matches_dense_on_converged_state(ising_l3_decay):
    # rho^n and (rho^-n)^dag agree to rounding: the defect must not cancel
    # to sqrt(eps) or to an exact zero
    ness, report, _ = ising_l3_decay
    dense = ness.to_dense_blocks()
    ref = np.linalg.norm(dense[0])
    for n, defect in report.hermiticity_defects.items():
        exact = np.linalg.norm(dense[n] - dense[-n].conj().T) / ref
        assert abs(defect - exact) < 1e-12


def test_final_residual_decides_convergence(ising_l3_decay):
    # the decay solve's final residual is the worse of its two solves, so
    # converged == (final_residual <= eig_tol) holds for both solvers
    _, report, decay = ising_l3_decay
    last = {e["label"]: e["sweep_residuals"][-1] for e in decay.report.stage_log}
    assert decay.report.final_residual == max(last["decay right"], last["decay left"])
    for rep in (report, decay.report):
        assert rep.converged == (rep.final_residual <= 1e-10)
    assert decay.report.converged


def test_decay_report_describes_the_right_mode(ising_l3_decay):
    # the decay report carries the right mode's Schmidt values (2 n_c + 1
    # blocks of L - 1 bonds) and block norms, as the steady-state one does
    _, _, decay = ising_l3_decay
    logged = json.loads(json.dumps(decay.report.to_dict()))
    spectra = logged["schmidt_spectra"]
    assert sorted(map(int, spectra)) == [-1, 0, 1]
    assert all(len(bonds) == 2 and all(0 < len(s) <= 16 for s in bonds) for bonds in spectra.values())
    norms = block_norms(decay.right)
    assert logged["block_norm_profile"] == {str(n): v for n, v in norms.items()}
    assert logged["trace_defects"] == logged["hermiticity_defects"] == {}


def driven_damped_pair():
    """Two driven qubits with a ZZ coupling, each damped: a unique steady state on L = 2."""
    h1 = [LocalOperator(i, 0.175j * PAULI["X"]) for i in (0, 1)]
    ham = {0: [LocalOperator(0, -np.kron(PAULI["Z"], PAULI["Z"]))], 1: h1, -1: [LocalOperator(t.start, t.matrix.conj().T) for t in h1]}
    return ModelSpec(2, 4.0, ham, {i: {0: LocalOperator(i, np.sqrt(0.4) * SM)} for i in (0, 1)}).validate()


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # Ising harmonics exceed the cutoff
@pytest.mark.parametrize(("length", "n_c"), [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (5, 0)])
def test_report_numbers_come_from_the_engine(length, n_c, monkeypatch):
    # the spectra of every mode (steady state, right and left decay mode)
    # come from the engine's site stacks, walked out from the centre, and
    # agree with compress of the mode at the stage's bond and WEIGHT_CUTOFF;
    # the reported norms, traces and Hermiticity defects agree with their
    # block-by-block and dense values
    # at L = 5 the spectra walk two bonds out on each side of the centre
    models = {1: lambda: single_qubit_model(gamma=0.7, omega_z=1.1, drive=4.0), 2: driven_damped_pair, 3: ising_l3}
    model = models.get(length, lambda: build_driven_ising(IsingBenchmarkParams(chain_length=length)))()
    found, original = [], solver._schmidt_spectra

    def records(engine, chi, scale):
        spectra = original(engine, chi, scale)
        found.append((engine.state(), scale, spectra))
        return spectra

    monkeypatch.setattr(solver, "_schmidt_spectra", records)
    cfg = quick_config(n_c, 4)
    ness, report = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    assert len(found) == 3  # the steady state, the right and the left decay mode
    spec = TruncationSpec(max_rank=4, weight_cutoff=solver.WEIGHT_CUTOFF)
    for state, scale, spectra in found:
        _, _, expected = compress(state.scaled(scale), spec)
        for n in state.harmonics:
            assert [len(s) for s in spectra[n]] == [len(s) for s in expected[n]] and len(spectra[n]) == length - 1
            assert all(np.max(np.abs(s - e)) < 1e-12 for s, e in zip(spectra[n], expected[n]))
    for rep, state, (_, _, spectra) in ((report, ness, found[0]), (decay.report, decay.right, found[1])):
        assert rep.schmidt_spectra == {n: [list(map(float, s[:16])) for s in bonds] for n, bonds in spectra.items()}
        assert all(abs(rep.block_norm_profile[n] - state.blocks[n].norm()) < 1e-12 for n in state.harmonics)
    dense = ness.to_dense_blocks()
    for n in ness.harmonics:
        assert abs(report.trace_defects[n] - abs(ness.block_trace(n) - (n == 0))) < 1e-12
        exact = np.linalg.norm(dense[n] - dense[-n].conj().T) / np.linalg.norm(dense[0])
        assert abs(report.hermiticity_defects[n] - exact) < 1e-12


@pytest.mark.parametrize("cutoff", [solver.DENSE_LOCAL_HARD_CAP, 0], ids=["dense", "krylov"])
def test_degeneracy_check_takes_over_the_centre_operator(cutoff, monkeypatch):
    # the centre solve's write moves no environment, so the check deflates
    # that solve's own problem: it builds no second problem, and it assembles
    # nothing, since the centre solve assembled the dense operator (or above
    # the cutoff the diagonal blocks) that the deflation only adds to
    cfg = quick_config(1, 8, dense_local_cutoff=cutoff)
    solved, local_eigensolve = [], solver._local_eigensolve

    def keeps(problem, *args, **kwargs):
        solved.append(problem)
        return local_eigensolve(problem, *args, **kwargs)

    monkeypatch.setattr(solver, "_local_eigensolve", keeps)
    model = ising_l3()
    start = initial_guess(3, 2, 1, model.omega, noise_amplitude=cfg.noise_amplitude, seed=cfg.seed, noise_bond=8)
    engine, problem, _ = solver._sweep_schedule(
        build_extended_lindbladian(model, 1), start, cfg, solver.SolveReport(), 0.0, "ness"
    )
    assert problem is solved.pop() and problem.site == engine.center == 1
    kinds = ("dense", "blocks") if cutoff else ("blocks",)
    assert sorted(problem._assembled) == sorted(kinds)
    assemblies, built = [], []
    pair_blocks, init = solver.SiteProblem._pair_blocks, solver.SiteProblem.__init__

    def assembles(problem, *args):
        assemblies.append(problem)
        return pair_blocks(problem, *args)

    def builds(problem, *args):
        built.append(problem)
        init(problem, *args)

    monkeypatch.setattr(solver.SiteProblem, "_pair_blocks", assembles)
    monkeypatch.setattr(solver.SiteProblem, "__init__", builds)
    solved.clear()
    theta, _ = solver._deflated_check(problem, cfg, np.random.default_rng(3))
    assert solved == [problem] and built == [] and assemblies == []
    assert problem.deflation == solver.DEFLATION_SHIFT and sorted(problem._assembled) == sorted(kinds)
    assert abs(theta) > solver.DEGENERACY_TOL
    with pytest.raises(ValueError, match="already deflated"):
        solver._deflated_check(problem, cfg, np.random.default_rng(3))


def test_solves_free_their_engines_without_the_garbage_collector(monkeypatch):
    # a centre problem refers to its engine, but no engine refers to a
    # problem: so no reference cycle holds an engine, and with it a dense
    # operator, once a solve is done with it and its centre problem
    engines, problems, original = [], [], solver._sweep_schedule

    def keeps(*args):
        engine, problem, theta = original(*args)
        engines.append(weakref.ref(engine))
        problems.append(weakref.ref(problem))
        return engine, problem, theta

    monkeypatch.setattr(solver, "_sweep_schedule", keeps)
    model, cfg = ising_l3(), quick_config(1, 8)
    gc.disable()
    try:
        ness, _ = solve_ness(model, cfg)
        solve_first_decay_mode(model, ness, cfg)
        assert len(engines) == len(problems) == 3
        assert all(ref() is None for ref in engines + problems)
    finally:
        gc.enable()


def test_slowest_central_keeps_a_real_value_with_negative_roundoff():
    # a real value at about 0 whose imaginary roundoff is negative is central:
    # the pair rule compares Im with the spectrum's largest modulus, not with
    # the value's own, which dropped it for -0.6 + 0.9i; of a conjugate pair
    # only the upper member counts
    values = np.array([-0.6 + 0.9j, -0.6 - 0.9j, 6.3e-17 - 5.1e-17j, -1.0])
    engine = types.SimpleNamespace(cutoff=1, omega=4.0)
    theta, vec = solver._slowest_central(values, np.eye(4), engine)
    assert theta == values[2] and vec[2] == 1
    theta, vec = solver._slowest_central(values[[1, 0, 3]], np.eye(3), engine)
    assert theta == values[0] and vec[1] == 1


def test_decay_right_solve_tracks_a_shift_on_ising_l3(ising_l3_decay):
    assert_right_solve_tracks_after_one_eig_sweep(ising_l3_decay[2], 4, "shift_invert")


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # Ising harmonics exceed n_c = 0
def test_decay_modes_are_returned_as_swept(ising_l3_decay, monkeypatch):
    # the penalty is the only trace mechanism: the right mode is the right
    # solve's swept state, untouched, and the overlaps measure the solve. On
    # the converged L=3 run they vanish; where chi = 2 binds on L=4 they do
    # not, and both warn
    ness, _, decay = ising_l3_decay
    assert all("repair_discarded_weight" not in e for e in decay.report.stage_log)
    assert decay.identity_overlap < 1e-8 and decay.steady_overlap < 1e-6
    original, engines = solver._sweep_schedule, {}

    def keeps(*args):
        engines[args[-1]], *rest = original(*args)
        return engines[args[-1]], *rest

    monkeypatch.setattr(solver, "_sweep_schedule", keeps)
    again = solve_first_decay_mode(ising_l3(), ness, quick_config(1, 8))
    assert again.eigenvalue == decay.eigenvalue
    swept = engines["decay right"].state()
    for n, block in again.right.blocks.items():
        assert all(np.array_equal(a, b) for a, b in zip(block.tensors, swept.blocks[n].tensors))
    model = ising_l4()
    cfg = quick_config(0, 2)
    binding = solve_first_decay_mode(model, solve_ness(model, cfg)[0], cfg)
    assert binding.identity_overlap > 1e-6 and binding.steady_overlap > 1e-6
    assert any(w.startswith("identity overlap") for w in binding.report.warnings)
    assert any(w.startswith("steady-state overlap") for w in binding.report.warnings)


def test_slowest_central_is_always_dense(monkeypatch):
    # above the dense cutoff the slowest central value still comes from a
    # dense eig; above the hard cap it raises; ARPACK is never called
    model = single_qubit_model(gamma=0.7, omega_z=1.1, drive=4.0)
    mpo = build_extended_lindbladian(model, 1)
    state = initial_guess(1, 2, 1, model.omega, noise_amplitude=1e-2, seed=3)
    engine = SweepEngine(mpo, state)
    problem = engine.site_problem()

    def refuse(*args, **kwargs):
        raise AssertionError("ARPACK called")

    monkeypatch.setattr(solver.spla, "eigs", refuse)
    theta, _ = solver._local_eigensolve(
        problem, problem.current_vector(), "slowest_central", tol=1e-10, dense_cutoff=4
    )
    assert problem.dim == 12
    values = np.linalg.eigvals(problem.dense_matrix())
    central = values[(np.abs(values.imag) < model.omega / 2) & (values.imag > -1e-10 * np.abs(values).max())]
    assert abs(theta - central[np.argmax(central.real)]) < 1e-12
    assert engine.local_solves == counted(dense_eig=1)
    monkeypatch.setattr(solver, "DENSE_LOCAL_HARD_CAP", problem.dim - 1)
    with pytest.raises(EigensolverBreakdown, match="above the dense cap"):
        solver._local_eigensolve(
            problem, problem.current_vector(), "slowest_central", tol=1e-10, dense_cutoff=4
        )
    assert engine.local_solves == counted(dense_eig=1)


def test_slowest_central_without_central_value_breaks_down(monkeypatch):
    # a dense spectrum of edge copies only (|Im theta| > omega / 2) has no
    # slowest central value: the solve raises instead of taking an edge copy
    model = single_qubit_model(gamma=0.7, omega_z=1.1, drive=4.0)
    mpo = build_extended_lindbladian(model, 1)
    state = initial_guess(1, 2, 1, model.omega, noise_amplitude=1e-2, seed=3)
    problem = SweepEngine(mpo, state).site_problem()

    def edge_copies(mat):
        values = np.full(mat.shape[0], -0.35 + 1j * model.omega)
        values[::2] = values[::2].conj()
        return values, np.eye(mat.shape[0], dtype=complex)

    monkeypatch.setattr(solver.np.linalg, "eig", edge_copies)
    with pytest.raises(EigensolverBreakdown, match="no central local eigenvalue"):
        solver._local_eigensolve(
            problem, problem.current_vector(), "slowest_central", tol=1e-10, dense_cutoff=100
        )


def test_transient_limits():
    gamma = 0.9
    model = single_qubit_model(gamma=gamma)
    cfg = quick_config(0, 4)
    ness, _ = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    obs = LocalOperator(0, PAULI["Z"])
    rho_init = [np.diag([0.2, 0.8]).astype(complex)]
    times = np.linspace(0.0, 60.0, 121)
    series = transient_observable(ness, decay, rho_init, obs, times)
    # long times must land on the steady value
    from floquet_ness.observables import expectation_series

    steady = expectation_series(ness, obs, times)
    assert abs(series.values[-1] - steady.values[-1]) < 1e-8
    # injecting the steady state itself leaves a flat series
    flat = transient_observable(ness, decay, ness, obs, times)
    assert np.max(np.abs(flat.values - steady.values)) < 1e-6


def test_transient_matches_master_equation_after_fast_modes():
    gamma, wz = 0.8, 1.3
    model = single_qubit_model(gamma=gamma, omega_z=wz)
    cfg = quick_config(0, 4)
    ness, _ = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    # tilted pure state excites the slow coherence pair
    ket = np.array([np.sqrt(0.2), np.sqrt(0.8)])
    rho0 = np.outer(ket, ket.conj()).astype(complex)
    obs = LocalOperator(0, PAULI["X"])
    tau = decay.tau_relax
    times = np.linspace(0.0, 8 * tau, 161)
    from floquet_ness.exact import evolve_master_equation

    traj = evolve_master_equation(model, rho0, times, tol=1e-12)
    exact_vals = np.real([np.trace(PAULI["X"] @ r) for r in traj])
    recon = transient_observable(ness, decay, [rho0], obs, times)
    window = times >= 3 * tau
    scale = np.max(np.abs(exact_vals[window]))
    err = np.max(np.abs(recon.values[window] - exact_vals[window]))
    assert err <= 0.05 * scale
    # for this two-level model the slow pair is exact at all times
    assert np.max(np.abs(recon.values - exact_vals)) < 1e-6


def test_transient_matches_master_equation_on_driven_qubit():
    # a driven qubit: the decaying mode carries micro-motion, and the t = 0
    # pairing sums several harmonics
    x = LocalOperator(0, PAULI["X"])
    ham = {0: [LocalOperator(0, 0.5 * PAULI["Z"])], 1: [x.scaled(0.3)], -1: [x.scaled(0.3)]}
    model = ModelSpec(1, 3.0, ham, {"d": {0: LocalOperator(0, np.sqrt(0.5) * SM)}}).validate()
    cfg = quick_config(4, 4, seed=3)
    ness, report = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    assert report.converged and decay.report.converged
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    tau = decay.tau_relax
    times = np.linspace(0.0, 12 * tau, 400)
    from floquet_ness.exact import evolve_master_equation
    from floquet_ness.observables import expectation_series

    traj = evolve_master_equation(model, rho0, times, tol=1e-11)
    expect = np.real([np.trace(PAULI["X"] @ rho) for rho in traj])
    recon = transient_observable(ness, decay, [rho0], x, times)
    steady = expectation_series(ness, x, times)
    window = times >= 4 * tau
    assert np.max(np.abs(recon.values[window] - expect[window])) <= 1e-5
    # the slow mode still matters there: the steady series alone is far off
    assert np.max(np.abs(steady.values[window] - expect[window])) > 1e-3


def test_normalization_idempotence():
    model = single_qubit_model(gamma=0.5, omega_z=0.4)
    cfg = quick_config(1, 4)
    state, _ = solve_ness(model, cfg)
    # one extra production sweep must not move the observables
    mpo = build_extended_lindbladian(model, 1)
    extra = quick_config(1, 4, warmup=SweepStage(n_c=1, chi=4, sweeps=1))
    engine, _, _ = solver._sweep_schedule(mpo, state, extra, solver.SolveReport(), 0.0, "extra")
    again = engine.state()
    t0 = again.block_trace(0)
    again = again.scaled(1.0 / t0)
    obs = LocalOperator(0, PAULI["Z"])
    from floquet_ness.observables import expectation_series

    times = np.linspace(0, 2 * np.pi / model.omega, 13)
    a = expectation_series(state, obs, times)
    b = expectation_series(again, obs, times)
    assert np.max(np.abs(a.values - b.values)) < 10 * cfg.eig_tol + 1e-12


def test_config_validation():
    with pytest.raises(ValueError, match="at least one sweep"):
        SweepConfig(warmup=SweepStage(1, 4, 0)).validate()
    with pytest.raises(ValueError, match="eig_tol"):
        SweepConfig(warmup=SweepStage(1, 4, 2), eig_tol=0.0).validate()
    # a NaN tolerance failed deep inside the local solve, an infinite one
    # reported every solve converged, and infinite noise failed in scipy
    for name, value in [("eig_tol", np.nan), ("eig_tol", np.inf), ("noise_amplitude", np.nan), ("noise_amplitude", np.inf)]:
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SweepConfig(warmup=SweepStage(1, 4, 2), **{name: value}).validate()
    # a negative cutoff or an empty bond would fail deep inside the solve
    with pytest.raises(ValueError, match="n_c"):
        SweepConfig(warmup=SweepStage(-1, 4, 3)).validate()
    with pytest.raises(ValueError, match="chi"):
        SweepConfig(warmup=SweepStage(1, 0, 3)).validate()
    # above the hard cap a dense problem would be too large to factor
    for cutoff in (-1, solver.DENSE_LOCAL_HARD_CAP + 1, 5000):
        with pytest.raises(ValueError, match="dense_local_cutoff"):
            SweepConfig(warmup=SweepStage(1, 4, 2), dense_local_cutoff=cutoff).validate()
    for cutoff in (0, 4, 40, 150, solver.DENSE_LOCAL_HARD_CAP):
        SweepConfig(warmup=SweepStage(1, 4, 2), dense_local_cutoff=cutoff).validate()
    # a float chi ran and was logged as a float, a float dense cutoff ran,
    # and a float n_c or sweep count failed deep inside the solve
    # (a bool is refused too)
    for name, stage in [
        ("n_c", SweepStage(1.0, 4, 2)),
        ("chi", SweepStage(1, 8.0, 3)),
        ("sweeps", SweepStage(1, 4, 3.0)),
        ("sweeps", SweepStage(1, 4, True)),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SweepConfig(warmup=stage).validate()
    with pytest.raises(ValueError, match="dense_local_cutoff must be an integer"):
        SweepConfig(warmup=SweepStage(1, 4, 2), dense_local_cutoff=40.5).validate()
    # a float or string seed failed inside numpy's SeedSequence, a negative
    # one too, and True ran as seed 1
    for seed in (1.5, "3", True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SweepConfig(warmup=SweepStage(1, 4, 2), seed=seed).validate()
    with pytest.raises(ValueError, match="seed must be at least 0"):
        SweepConfig(warmup=SweepStage(1, 4, 2), seed=-1).validate()
    SweepConfig(warmup=SweepStage(1, 4, 2), seed=0).validate()
    # a warmup that is no SweepStage failed inside dataclasses.asdict
    for warmup in (None, (1, 4, 2)):
        with pytest.raises(ValueError, match=r"warmup must be a SweepStage, got (None|\(1, 4, 2\))"):
            SweepConfig(warmup=warmup).validate()
    SweepConfig(
        warmup=SweepStage(np.int64(1), np.int32(4), np.int64(2)), dense_local_cutoff=np.int64(40), seed=np.int64(5)
    ).validate()


@pytest.mark.parametrize("amplitude", [0.0, -1e-6])
def test_config_rejects_noiseless_start(amplitude):
    # single-site sweeps cannot grow a bond: without noise every block but
    # the product-state static one would stay at bond 1
    cfg = quick_config(1, 4, noise_amplitude=amplitude)
    with pytest.raises(ValueError, match="noise_amplitude"):
        cfg.validate()
    with pytest.raises(ValueError, match="noise_amplitude"):
        solve_ness(single_qubit_model(), cfg)


def test_solve_ness_refuses_an_empty_chain_before_building_its_start():
    # the model is validated before the start is built, so an empty chain is
    # named as such instead of failing in the start's MPS
    with pytest.raises(ValueError, match="chain_length must be at least 1"):
        solve_ness(ModelSpec(0, 5.0), quick_config(1, 4))


def test_schedule_builder_monotone():
    stages = make_warmup_schedule(4, 32)
    SweepConfig(warmup=stages).validate()
    assert stages == SweepStage(4, 32, 11)
    assert make_warmup_schedule(0, 16, 2, 6) == SweepStage(0, 16, 8)
