import json
import logging

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from floquet_ness.freqspace import FloquetDensityMatrix, block_norms, initial_guess, trace_components
from floquet_ness.liouvillian import (
    ModelSpec,
    build_extended_lindbladian,
    dense_extended_lindbladian,
    extended_null_vector,
)
from floquet_ness.mps import Mps
from floquet_ness.models import IsingBenchmarkParams, build_driven_ising
from floquet_ness import solver
from floquet_ness.solver import (
    PENALTY_DELTA,
    PENALTY_P0,
    PENALTY_P1,
    DegenerateSteadyStateError,
    EigensolverBreakdown,
    StaleEnvironmentError,
    SweepConfig,
    SweepEngine,
    SweepStage,
    _penalty_terms,
    make_warmup_schedule,
    solve_first_decay_mode,
    solve_ness,
    transient_observable,
)
from floquet_ness.superops import PAULI, LocalOperator, vectorize_choi
from floquet_ness.tensors import TruncationSpec

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
    engine = SweepEngine(mpo, state, TruncationSpec())
    problem = engine.site_problem(0)
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

    Column j is the state whose active site tensor(s) are the j-th local
    basis tensor and whose other sites are the engine's frames.
    """
    first = problem.site
    last = first + 1 if problem.two_site else first
    d = engine.phys**engine.length
    columns = []
    for h, (n, shape) in enumerate(problem.shapes.items()):
        for idx in np.ndindex(shape):
            basis = np.zeros(shape, dtype=complex)
            basis[idx] = 1.0
            if problem.two_site:
                p1, p2, l, r = shape
                active = [
                    basis.transpose(0, 2, 1, 3).reshape(p1, l, p2 * r),
                    np.eye(p2 * r).reshape(p2 * r, p2, r).transpose(1, 0, 2),
                ]
            else:
                active = [basis]
            tensors = engine.blocks[n][:first] + active + engine.blocks[n][last + 1 :]
            column = np.zeros(len(problem.shapes) * d, dtype=complex)
            column[h * d : (h + 1) * d] = Mps(tensors).to_dense()
            columns.append(column)
    return np.array(columns).T


@pytest.mark.parametrize("terms", ["none", "uncoupled", "coupled"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@pytest.mark.parametrize("two_site", [False, True], ids=["one", "two"])
def test_local_operator_matches_dense_projection(two_site, adjoint, terms):
    # the local matrix at every site equals Phi^dag (L + sum c |v><v|) Phi,
    # Phi mapping local coordinates to the full space through the frames;
    # blocks carry different bond dimensions per harmonic
    model = driven_three_site_model()
    n_c, length = 1, 3
    rng = np.random.default_rng(5)
    blocks = {n: Mps.random(length, 4, chi, rng, norm=1.0) for n, chi in ((-1, 1), (0, 3), (1, 2))}
    state = FloquetDensityMatrix(blocks, model.omega, n_c, length)
    mpo = build_extended_lindbladian(model, n_c)
    dense = dense_extended_lindbladian(model, n_c)
    if adjoint:
        mpo, dense = mpo.adjoint(), dense.conj().T
    partial = FloquetDensityMatrix(
        {n: Mps.random(length, 4, 2, rng, norm=1.0) for n in (-1, 0)}, model.omega, n_c, length
    )
    rank_one = {
        "none": [],
        "uncoupled": [
            solver.RankOneTerm(-3.0, solver.identity_operator_state(length, model.omega, n_c, [-1, 1]), coupled=False)
        ],
        # vectors lacking a harmonic, as the decay solve's shifted steady states do
        "coupled": [
            solver.RankOneTerm(-2.0 + 1.0j, partial, coupled=True),
            solver.RankOneTerm(-1.5, partial.shifted(1), coupled=True),
        ],
    }[terms]
    for term in rank_one:
        groups = [term.vector.blocks] if term.coupled else [{n: b} for n, b in term.vector.blocks.items()]
        for group in groups:
            v = np.concatenate(
                [group[n].to_dense() if n in group else np.zeros(4**length) for n in (-1, 0, 1)]
            )
            dense = dense + term.coefficient * np.outer(v, v.conj())
    for site in range(length - 1 if two_site else length):
        engine = SweepEngine(mpo, state, TruncationSpec(), rank_one)
        engine.advance_to(site)
        problem = engine.site_problem(site, two_site)
        local = problem.dense_matrix()
        phi = frame_map(engine, problem)
        assert np.max(np.abs(phi.conj().T @ dense @ phi - local)) < 1e-10
        x = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
        assert np.max(np.abs(problem.matvec(x) - local @ x)) < 1e-12
        stacked = np.concatenate([state.block(n).to_dense() for n in (-1, 0, 1)])
        assert np.max(np.abs(phi @ problem.current_vector() - stacked)) < 1e-12


@pytest.mark.parametrize("trace0", [1.0, 0.004])
def test_local_operator_with_penalties_equals_dense(trace0):
    # one site: the local problem is the whole extended space, so the
    # penalized local matrix is the dense generator minus P0 |I><I| in every
    # nonstatic block and minus the damping P1 exp(-|Tr rho^0|^2 / delta^2)
    model = single_qubit_model(gamma=0.7, omega_z=1.1, drive=4.0)
    n_c = 1
    mpo = build_extended_lindbladian(model, n_c)
    state = initial_guess(1, 2, n_c, model.omega, noise_amplitude=1e-2, seed=3)
    state = state.scaled(trace0 / state.block_trace(0))
    terms, scalar = _penalty_terms(n_c, 1, model.omega, 2)
    engine = SweepEngine(mpo, state, TruncationSpec(), terms, scalar)
    assert abs(engine.block_trace(0) - trace0) < 1e-12
    local = engine.site_problem(0).dense_matrix()
    kappa = np.exp(-(trace0**2) / PENALTY_DELTA**2)
    if trace0 == 1.0:
        assert kappa == 0.0  # the damping underflows once the trace is there
    expect = dense_extended_lindbladian(model, n_c) - PENALTY_P1 * kappa * np.eye(12)
    eye = vectorize_choi(np.eye(2))
    for n in (-1, 1):
        block = slice((n + n_c) * 4, (n + n_c + 1) * 4)
        expect[block, block] -= PENALTY_P0 * np.outer(eye, eye)
    assert np.max(np.abs(local - expect)) < 1e-9


def test_stale_problem_rejected():
    model = single_qubit_model()
    mpo = build_extended_lindbladian(model, 0)
    state = initial_guess(1, 2, 0, model.omega, noise_amplitude=1e-3, seed=1)
    engine = SweepEngine(mpo, state, TruncationSpec())
    problem = engine.site_problem(0)
    vec = problem.current_vector()
    engine.set_site(0, problem.unpack(vec))
    with pytest.raises(StaleEnvironmentError):
        problem.matvec(vec)


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


def test_solve_ness_detects_degenerate_steady_space():
    model = ModelSpec(
        1, 2.0, {}, {"z": {0: LocalOperator(0, PAULI["Z"])}}
    ).validate()
    cfg = quick_config(0, 2)
    with pytest.raises(DegenerateSteadyStateError):
        solve_ness(model, cfg)


def test_breakdown_retry_keeps_degeneracy_check(monkeypatch):
    # the restart after an eigensolver breakdown must still look for a
    # second near-zero mode in the production stage
    model = ModelSpec(
        1, 2.0, {}, {"z": {0: LocalOperator(0, PAULI["Z"])}}
    ).validate()
    original = solver._local_eigensolve
    injected = []

    def breaks_once(problem, v0, which, *args, want_second=False, **kwargs):
        if want_second and not injected:
            injected.append(problem.dim)
            raise EigensolverBreakdown("injected breakdown")
        return original(problem, v0, which, *args, want_second=want_second, **kwargs)

    monkeypatch.setattr(solver, "_local_eigensolve", breaks_once)
    with pytest.raises(DegenerateSteadyStateError):
        solve_ness(model, quick_config(0, 2))
    assert injected


def test_partial_arpack_result_is_not_accepted(monkeypatch, caplog):
    # ARPACK that gives up with a wrong partial eigenvalue: both attempts
    # fail, the dense fallback answers and says so; above the hard cap the
    # solve breaks down instead
    model = single_qubit_model(gamma=0.7, omega_z=1.1, drive=4.0)
    mpo = build_extended_lindbladian(model, 1)
    state = initial_guess(1, 2, 1, model.omega, noise_amplitude=1e-2, seed=3)
    problem = SweepEngine(mpo, state, TruncationSpec()).site_problem(0)
    attempts = []

    def partial(op, k=1, **kwargs):
        attempts.append(kwargs["maxiter"])
        raise ArpackNoConvergence("injected", np.array([0.5 + 0j]), np.ones((op.shape[0], 1), complex))

    monkeypatch.setattr(solver.spla, "eigs", partial)
    solve = dict(v0=problem.current_vector(), which="nearest_zero", tol=1e-10, dense_cutoff=4)
    with caplog.at_level(logging.WARNING, logger="floquet_ness.solver"):
        theta, _, _ = solver._local_eigensolve(problem, **solve)
    values = np.linalg.eigvals(problem.dense_matrix())
    assert abs(theta - values[np.argmin(np.abs(values))]) < 1e-12
    assert abs(theta) < 1e-10
    assert attempts == [solver.ARPACK_MAXITER, 2 * solver.ARPACK_MAXITER]
    assert any(r.levelno == logging.WARNING and "Arnoldi failed" in r.getMessage() for r in caplog.records)
    monkeypatch.setattr(solver, "DENSE_LOCAL_HARD_CAP", problem.dim - 1)
    with pytest.raises(EigensolverBreakdown):
        solver._local_eigensolve(problem, **solve)


def ising_l3():
    return build_driven_ising(IsingBenchmarkParams(chain_length=3, omega=5.0))


def counted(**counts):
    return {**dict.fromkeys(solver.LOCAL_METHODS, 0), **counts}


@pytest.mark.parametrize("penalties", [False, True], ids=["bare", "penalized"])
@pytest.mark.parametrize("two_site", [False, True], ids=["one", "two"])
@pytest.mark.parametrize("start", ["guess", "random"])
def test_shift_invert_matches_dense_eig(start, two_site, penalties):
    # at every site the shift-invert pair is LAPACK's eigenpair nearest zero;
    # from the noisy guess it takes several Arnoldi steps, and on the random
    # state the one-site edge problems have that eigenvalue at |theta| ~ 1
    model = ising_l3()
    n_c = 1
    mpo = build_extended_lindbladian(model, n_c)
    if start == "guess":
        state = initial_guess(3, 2, n_c, model.omega, noise_amplitude=1e-2, seed=3)
    else:
        rng = np.random.default_rng(5)
        blocks = {n: Mps.random(3, 4, 4, rng, norm=1.0) for n in range(-n_c, n_c + 1)}
        state = FloquetDensityMatrix(blocks, model.omega, n_c, 3, 2)
    terms, scalar = _penalty_terms(n_c, 3, model.omega, 2) if penalties else ([], None)
    for site in range(3 - two_site):
        engine = SweepEngine(mpo, state, TruncationSpec(), terms, scalar)
        engine.advance_to(site)
        problem = engine.site_problem(site, two_site)
        mat = problem.dense_matrix()
        values, vectors = np.linalg.eig(mat)
        best = np.argmin(np.abs(values))
        theta, vec, second = solver._local_eigensolve(
            problem, problem.current_vector(), "nearest_zero", tol=1e-11, dense_cutoff=700
        )
        assert engine.local_solves == counted(shift_invert=1)
        assert abs(theta - values[best]) <= 1e-12 * np.linalg.norm(mat)
        assert abs(np.vdot(vectors[:, best], vec)) >= 1 - 1e-10
        assert second is None


@pytest.mark.parametrize("case", ["singular", "zero_start", "budget"])
def test_refused_shift_invert_returns_the_eig_answer(case, monkeypatch, caplog):
    # an exactly singular matrix, a zero start vector and a step budget the
    # noisy guess cannot meet each fall back to np.linalg.eig and say so
    model = ising_l3()
    mpo = build_extended_lindbladian(model, 1)
    state = initial_guess(3, 2, 1, model.omega, noise_amplitude=1e-2, seed=3)
    engine = SweepEngine(mpo, state, TruncationSpec())
    problem = engine.site_problem(0)
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
        theta, vec, second = solver._local_eigensolve(
            problem, v0, "nearest_zero", tol=1e-11, dense_cutoff=700
        )
    expect_theta, expect_vec, expect_second = solver._leading(*np.linalg.eig(mat), "nearest_zero")
    assert theta == expect_theta and second == expect_second
    assert np.array_equal(vec, expect_vec)
    assert engine.local_solves == counted(dense_fallback=1)
    assert any(
        r.levelno == logging.DEBUG and "shift-invert refused" in r.getMessage() for r in caplog.records
    )


def test_stage_log_counts_local_solves_by_method():
    # every local solve is counted once, under the method that answered it:
    # shift-invert, except the degeneracy check at the centre site of the
    # production stage, which needs the runner-up eigenvalue from eig
    _, report = solve_ness(ising_l3(), quick_config(1, 8))
    last = len(report.stage_log) - 1
    for idx, entry in enumerate(report.stage_log):
        counts = entry["local_solves"]
        sweeps = len(entry["sweep_residuals"])
        assert sum(counts.values()) == sweeps * len(solver._sweep_sites(3, entry["two_site"]))
        checks = 2 * sweeps if idx == last else 0  # the centre site, once per direction
        assert counts == counted(dense_eig=checks, shift_invert=sum(counts.values()) - checks)
    logged = json.loads(json.dumps(report.to_dict()))["stage_log"]
    assert [e["local_solves"] for e in logged] == [e["local_solves"] for e in report.stage_log]


def test_stage_log_reports_discarded_weight_and_bond():
    # chi=2 binds on the L=3 chain (bonds up to 4): two-site warm-up
    # sweeps truncate and must say how much
    model = build_driven_ising(IsingBenchmarkParams(chain_length=3, omega=5.0))
    _, report = solve_ness(model, quick_config(1, 2))
    *warm, final = report.stage_log
    assert all(entry["two_site"] for entry in warm) and not final["two_site"]
    for entry in report.stage_log:
        assert len(entry["discarded_weight"]) == len(entry["max_bond"]) == len(entry["sweep_residuals"])
        assert max(entry["max_bond"]) == 2
    assert all(min(entry["discarded_weight"]) > 0 for entry in warm)
    assert final["discarded_weight"] == [0.0] * len(final["sweep_residuals"])
    logged = json.loads(json.dumps(report.to_dict()))["stage_log"]
    assert logged[0]["discarded_weight"] == warm[0]["discarded_weight"]


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
    # the largest_real target is never shift-inverted
    for entry in decay.report.stage_log:
        assert entry["local_solves"]["dense_eig"] == sum(entry["local_solves"].values()) > 0


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


def test_decay_mode_l3_ising_vs_dense_spectrum():
    p = IsingBenchmarkParams(chain_length=3, omega=5.0, gamma=1.0)
    model = build_driven_ising(p)
    n_c = 2
    cfg = quick_config(n_c, 16, noise_amplitude=1e-5)
    ness, _ = solve_ness(model, cfg)
    decay = solve_first_decay_mode(model, ness, cfg)
    dense = dense_extended_lindbladian(model, n_c)
    eigs = np.linalg.eigvals(dense)
    # fold into the first zone and find the slowest genuine decay
    fold = np.round(eigs.imag / model.omega)
    folded = eigs - 1j * fold * model.omega
    nonzero = folded[folded.real < -1e-8]
    lam_exact = nonzero[np.argmax(nonzero.real)]
    err = min(
        abs(decay.eigenvalue - lam_exact), abs(np.conj(decay.eigenvalue) - lam_exact)
    ) / abs(lam_exact)
    assert err < 1e-3


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


def test_normalization_idempotence():
    model = single_qubit_model(gamma=0.5, omega_z=0.4)
    cfg = quick_config(1, 4)
    state, _ = solve_ness(model, cfg)
    # one extra production sweep must not move the observables
    mpo = build_extended_lindbladian(model, 1)
    engine = SweepEngine(mpo, state, TruncationSpec(max_rank=4))
    stage = SweepStage(n_c=1, chi=4, sweeps=1, penalties_on=False, two_site=False)
    solver._run_sweeps(engine, cfg, stage, "nearest_zero", label="extra")
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
    with pytest.raises(ValueError):
        SweepConfig(warmup=[]).validate()
    bad = [SweepStage(n_c=2, chi=8), SweepStage(n_c=1, chi=8)]
    with pytest.raises(ValueError):
        SweepConfig(warmup=bad).validate()


def test_schedule_builder_monotone():
    stages = make_warmup_schedule(4, 32)
    cfg = SweepConfig(warmup=stages)
    cfg.validate()
    assert stages[-1].penalties_on is False
    assert stages[-1].n_c == 4 and stages[-1].chi == 32
