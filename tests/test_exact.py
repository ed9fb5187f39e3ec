import numpy as np
import pytest

from floquet_ness import exact
from floquet_ness.exact import (
    beta_from_entropy,
    entropy_of_density,
    evolve_master_equation,
    floquet_propagator_modes,
    gibbs_entropy,
    gibbs_state,
    solve_fre,
)
from floquet_ness.liouvillian import (
    ModelSpec,
    dense_extended_lindbladian,
    extended_null_vector,
)
from floquet_ness.models import IsingBenchmarkParams, OhmicBath, build_driven_ising
from floquet_ness.superops import PAULI, LocalOperator

SM = np.array([[0, 1], [0, 0]], dtype=complex)


def damping_model(gamma=1.0, omega_z=0.0):
    ham = {0: [LocalOperator(0, omega_z * PAULI["Z"] / 2)]} if omega_z else {}
    return ModelSpec(
        1, 3.0, ham, {"d": {0: LocalOperator(0, np.sqrt(gamma) * SM)}}
    ).validate()


def test_zero_generator_constant_trajectory():
    model = ModelSpec(1, 1.0, {}, {}).validate()
    rho0 = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    traj = evolve_master_equation(model, rho0, np.linspace(0, 3, 7))
    for rho in traj:
        assert np.max(np.abs(rho - rho0)) < 1e-12


def test_amplitude_damping_closed_form():
    gamma = 0.8
    model = damping_model(gamma=gamma)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    times = np.linspace(0, 4, 21)
    traj = evolve_master_equation(model, rho0, times, tol=1e-11)
    pops = np.real(traj[:, 1, 1])
    assert np.max(np.abs(pops - np.exp(-gamma * times))) < 1e-8
    z_vals = np.real(traj[:, 0, 0] - traj[:, 1, 1])
    assert np.max(np.abs(z_vals - (1 - 2 * np.exp(-gamma * times)))) < 1e-8


def test_trace_and_hermiticity_preserved():
    p = IsingBenchmarkParams(chain_length=3)
    model = build_driven_ising(p)
    rho0 = np.eye(8, dtype=complex) / 8
    traj = evolve_master_equation(model, rho0, np.linspace(0, 2, 5), tol=1e-10)
    for rho in traj:
        assert abs(np.trace(rho) - 1.0) < 1e-8
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-8


def test_propagator_modes_static_model():
    gamma, wz = 0.9, 1.1
    model = damping_model(gamma=gamma, omega_z=wz)
    modes = floquet_propagator_modes(model, n_c=2, n_time_samples=16)
    assert np.all(np.abs(modes.multipliers) <= 1 + 1e-8)
    # static model: folded rates match the generator spectrum mod i omega
    dense_eigs = np.linalg.eigvals(dense_extended_lindbladian(model, 0))
    for lam in dense_eigs:
        fold = np.round(lam.imag / model.omega)
        folded = lam - 1j * fold * model.omega
        assert np.min(np.abs(modes.rates - folded)) < 1e-6
    # steady mode of a static model carries no micro-motion
    for n, mat in modes.steady_mode_fourier.items():
        if n != 0:
            assert np.max(np.abs(mat)) < 1e-8
    assert np.max(np.abs(modes.steady_mode_fourier[0] - np.diag([1.0, 0.0]))) < 1e-8


def test_propagator_modes_match_null_vector_blocks():
    model = build_driven_ising(IsingBenchmarkParams(chain_length=3, omega=5.0))
    n_c = 4
    modes = floquet_propagator_modes(model, n_c=n_c, n_time_samples=64, tol=1e-12)
    blocks = extended_null_vector(model, n_c=6)
    for n in range(-n_c, n_c + 1):
        assert np.max(np.abs(modes.steady_mode_fourier[n] - blocks[n])) < 1e-7


def test_propagator_modes_build_each_transfer_once(monkeypatch):
    # the propagator and the sampled steady mode share one dense build per transfer
    drive = [LocalOperator(0, 0.3 * PAULI["X"])]
    ham = {0: [LocalOperator(0, PAULI["Z"] / 2)], 1: drive, -1: drive}
    model = ModelSpec(1, 3.0, ham, {"d": {0: LocalOperator(0, SM)}}).validate()
    calls = []
    build = exact.dense_fourier_superoperator
    monkeypatch.setattr(
        exact, "dense_fourier_superoperator", lambda m, q: calls.append(q) or build(m, q)
    )
    floquet_propagator_modes(model, n_c=1, n_time_samples=8)
    assert sorted(calls) == model.transfers()


def test_propagator_flags_degenerate_steady_space():
    # pure dephasing keeps every diagonal state stationary
    model = ModelSpec(
        1, 2.0, {}, {"z": {0: LocalOperator(0, PAULI["Z"])}}
    ).validate()
    modes = floquet_propagator_modes(model, n_c=0, n_time_samples=8)
    assert modes.degenerate_steady
    assert len(modes.extra_steady_modes) >= 1


def test_gibbs_state_limits():
    d = -PAULI["Z"]
    rho0, s0, _ = gibbs_state(np.zeros((4, 4)), 1.0)
    assert abs(s0 - 2 * np.log(2)) < 1e-12
    rho, s, e = gibbs_state(d, 1e6)
    assert abs(s) < 1e-6
    # ground state of -Z is spin-up
    assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) < 1e-6


def test_gibbs_two_level_closed_form():
    beta = 2.0
    d = -PAULI["Z"]  # levels -1, +1
    _, s, _ = gibbs_state(d, beta)
    # closed form for a two-level system with gap 2
    x = beta * 2.0
    expected = np.log(1 + np.exp(-x)) + x * np.exp(-x) / (1 + np.exp(-x))
    assert abs(s - expected) < 1e-12


def test_entropy_of_density_clips_negatives():
    rho = np.diag([0.6, 0.5, -0.1])
    report = {}
    s = entropy_of_density(rho, report)
    assert report["clipped_weight"] > 0.09
    assert s > 0


def test_beta_from_entropy_round_trip():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((8, 8))
    d = (h + h.T) / 2
    energies = np.linalg.eigvalsh(d)
    for beta in (0.3, 1.7, 4.0):
        s = gibbs_entropy(energies, beta)
        assert abs(beta_from_entropy(s, energies) - beta) < 1e-6


def test_fre_static_limit_is_gibbs():
    bath = OhmicBath(beta=1.3, omega_c=2.0)
    rng = np.random.default_rng(1)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    d = (h + h.conj().T) / 2
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    coupling = x + x.conj().T
    res = solve_fre(d, {0: [coupling]}, bath, fundamental=0.0)
    gibbs = np.exp(-bath.beta * (res.energies - res.energies.min()))
    gibbs /= gibbs.sum()
    assert np.max(np.abs(res.populations - gibbs)) < 1e-10
    assert abs(res.beta_eff - bath.beta) < 1e-4


def test_fre_detailed_balance_ratio():
    bath = OhmicBath(beta=0.9, omega_c=1.5)
    d = np.diag([0.0, 0.7, 1.9])
    coupling = np.array([[0, 1, 0.3], [1, 0, 1], [0.3, 1, 0]], dtype=complex)
    res = solve_fre(d, {0: [coupling]}, bath, fundamental=0.0)
    for p in range(3):
        for q in range(3):
            if p == q or res.rates[q, p] == 0:
                continue
            ratio = res.rates[p, q] / res.rates[q, p]
            expected = np.exp(-bath.beta * (res.energies[q] - res.energies[p]))
            assert abs(ratio - expected) < 1e-10


def test_fre_drive_deviation_shrinks_with_bath_cutoff():
    # two-level system with an extra +-2 harmonic exchange channel
    d = np.diag([0.0, 1.0])
    x = PAULI["X"].astype(complex)
    fundamental = 4.0
    deviations = []
    for omega_c in (2.0, 1.0, 0.5, 0.25):
        bath = OhmicBath(beta=2.0, omega_c=omega_c)
        res = solve_fre(
            d, {0: [x], 2: [0.5 * x], -2: [0.5 * x]}, bath, fundamental=fundamental
        )
        gibbs = np.exp(-bath.beta * (res.energies - res.energies.min()))
        gibbs /= gibbs.sum()
        deviations.append(np.max(np.abs(res.populations - gibbs)))
    assert all(np.diff(deviations) < 0)


def test_fre_rejects_disconnected_rates():
    d = np.diag([0.0, 1.0, 5.0, 9.0])
    coupling = np.zeros((4, 4), dtype=complex)
    coupling[0, 1] = coupling[1, 0] = 1.0  # states 2, 3 disconnected
    bath = OhmicBath(beta=1.0, omega_c=2.0)
    with pytest.raises(RuntimeError):
        solve_fre(d, {0: [coupling]}, bath, fundamental=0.0)


def test_dense_dimension_guard(monkeypatch):
    model = build_driven_ising(IsingBenchmarkParams(chain_length=4))
    monkeypatch.setattr(exact, "DEFAULT_DENSE_DIM", 10)
    with pytest.raises(ValueError):
        evolve_master_equation(model, np.eye(16) / 16, [0, 1])
