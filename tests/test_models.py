import numpy as np
import pytest

from floquet_ness.models import (
    DTCParams,
    IsingBenchmarkParams,
    OhmicBath,
    build_dissipative_jump_ops,
    build_driven_ising,
    build_dtc_model,
    build_dtc_rotating_frame,
    drive_envelope_fourier,
    effective_propagator_error,
    jump_correlator,
    majority_rule_operator,
    tilted_product_state,
    truncation_diagnostic,
    van_vleck,
)
from floquet_ness.superops import PAULI, LocalOperator, sum_local_terms

UP, DOWN = 0, 1


def basis_state(bits):
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    vec = np.zeros(2 ** len(bits))
    vec[idx] = 1.0
    return vec


def dense_hamiltonian(comps, t, length, fundamental):
    dim = 2**length
    out = np.zeros((dim, dim), dtype=complex)
    for k, terms in comps.items():
        out += sum_local_terms(terms, length) * np.exp(1j * k * fundamental * t)
    return out


# -- driven Ising benchmark --------------------------------------------------


def test_driven_ising_resums_to_closed_form():
    p = IsingBenchmarkParams(j=1.0, h=0.5, g=1.0, gamma=1.0, omega=5.0, chain_length=4)
    model = build_driven_ising(p)
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 10, size=20):
        pt = (1 - np.sin(p.omega * t)) / 2
        qt = (1 + np.sin(p.omega * t)) / 2
        ising = sum_local_terms(
            [
                LocalOperator(i, -p.j * np.kron(PAULI["Z"], PAULI["Z"]))
                for i in range(p.chain_length - 1)
            ]
            + [LocalOperator(i, p.h * PAULI["Z"]) for i in range(p.chain_length)],
            p.chain_length,
        )
        trans = sum_local_terms(
            [LocalOperator(i, p.g * PAULI["X"]) for i in range(p.chain_length)],
            p.chain_length,
        )
        closed = pt * ising + qt * trans
        resummed = dense_hamiltonian(model.hamiltonian_fourier, t, p.chain_length, p.omega)
        assert np.max(np.abs(resummed - closed)) < 1e-12


def test_driven_ising_requires_three_sites():
    with pytest.raises(ValueError):
        build_driven_ising(IsingBenchmarkParams(chain_length=2))


def test_majority_rule_matrix_elements():
    op = majority_rule_operator(center=1, width=3)
    # 2 |uuu><u d u|
    assert abs(basis_state([UP, UP, UP]) @ op @ basis_state([UP, DOWN, UP]) - 2.0) < 1e-12
    # |uud><udd| and |udd><uud|
    assert abs(basis_state([UP, UP, DOWN]) @ op @ basis_state([UP, DOWN, DOWN]) - 1.0) < 1e-12
    assert abs(basis_state([UP, DOWN, DOWN]) @ op @ basis_state([UP, UP, DOWN]) - 1.0) < 1e-12
    # aligned window has no flips
    assert np.max(np.abs(op @ basis_state([UP, UP, UP]))) < 1e-12


def test_majority_rule_spin_flip_symmetry():
    flip = np.kron(np.kron(PAULI["X"], PAULI["X"]), PAULI["X"])
    op = majority_rule_operator(center=1, width=3)
    assert np.max(np.abs(flip @ op @ flip - op)) < 1e-12
    flip2 = np.kron(PAULI["X"], PAULI["X"])
    edge = majority_rule_operator(center=0, width=2)
    assert np.max(np.abs(flip2 @ edge @ flip2 - edge)) < 1e-12


def test_driven_ising_jump_scaling():
    a = build_driven_ising(IsingBenchmarkParams(gamma=1.0))
    b = build_driven_ising(IsingBenchmarkParams(gamma=2.0))
    for alpha in a.jump_fourier:
        ra = a.jump_fourier[alpha][0].matrix
        rb = b.jump_fourier[alpha][0].matrix
        assert np.max(np.abs(rb - np.sqrt(2.0) * ra)) < 1e-12


# -- Ohmic bath ---------------------------------------------------------------


def test_detailed_balance_identity():
    bath = OhmicBath(beta=2.3, omega_c=1.7)
    eps = np.array([0.3, 1.1, 2.9, -0.7])
    lhs = bath.spectral_density(eps) / bath.spectral_density(-eps)
    assert np.max(np.abs(lhs - np.exp(bath.beta * eps))) < 1e-12


def test_spectral_density_zero_limit():
    bath = OhmicBath(beta=3.0, omega_c=2.0, epsilon_0=1.5)
    assert abs(bath.spectral_density(0.0) - 1.0 / (3.0 * 1.5)) < 1e-12
    assert abs(bath.spectral_density(1e-9) - 1.0 / (3.0 * 1.5)) < 1e-6


def test_jump_correlator_parseval():
    bath = OhmicBath(beta=2.0, omega_c=2.0)
    corr = jump_correlator(bath)
    dt = corr.times[1] - corr.times[0]
    lhs = np.sum(np.abs(corr.values) ** 2) * dt
    freq = bath.default_freq_grid()
    rhs = np.trapezoid(bath.spectral_density(freq), freq) / (2 * np.pi)
    assert abs(lhs - rhs) / rhs < 2e-3


def test_jump_correlator_tau_b_shrinks_with_cutoff():
    slow = jump_correlator(OhmicBath(beta=2.0, omega_c=1.0))
    fast = jump_correlator(OhmicBath(beta=2.0, omega_c=4.0))
    assert fast.tau_b < slow.tau_b


def test_jump_correlator_rejects_coarse_grid():
    bath = OhmicBath(beta=2.0, omega_c=2.0)
    with pytest.raises(ValueError):
        jump_correlator(bath, freq_grid=np.linspace(-5, 5, 64))


# -- van Vleck expansion -------------------------------------------------------


def test_van_vleck_static_input():
    h0 = [LocalOperator(0, PAULI["Z"])]
    pair = van_vleck({0: h0}, fundamental=7.0, order=2)
    assert not pair.k_fourier
    assert np.allclose(pair.dense_d(1), PAULI["Z"])


def test_van_vleck_commuting_drive_first_order_vanishes():
    comps = {
        0: [LocalOperator(0, PAULI["Z"])],
        1: [LocalOperator(0, 0.4 * PAULI["Z"])],
        -1: [LocalOperator(0, 0.4 * PAULI["Z"])],
    }
    pair = van_vleck(comps, fundamental=9.0, order=1)
    assert np.allclose(pair.dense_d(1), PAULI["Z"], atol=1e-14)


def test_van_vleck_circular_drive_oracle():
    # H(t) = g (X cos wt + Y sin wt): first-order D = -(g^2/w) Z
    g, w = 0.3, 11.0
    plus = 0.5 * g * (PAULI["X"] - 1j * PAULI["Y"])
    comps = {
        1: [LocalOperator(0, plus)],
        -1: [LocalOperator(0, plus.conj().T)],
    }
    pair = van_vleck(comps, fundamental=w, order=1)
    assert np.max(np.abs(pair.dense_d(1) - (-(g**2) / w) * PAULI["Z"])) < 1e-12


def test_van_vleck_d_hermitian_and_k_consistent():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    comps = {
        0: [LocalOperator(0, np.kron(PAULI["Z"], PAULI["Z"]))],
        1: [LocalOperator(0, a)],
        -1: [LocalOperator(0, a.conj().T)],
        2: [LocalOperator(1, 0.2 * PAULI["X"])],
        -2: [LocalOperator(1, 0.2 * PAULI["X"])],
    }
    pair = van_vleck(comps, fundamental=13.0, order=2, )
    d = pair.dense_d(3)
    assert np.max(np.abs(d - d.conj().T)) < 1e-12
    dense_k = pair.dense_k(3)
    for k, mat in dense_k.items():
        assert np.max(np.abs(dense_k.get(-k, np.zeros_like(mat)) - mat.conj().T)) < 1e-12


def test_van_vleck_keeps_the_site_dim_of_a_qutrit_drive():
    shift = np.roll(np.eye(3), 1, axis=0)  # |i> -> |i + 1 mod 3>
    comps = {
        0: [LocalOperator(0, np.diag([1.0, 0.0, -1.0]), 3)],
        1: [LocalOperator(0, shift, 3)],
        -1: [LocalOperator(0, shift.T, 3)],
    }
    pair = van_vleck(comps, fundamental=5.0, order=2)
    terms = pair.d_terms + [t for ts in pair.k_fourier.values() for t in ts]
    assert pair.k_fourier and all(t.site_dim == 3 for t in terms)
    errs = [effective_propagator_error(comps, 5.0, order, chain_length=1) for order in (0, 1, 2)]
    assert errs[0] > 2 * errs[1] > 4 * errs[2]  # measured 0.55, 0.19, 0.049


def scaling_model():
    rng = np.random.default_rng(7)
    h0 = [
        LocalOperator(0, np.kron(PAULI["Z"], PAULI["Z"])),
        LocalOperator(0, 0.4 * PAULI["X"]),
        LocalOperator(1, 0.4 * PAULI["X"]),
    ]
    drive = 0.31 * PAULI["X"] + 0.27j * PAULI["Y"] + 0.23 * PAULI["Z"]
    h1 = [LocalOperator(0, drive), LocalOperator(1, 0.5 * drive)]
    hm1 = [LocalOperator(t.start, t.matrix.conj().T) for t in h1]
    return {0: h0, 1: h1, -1: hm1}


def test_effective_propagator_error_static_is_tiny():
    comps = {0: [LocalOperator(0, PAULI["Z"]), LocalOperator(0, 0.3 * PAULI["X"])]}
    err = effective_propagator_error(comps, fundamental=8.0, order=0, chain_length=1)
    assert err < 1e-9


def test_effective_propagator_error_scaling_order0():
    # fixed comparison time: over exactly one period the leading kick error
    # cancels and the order-0 slope would be steeper than generic
    comps = scaling_model()
    omegas = np.array([8.0, 16.0, 32.0, 64.0])
    errs = [
        effective_propagator_error(comps, w, order=0, chain_length=2, duration=0.63)
        for w in omegas
    ]
    slope = np.polyfit(np.log(omegas), np.log(errs), 1)[0]
    assert abs(slope + 1.0) < 0.4


def test_effective_propagator_error_scaling_order2():
    comps = scaling_model()
    omegas = np.array([10.0, 20.0, 40.0, 80.0, 100.0])
    errs = [
        effective_propagator_error(comps, w, order=2, chain_length=2, duration=0.63)
        for w in omegas
    ]
    slope = np.polyfit(np.log(omegas), np.log(errs), 1)[0]
    assert abs(slope + 3.0) < 0.5


# -- rotating-frame pulse-driven model ----------------------------------------


def test_envelope_fourier_matches_quadrature():
    omega = 6.0
    nu = omega / 2
    period = 2 * np.pi / nu
    ts = np.linspace(0, period, 4001)

    def envelope(t):
        half = np.floor(t / (2 * np.pi / omega)).astype(int)
        return (1 - np.cos(omega * t)) * (-1.0) ** (1 + half)

    for k in (-3, -1, 1, 2, 3, 5):
        numeric = np.trapezoid(envelope(ts) * np.exp(-1j * k * nu * ts), ts) / period
        assert abs(numeric - drive_envelope_fourier(k)) < 1e-4


def test_envelope_vanishes_at_zero():
    ks = [k for k in range(-9, 10) if k % 2]
    total = sum(drive_envelope_fourier(k) for k in ks)
    assert abs(total) < 1e-14


def test_rotating_frame_dynamical_symmetry():
    p = DTCParams(chain_length=3, omega=8.0)
    comps = build_dtc_rotating_frame(p)
    nu = p.fundamental
    half_period = 2 * np.pi / p.omega
    flip = np.eye(2**p.chain_length, dtype=complex)
    for i in range(p.chain_length):
        flip = flip @ LocalOperator(i, PAULI["X"]).on_window(0, p.chain_length).matrix
    rng = np.random.default_rng(3)
    for t in rng.uniform(0, 4 * half_period, size=20):
        ht = dense_hamiltonian(comps, t, p.chain_length, nu)
        ht_shift = dense_hamiltonian(comps, t + half_period, p.chain_length, nu)
        assert np.max(np.abs(ht_shift - flip @ ht @ flip)) < 1e-12


def test_rotating_frame_static_when_h_zero():
    p = DTCParams(h=0.0, chain_length=3)
    comps = build_dtc_rotating_frame(p)
    assert set(comps) == {0}


# -- microscopic jump operators -------------------------------------------------


def small_dtc(**kwargs):
    defaults = dict(
        j=1.0,
        h=0.5,
        g=0.2,
        gamma=0.5,
        omega=10.0,
        bath=OhmicBath(beta=2.0, omega_c=2.0),
        r=1,
        chain_length=3,
        envelope_k_max=5,
    )
    defaults.update(kwargs)
    return DTCParams(**defaults)


def test_jump_ops_zero_temperature_one_way():
    beta = 2000.0
    p = small_dtc(bath=OhmicBath(beta=beta, omega_c=2.0), chain_length=3)
    _, info = build_dissipative_jump_ops(p, k_max=8)
    site = 1
    energies = info["energies"][site]
    basis_gap = 40.0 / beta  # below this the bath cannot resolve the transition
    down_total, up_total = 0.0, 0.0
    for k, mat in info["spectral"][site].items():
        # element (m, n) moves population n -> m while the bath absorbs
        # eps_n - eps_m - k nu; negative absorption is frozen out at T = 0
        absorbed = energies[None, :] - energies[:, None] - k * p.fundamental
        up_total += np.linalg.norm(mat[absorbed < -basis_gap])
        down_total += np.linalg.norm(mat[absorbed >= -basis_gap])
    assert up_total <= 1e-6 * down_total


def test_jump_ops_gamma_scaling():
    pa = small_dtc(gamma=0.5)
    pb = small_dtc(gamma=1.0)
    ja, _ = build_dissipative_jump_ops(pa, k_max=6)
    jb, _ = build_dissipative_jump_ops(pb, k_max=6)
    for k in ja[1]:
        ratio = jb[1][k].matrix / ja[1][k].matrix
        finite = np.isfinite(ratio)
        assert np.allclose(ratio[finite], np.sqrt(2.0), atol=1e-9)


def test_flat_bath_static_limit_recovers_bare_coupling():
    # Static chain, near-flat amplitude: the jump operator collapses to X_i.
    class FlatBath(OhmicBath):
        def jump_amplitude(self, eps):
            return np.ones_like(np.asarray(eps, dtype=float))

    bath = FlatBath(beta=1.0, omega_c=1.0)
    p = small_dtc(h=0.0, g=0.0, bath=bath, gamma=1.0)
    jumps, _ = build_dissipative_jump_ops(p, k_max=4)
    op = jumps[1]
    assert set(op) == {0}
    x_embedded = LocalOperator(1, PAULI["X"]).on_window(0, 3).matrix
    assert np.max(np.abs(op[0].matrix - x_embedded)) < 1e-10


def test_jump_window_clipping_at_edges():
    p = small_dtc(chain_length=4, r=1)
    jumps, _ = build_dissipative_jump_ops(p, k_max=6)
    assert jumps[0][0].start == 0 and jumps[0][0].width == 2
    assert jumps[1][0].start == 0 and jumps[1][0].width == 3
    assert jumps[3][0].start == 2 and jumps[3][0].width == 2


def test_truncation_diagnostic_zero_for_equal_radii():
    p = small_dtc(chain_length=5, r=1)
    assert truncation_diagnostic(p, 1, 1) < 1e-12


def test_truncation_diagnostic_small_in_valid_regime():
    p = small_dtc(chain_length=5, g=0.05, bath=OhmicBath(beta=2.0, omega_c=4.0))
    diag = truncation_diagnostic(p, 1, 2, n_times=8)
    jumps, _ = build_dissipative_jump_ops(small_dtc(chain_length=5, g=0.05, r=2, bath=OhmicBath(beta=2.0, omega_c=4.0)), k_max=12)
    scale = max(np.linalg.norm(op.matrix, ord=2) for op in jumps[2].values())
    assert diag < 0.2 * scale


def test_truncation_diagnostic_decreases_with_cutoff():
    p_narrow = small_dtc(chain_length=5, bath=OhmicBath(beta=2.0, omega_c=1.0))
    p_wide = small_dtc(chain_length=5, bath=OhmicBath(beta=2.0, omega_c=4.0))
    d_narrow = truncation_diagnostic(p_narrow, 1, 2, n_times=8)
    d_wide = truncation_diagnostic(p_wide, 1, 2, n_times=8)
    assert d_wide < d_narrow


def test_build_dtc_model_validates():
    p = small_dtc(chain_length=3)
    model = build_dtc_model(p, n_c=1)
    assert model.omega == p.fundamental
    assert model.chain_length == 3


def test_tilted_product_state():
    mats = tilted_product_state(3)
    for m in mats:
        assert abs(np.trace(m) - 1.0) < 1e-12
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
