import numpy as np
import pytest

from floquet_ness.superops import (
    PAULI,
    LocalOperator,
    choi_site_matrix,
    choi_site_vector,
    dissipator_super,
    devectorize_choi,
    identity_costate,
    left_mult_super,
    pauli_decompose,
    pauli_string,
    right_mult_super,
    vectorize_choi,
    window_super_site_layout,
    window_sums,
)

SM = np.array([[0, 1], [0, 0]], dtype=complex)  # sigma^- : |0><1|


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_vectorize_basis_element():
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 1] = 1.0  # |0><1|
    assert np.allclose(vectorize_choi(rho), [0, 1, 0, 0])


def test_vectorize_mixed_state():
    assert np.allclose(vectorize_choi(np.eye(2) / 2), [0.5, 0, 0, 0.5])


def test_vectorize_round_trip():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 4)
    assert np.allclose(devectorize_choi(vectorize_choi(rho)), rho)


def test_vectorize_rejects_non_square():
    with pytest.raises(ValueError):
        vectorize_choi(np.zeros((2, 3)))


def test_left_mult_on_mixed_state():
    out = left_mult_super(PAULI["Z"]) @ vectorize_choi(np.eye(2) / 2)
    assert np.allclose(devectorize_choi(out), PAULI["Z"] / 2)


def test_left_right_mult_consistency():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = left_mult_super(a) @ right_mult_super(b) @ vectorize_choi(rho)
    assert np.allclose(devectorize_choi(lhs), a @ rho @ b)


def test_identity_jump_is_dissipationless():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 2)
    out = dissipator_super(np.eye(2)) @ vectorize_choi(rho)
    assert np.max(np.abs(out)) < 1e-14


def test_amplitude_damping_dissipator():
    gamma = 0.37
    rho = np.diag([0.0, 1.0]).astype(complex)  # |1><1|
    out = dissipator_super(np.sqrt(gamma) * SM) @ vectorize_choi(rho)
    expected = gamma * (np.diag([1.0, 0.0]) - np.diag([0.0, 1.0]))
    # oracle: direct 4x4 matrix arithmetic
    l = np.sqrt(gamma) * SM
    direct = l @ rho @ l.conj().T - 0.5 * (l.conj().T @ l @ rho + rho @ l.conj().T @ l)
    assert np.allclose(devectorize_choi(out), expected)
    assert np.allclose(devectorize_choi(out), direct)


def test_dissipator_linearity_in_pair():
    rng = np.random.default_rng(3)
    l1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    l2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    alpha = 0.3 - 0.9j
    assert np.allclose(dissipator_super(alpha * l1, l2), alpha * dissipator_super(l1, l2))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_superoperators_equal_kron_bit_for_bit(dim):
    # MPO assembly builds on these helpers; they must form np.kron's exact
    # products, so the assembled MPO keeps its last bits
    rng = np.random.default_rng(dim)
    a, b = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(2))
    eye = np.eye(dim, dtype=complex)
    assert np.array_equal(left_mult_super(a), np.kron(a, eye))
    assert np.array_equal(right_mult_super(b), np.kron(eye, b.T))
    for l2 in (a, b):
        anti = l2.conj().T @ a
        expected = np.kron(a, l2.conj()) - 0.5 * np.kron(anti, eye) - 0.5 * np.kron(eye, anti.T)
        assert np.array_equal(dissipator_super(a, l2), expected)
    assert np.array_equal(dissipator_super(a), dissipator_super(a, a))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_stacked_dissipator_is_the_sum_of_its_pairs(dim):
    # a window's jump pairs go into one call; the summed anticommutator
    # reorders the sums, so the match is to rounding
    rng = np.random.default_rng(20 + dim)
    shape = (3, dim, dim)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    expected = sum(dissipator_super(x, y) for x, y in zip(a, b))
    assert np.max(np.abs(dissipator_super(a, b) - expected)) < 1e-13 * np.max(np.abs(expected))
    assert np.array_equal(dissipator_super(a[:1], b[:1]), dissipator_super(a[0], b[0]))
    with pytest.raises(ValueError):
        dissipator_super(a, b[:2])


def test_identity_costate_traces():
    cost = identity_costate(1)
    assert np.allclose(cost, [1, 0, 0, 1])
    assert abs(cost @ vectorize_choi(np.eye(2) / 2) - 1.0) < 1e-14
    off = np.zeros((2, 2), dtype=complex)
    off[0, 1] = 1.0
    assert abs(cost @ vectorize_choi(off)) < 1e-14


def test_identity_costate_two_sites():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 4)
    cost = identity_costate(2)
    assert abs(cost @ choi_site_vector(rho, 2) - np.trace(rho)) < 1e-12


def test_choi_site_layout_round_trip():
    rng = np.random.default_rng(14)
    rho = random_density(rng, 8)
    vec = choi_site_vector(rho, 3)
    assert np.allclose(choi_site_matrix(vec, 3), rho)


def test_window_super_site_layout_consistency():
    # Acting with a window superoperator commutes with the layout change.
    rng = np.random.default_rng(15)
    rho = random_density(rng, 4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sup = left_mult_super(a)
    direct = choi_site_vector(a @ rho, 2)
    layout = window_super_site_layout(0, sup)
    assert (layout.start, layout.width, layout.site_dim) == (0, 2, 4)
    routed = layout.matrix @ choi_site_vector(rho, 2)
    assert np.allclose(direct, routed)


def test_window_sums_add_in_input_order():
    # one window's terms are added left to right, and windows keep their
    # first-seen order: MPO assembly's bits depend on both
    rng = np.random.default_rng(16)
    a, b, c = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
    z = PAULI["Z"]
    terms = [
        LocalOperator(2, a),
        LocalOperator(0, z),
        LocalOperator(2, b),
        LocalOperator(1, z),
        LocalOperator(2, c),
    ]
    sums = window_sums(terms)
    assert list(sums) == [(2, 2), (0, 1), (1, 1)]
    assert np.array_equal(sums[(2, 2)], a + b + c)
    assert np.array_equal(sums[(0, 1)], z)
    assert window_sums([]) == {}


def test_local_operator_embedding():
    op = LocalOperator(1, PAULI["Z"])
    emb = op.on_window(0, 3)
    assert emb.matrix.shape == (8, 8)
    assert np.allclose(emb.matrix, pauli_string("IZI"))


def test_local_operator_window_errors():
    op = LocalOperator(1, PAULI["X"])
    with pytest.raises(ValueError):
        op.on_window(2, 3)


def test_pauli_decompose_round_trip():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    coeffs = pauli_decompose(m)
    recon = sum(c * pauli_string(s) for s, c in coeffs.items())
    assert np.max(np.abs(recon - m)) < 1e-10
