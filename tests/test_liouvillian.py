import warnings

import numpy as np
import pytest

from floquet_ness import liouvillian, mps
from floquet_ness.freqspace import FloquetDensityMatrix
from floquet_ness.liouvillian import (
    ModelSpec,
    _embed_super,
    build_extended_lindbladian,
    dense_extended_lindbladian,
    dense_fourier_superoperator,
    extended_null_vector,
    fourier_superoperator_terms,
)
from floquet_ness.models import DTCParams, IsingBenchmarkParams, build_driven_ising, build_dtc_model
from floquet_ness.mps import Mps
from floquet_ness.superops import (
    PAULI,
    LocalOperator,
    choi_site_vector,
    dissipator_super,
    identity_costate,
    left_mult_super,
    right_mult_super,
    window_super_site_layout,
)
from floquet_ness.tensors import TruncationSpec, truncated_svd

SM = np.array([[0, 1], [0, 0]], dtype=complex)


def single_qubit_model(gamma=1.0, omega_z=0.0, drive=5.0):
    ham = {}
    if omega_z:
        ham[0] = [LocalOperator(0, omega_z * PAULI["Z"] / 2)]
    return ModelSpec(
        chain_length=1,
        omega=drive,
        hamiltonian_fourier=ham,
        jump_fourier={"damp": {0: LocalOperator(0, np.sqrt(gamma) * SM)}},
    ).validate()


def small_driven_model(length=2, j=1.0, g=0.7, gamma=0.4, omega=4.0):
    """Driven XZ chain with a static two-site jump; harmonics k = -1, 0, 1."""
    h0, h1 = [], []
    for i in range(length - 1):
        h0.append(LocalOperator(i, -j * np.kron(PAULI["Z"], PAULI["Z"])))
    for i in range(length):
        h1.append(LocalOperator(i, 0.25j * g * PAULI["X"]))
    hm1 = [LocalOperator(t.start, t.matrix.conj().T) for t in h1]
    jumps = {}
    for i in range(length - 1):
        jumps[i] = {0: LocalOperator(i, np.sqrt(gamma) * np.kron(SM, PAULI["I"]))}
    return ModelSpec(
        chain_length=length,
        omega=omega,
        hamiltonian_fourier={0: h0, 1: h1, -1: hm1},
        jump_fourier=jumps,
    ).validate()


def time_dependent_jump_model(length=2, gamma=0.5, omega=3.0):
    """Single channel whose jump operator carries k = 0 and k = 1 harmonics."""
    jumps = {
        "a": {
            0: LocalOperator(0, np.sqrt(gamma) * SM),
            1: LocalOperator(0, 0.3 * np.sqrt(gamma) * PAULI["X"]),
        }
    }
    ham = {0: [LocalOperator(i, 0.5 * PAULI["Z"]) for i in range(length)]}
    return ModelSpec(length, omega, ham, jumps).validate()


def random_freq_state(model, n_c, rng, chi=4):
    blocks = {
        n: Mps.random(model.chain_length, 4, chi, rng, norm=None)
        for n in range(-n_c, n_c + 1)
    }
    return FloquetDensityMatrix(blocks, model.omega, n_c)


def extended_dense_vector(state):
    return np.concatenate([state.blocks[n].to_dense() for n in state.harmonics])


def test_validate_rejects_broken_hermiticity():
    ham = {1: [LocalOperator(0, PAULI["X"])]}
    model = ModelSpec(1, 1.0, ham, {})
    with pytest.raises(ValueError):
        model.validate()


def test_validate_rejects_mixed_jump_windows():
    jumps = {"a": {0: LocalOperator(0, SM), 1: LocalOperator(1, SM)}}
    with pytest.raises(ValueError):
        ModelSpec(3, 1.0, {}, jumps).validate()


def test_validate_rejects_a_term_off_the_model_site_dim():
    # a qutrit model left at the default site_dim=2 is refused by validate,
    # with the harmonic or channel named, instead of failing in assembly
    sz = LocalOperator(0, np.diag([1.0, 0.0, -1.0]), 3)
    lower = LocalOperator(0, np.diag([1.0, np.sqrt(2.0)], k=1), 3)
    with pytest.raises(ValueError, match=r"H\^0 term .* site_dim 3"):
        ModelSpec(1, 2.0, {0: [sz]}).validate()
    with pytest.raises(ValueError, match="jump channel 'a' harmonic 0 .* site_dim 3"):
        ModelSpec(1, 2.0, {}, {"a": {0: lower}}).validate()
    ModelSpec(1, 2.0, {0: [sz]}, {"a": {0: lower}}, site_dim=3).validate()


@pytest.mark.parametrize(
    "length, omega, name",
    [(0, 2.0, "chain_length"), (1, 0.0, "omega"), (1, -2.0, "omega"), (1, np.nan, "omega"), (1, np.inf, "omega")],
)
def test_validate_rejects_an_empty_chain_or_a_bad_frequency(length, omega, name):
    # an empty chain failed in the start's MPS, and a drive frequency that is
    # zero, negative or NaN as a degenerate steady state or a LinAlgError
    with pytest.raises(ValueError, match=name):
        ModelSpec(length, omega).validate()


def test_static_single_qubit_dense_spectrum():
    gamma, wz = 0.8, 1.3
    model = single_qubit_model(gamma=gamma, omega_z=wz)
    mat = dense_extended_lindbladian(model, 0)
    eigs = np.linalg.eigvals(mat)
    expected = np.array([0.0, -gamma / 2 - 1j * wz, -gamma / 2 + 1j * wz, -gamma])
    for e in expected:
        assert np.min(np.abs(eigs - e)) < 1e-10


def test_dense_extended_block_shift_structure():
    model = single_qubit_model(gamma=0.8, omega_z=1.3, drive=5.0)
    base = np.linalg.eigvals(dense_extended_lindbladian(model, 0))
    full = np.linalg.eigvals(dense_extended_lindbladian(model, 1))
    expected = np.concatenate([base - 1j * n * model.omega for n in (-1, 0, 1)])
    expected = np.sort_complex(expected)
    assert np.allclose(np.sort_complex(full), expected, atol=1e-10)


def test_static_null_vector_lives_in_zero_block():
    model = single_qubit_model(gamma=0.7, omega_z=0.9)
    blocks = extended_null_vector(model, 1)
    assert np.max(np.abs(blocks[1])) < 1e-12
    assert np.max(np.abs(blocks[-1])) < 1e-12
    assert np.allclose(blocks[0], np.diag([1.0, 0.0]), atol=1e-10)


def test_single_qubit_reduction_to_dissipator():
    model = single_qubit_model(gamma=0.9, omega_z=0.0)
    dense = dense_extended_lindbladian(model, 0)
    ref = window_super_site_layout(0, dissipator_super(np.sqrt(0.9) * SM)).matrix
    assert np.max(np.abs(dense - ref)) < 1e-12


def test_trace_row_annihilates_generator():
    model = small_driven_model()
    cost = identity_costate(model.chain_length)
    for q in model.transfers():
        sup = dense_fourier_superoperator(model, q)
        assert np.max(np.abs(cost @ sup)) < 1e-10


def test_hermiticity_covariance_of_generator():
    rng = np.random.default_rng(0)
    model = time_dependent_jump_model()
    dl = 2**model.chain_length
    rho = rng.standard_normal((dl, dl)) + 1j * rng.standard_normal((dl, dl))
    # K^q[rho^dag] must equal (K^{-q}[rho])^dag blockwise
    for q in model.transfers():
        kq = dense_fourier_superoperator(model, q)
        kmq = dense_fourier_superoperator(model, -q)
        from floquet_ness.superops import choi_site_matrix

        lhs = choi_site_matrix(kq @ choi_site_vector(rho.conj().T, 2), 2)
        rhs = choi_site_matrix(kmq @ choi_site_vector(rho, 2), 2).conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_mpo_action_matches_dense_action():
    rng = np.random.default_rng(1)
    for model, n_c in [
        (small_driven_model(length=3), 2),
        (time_dependent_jump_model(length=2), 2),
        (single_qubit_model(gamma=0.5, omega_z=1.0), 1),
    ]:
        mpo = build_extended_lindbladian(model, n_c)
        state = random_freq_state(model, n_c, rng)
        out = mpo.apply(state, TruncationSpec())
        dense = dense_extended_lindbladian(model, n_c)
        vec = extended_dense_vector(state)
        expect = dense @ vec
        got = extended_dense_vector(out)
        scale = np.max(np.abs(expect)) + 1e-30
        assert np.max(np.abs(got - expect)) / scale < 1e-10


def test_static_model_action_is_block_diagonal():
    model = single_qubit_model(gamma=0.3, omega_z=0.7)
    mpo = build_extended_lindbladian(model, 2)
    rng = np.random.default_rng(2)
    blocks = {n: Mps.zeros(1, 4) for n in range(-2, 3)}
    state = FloquetDensityMatrix({**blocks, 1: Mps.random(1, 4, 1, rng, norm=None)}, model.omega, 2)
    out = mpo.apply(state, TruncationSpec())
    for n in out.harmonics:
        if n != 1:
            assert out.blocks[n].norm() < 1e-14


def test_closed_chain_without_static_terms_has_a_zero_static_component():
    # no jumps and only H^(+-1): the q = 0 component has no terms, so it is
    # the zero MPO, and the generator still matches the dense reference
    h1 = [LocalOperator(0, 0.3j * np.kron(PAULI["X"], PAULI["Z"])), LocalOperator(1, 0.5 * PAULI["Y"])]
    hm1 = [LocalOperator(t.start, t.matrix.conj().T) for t in h1]
    model = ModelSpec(2, 3.0, {1: h1, -1: hm1}).validate()
    n_c = 1
    mpo = build_extended_lindbladian(model, n_c)
    assert sorted(mpo.components) == [-1, 0, 1] and not fourier_superoperator_terms(model, 0)
    assert mpo.components[0].bond_dims == [1] and not np.any(mpo.components[0].to_dense())
    d2l = 4**model.chain_length
    harmonics = range(-n_c, n_c + 1)
    generator = np.block([
        [
            mpo.components[n - m].to_dense() if n - m in mpo.components else np.zeros((d2l, d2l))
            for m in harmonics
        ]
        for n in harmonics
    ]) + np.diag(np.repeat([mpo.diagonal_coefficient(n) for n in harmonics], d2l))
    assert np.max(np.abs(generator - dense_extended_lindbladian(model, n_c))) < 1e-15


def test_time_independent_blocks_are_generator_minus_ramp():
    model = single_qubit_model(gamma=0.4, omega_z=0.6)
    mpo = build_extended_lindbladian(model, 1)
    base = dense_fourier_superoperator(model, 0)
    assert np.max(np.abs(mpo.components[0].to_dense() - base)) < 1e-12
    for n in (-1, 0, 1):
        assert mpo.diagonal_coefficient(n) == -1j * n * model.omega
    # a static model couples no two different harmonics
    for q, comp in mpo.components.items():
        assert q == 0 or np.max(np.abs(comp.to_dense())) < 1e-14


def test_cutoff_warning_for_under_resolved_model():
    model = time_dependent_jump_model()
    with pytest.warns(UserWarning):
        build_extended_lindbladian(model, 0)


def test_cutoff_warning_reads_the_real_transfers():
    # a jump channel with harmonics {0, 3} transfers only -3, 0 and 3, so at
    # n_c = 2 nothing is dropped (twice its largest harmonic, 6, was warned
    # about); at n_c = 1 the transfers +-3 are dropped, and that warns
    jumps = {"d": {0: LocalOperator(0, SM), 3: LocalOperator(0, 0.5 * SM)}}
    model = ModelSpec(1, 4.0, {}, jumps).validate()
    assert model.transfers() == [-3, 0, 3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_extended_lindbladian(model, 2)
    with pytest.warns(UserWarning, match=r"transfers up to 3\) exceed the frequency cutoff n_c=1"):
        build_extended_lindbladian(model, 1)


def test_cutoff_warning_says_dropped_only_when_a_transfer_is_dropped():
    # a drive at harmonics +-2 keeps its transfers -2, 0 and 2 at n_c = 1
    # (at most 2 n_c), so that warning drops nothing; at n_c = 0 the
    # transfers +-2 are dropped, and only that warning says so
    drive = {n: [LocalOperator(0, 0.3 * PAULI["X"])] for n in (-2, 2)}
    model = ModelSpec(1, 4.0, drive, {"d": {0: LocalOperator(0, SM)}}).validate()
    for n_c, kept, ending in [
        (1, [-2, 0, 2], "n_c=1; every transfer is kept, but those above n_c never reach the static block"),
        (0, [0], "n_c=0; transfers above 2 n_c = 0 are dropped"),
    ]:
        with pytest.warns(UserWarning, match="model harmonics") as caught:
            mpo = build_extended_lindbladian(model, n_c)
        (message,) = [str(w.message) for w in caught]
        assert sorted(mpo.components) == kept
        assert message.endswith(ending)
        assert ("dropped" in message) == (n_c == 0)


def test_operator_bond_dimension_is_documented_scale():
    # One three-site (radius-1) jump window: operator bond dimension <= 16.
    window = np.kron(np.kron(SM, PAULI["Z"]), PAULI["X"])
    model = ModelSpec(
        chain_length=4,
        omega=2.0,
        hamiltonian_fourier={},
        jump_fourier={"w": {0: LocalOperator(1, window)}},
    ).validate()
    mpo = build_extended_lindbladian(model, 0)
    assert mpo.components[0].max_bond <= 16 + 2


def test_dense_limit_enforced(monkeypatch):
    model = small_driven_model(length=2)
    monkeypatch.setattr(liouvillian, "DEFAULT_DENSE_LIMIT", 10)
    with pytest.raises(ValueError):
        dense_extended_lindbladian(model, 1)


def test_null_vector_sparse_lu_agrees_with_dense_solve(monkeypatch):
    # the default sizes all fall under DENSE_SOLVE_LIMIT; a zero limit sends
    # the same model through the sparse LU
    model = small_driven_model(length=2, omega=4.0)
    a = extended_null_vector(model, 2)
    monkeypatch.setattr(liouvillian, "DENSE_SOLVE_LIMIT", 0)
    b = extended_null_vector(model, 2)
    for n in a:
        assert np.max(np.abs(a[n] - b[n])) < 1e-8


def test_null_vector_is_annihilated_and_normalized():
    model = small_driven_model(length=2, omega=4.0)
    n_c = 2
    blocks = extended_null_vector(model, n_c)
    assert abs(np.trace(blocks[0]) - 1.0) < 1e-10
    dense = dense_extended_lindbladian(model, n_c)
    vec = np.concatenate(
        [choi_site_vector(blocks[n], 2) for n in range(-n_c, n_c + 1)]
    )
    assert np.max(np.abs(dense @ vec)) < 1e-8


def test_one_superoperator_per_window_is_the_sum_of_its_terms():
    # the DTC chain puts several Hamiltonian terms and several jump pairs
    # of one channel on a window; each window comes back once, and its
    # matrix is the sum of the superoperators of its terms one by one
    model = build_dtc_model(DTCParams(chain_length=3), n_c=1)
    length, dim = model.chain_length, 4**model.chain_length
    for q in model.transfers(1):
        ref = np.zeros((dim, dim), dtype=complex)
        windows = set()
        for t in model.hamiltonian_fourier.get(q, []):
            sup = -1j * (left_mult_super(t.matrix) - right_mult_super(t.matrix))
            ref += _embed_super(window_super_site_layout(t.start, sup), length).toarray()
            windows.add((t.start, t.width))
        for comps in model.jump_fourier.values():
            for j, op in comps.items():
                if j + q in comps:
                    sup = dissipator_super(comps[j + q].matrix, op.matrix)
                    ref += _embed_super(window_super_site_layout(op.start, sup), length).toarray()
                    windows.add((op.start, op.width))
        terms = fourier_superoperator_terms(model, q)
        layout = [(t.start, t.width, t.site_dim) for t in terms]
        assert layout == [(start, width, 4) for start, width in sorted(windows)]
        assert np.max(np.abs(dense_fourier_superoperator(model, q) - ref)) < 1e-13


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # DTC harmonics exceed n_c = 1
@pytest.mark.parametrize("length, bonds", [(3, [16, 16]), (4, [16, 32, 16])])
def test_dtc_generator_keeps_its_bonds(length, bonds):
    # the exact window splits carry bond 16 per window and cut until the
    # one compression, which must reach the generator's minimal bonds
    model = build_dtc_model(DTCParams(chain_length=length), n_c=1)
    mpo = build_extended_lindbladian(model, 1)
    assert sorted(mpo.components) == [-2, -1, 0, 1, 2]
    for q, component in mpo.components.items():
        assert component.bond_dims == bonds
        assert np.max(np.abs(component.to_dense() - dense_fourier_superoperator(model, q))) < 1e-13


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # DTC harmonics exceed n_c = 1
def test_full_rank_generator_keeps_exact_entries():
    # every bond of the DTC L=3 generator is at its full rank 16, which the
    # build certifies without an SVD, so no SVD rotates its tensors: each
    # component is its dense sum to roundoff of the terms, and its trace row
    # <<I| L_q vanishes to that roundoff, where an SVD compression leaves
    # both at about 5e-15 and 2e-15
    model = build_dtc_model(DTCParams(chain_length=3), n_c=1)
    costate = identity_costate(3)
    for q, component in build_extended_lindbladian(model, 1).components.items():
        dense = component.to_dense()
        assert np.max(np.abs(dense - dense_fourier_superoperator(model, q))) < 1e-15
        assert np.max(np.abs(costate @ dense)) < 5e-16


@pytest.mark.filterwarnings("ignore:model harmonics:UserWarning")  # DTC harmonics exceed n_c = 1
@pytest.mark.parametrize(
    "build, svds, bonds",
    [
        (lambda: build_dtc_model(DTCParams(chain_length=3), n_c=1), 0, {q: [16, 16] for q in range(-2, 3)}),
        (lambda: build_driven_ising(IsingBenchmarkParams(chain_length=3, omega=5.0)), 6, {-1: [4, 4], 0: [8, 8], 1: [4, 4]}),
    ],
    ids=["dtc", "ising"],
)
def test_generator_build_svd_count(monkeypatch, build, svds, bonds):
    # the full-rank DTC components are certified without an SVD (a QR and
    # SVD sweep would make 2 per component), while the rank-deficient Ising
    # ones fail the certificate and are compressed by 2 SVDs each, as before
    calls = []

    def counted(*args):
        calls.append(args)
        return truncated_svd(*args)

    model = build()
    monkeypatch.setattr(mps, "truncated_svd", counted)
    mpo = build_extended_lindbladian(model, 1)
    assert len(calls) == svds
    assert {q: c.bond_dims for q, c in mpo.components.items()} == bonds
