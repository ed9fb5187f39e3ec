import numpy as np
import pytest

from floquet_ness import mps
from floquet_ness.mps import Mpo, Mps, _mpo_factors
from floquet_ness.superops import PAULI, LocalOperator, choi_site_matrix, pauli_string
from floquet_ness.tensors import TruncationSpec, truncated_svd


def random_mps(rng, length=4, phys=4, chi=6):
    return Mps.random(length, phys, chi, rng, norm=None)


def test_product_state_round_trip():
    vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2)]
    m = Mps.from_product(vecs)
    dense = m.to_dense()
    expected = np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
    assert np.allclose(dense, expected)


def test_inner_matches_dense():
    rng = np.random.default_rng(0)
    a = random_mps(rng)
    b = random_mps(rng)
    assert abs(a.inner(b) - np.vdot(a.to_dense(), b.to_dense())) < 1e-10


def test_add_and_scale_match_dense():
    rng = np.random.default_rng(1)
    a = random_mps(rng, length=3, phys=2, chi=3)
    b = random_mps(rng, length=3, phys=2, chi=2)
    s = a.add(b.scaled(2.0 - 1j))
    assert np.allclose(s.to_dense(), a.to_dense() + (2.0 - 1j) * b.to_dense())


def test_single_site_add():
    a = Mps.from_product([np.array([1.0, 0.0])])
    b = Mps.from_product([np.array([0.0, 2.0])])
    assert np.allclose(a.add(b).to_dense(), [1.0, 2.0])


def test_canonicalize_preserves_state():
    rng = np.random.default_rng(2)
    a = random_mps(rng, length=5, phys=3, chi=7)
    comp, info = a.canonicalize()
    assert np.allclose(comp.to_dense(), a.to_dense(), atol=1e-10)
    assert all(w == 0 or w < 1e-20 for w in info.discarded_weights)


def test_truncation_error_matches_discarded_weight():
    rng = np.random.default_rng(3)
    a = random_mps(rng, length=6, phys=2, chi=8)
    spec = TruncationSpec(max_rank=4)
    comp, info = a.canonicalize(spec)
    err2 = np.linalg.norm(comp.to_dense() - a.to_dense()) ** 2
    budget = sum(info.discarded_weights) * a.norm() ** 2
    # discarded weights are per-bond relative; total error is bounded by their sum
    assert err2 <= budget * 1.05 + 1e-10


def test_schmidt_spectra_sorted():
    rng = np.random.default_rng(4)
    a = random_mps(rng, length=4, phys=3, chi=5)
    _, info = a.canonicalize()
    for s in info.spectra:
        assert np.all(np.diff(s) <= 1e-12)


def test_compress_product_state_unchanged():
    vecs = [np.array([1.0, 2.0, 0.5]) for _ in range(4)]
    m = Mps.from_product(vecs)
    comp, info = m.canonicalize(TruncationSpec(max_rank=2))
    assert info.total_discarded == 0.0
    assert np.allclose(comp.to_dense(), m.to_dense())


def test_zero_state_is_harmless():
    z = Mps.zeros(3, 4)
    comp, info = z.canonicalize()
    assert comp.norm() == 0.0
    assert z.inner(z) == 0.0


def test_from_dense_round_trip():
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    m = Mps.from_dense(vec, 4)
    assert np.allclose(m.to_dense(), vec)


def test_dagger_reflect_matches_dense_adjoint():
    rng = np.random.default_rng(6)
    m = random_mps(rng, length=3, phys=4, chi=4)
    dense = choi_site_matrix(m.to_dense(), 3)
    refl = m.dagger_reflect()
    assert np.allclose(choi_site_matrix(refl.to_dense(), 3), dense.conj().T)


def test_mpo_from_local_terms_matches_dense_sum():
    rng = np.random.default_rng(9)
    length = 4
    terms = []
    dense = np.zeros((2**length, 2**length), dtype=complex)
    specs = [(0, "ZZ"), (2, "XY"), (1, "Z"), (3, "X"), (1, "YYZ")]
    for start, s in specs:
        terms.append(LocalOperator(start, pauli_string(s)))
        left = np.eye(2**start)
        right = np.eye(2 ** (length - start - len(s)))
        dense += np.kron(np.kron(left, pauli_string(s)), right)
    mpo = Mpo.from_local_terms(length, terms)
    assert np.max(np.abs(mpo.to_dense() - dense)) < 1e-10


@pytest.mark.parametrize("width", [4, 5])
def test_mpo_from_local_terms_wide_windows_match_dense_sum(width):
    # past width 3 the identity carriers run over more than one site on a
    # side of the window's middle site
    rng = np.random.default_rng(width)
    length = 6
    dense = np.kron(np.kron(np.eye(4), pauli_string("ZZ")), np.eye(4))
    terms = [LocalOperator(2, pauli_string("ZZ"))]
    for start in (0, length - width):
        mat = rng.standard_normal((2**width, 2**width)) + 1j * rng.standard_normal((2**width, 2**width))
        factors = _mpo_factors(mat, width)
        assert [f.shape[2] for f in factors[:-1]] == [4 ** min(k, width - k) for k in range(1, width)]
        terms.append(LocalOperator(start, mat))
        dense += np.kron(np.kron(np.eye(2**start), mat), np.eye(2 ** (length - start - width)))
    mpo = Mpo.from_local_terms(length, terms)
    assert np.max(np.abs(mpo.to_dense() - dense)) < 1e-12


@pytest.mark.parametrize(
    "field, bonds", [(False, [2, 3, 4, 3, 2]), (True, [3, 4, 4, 4, 3])], ids=["zzz", "zzz_x"]
)
def test_mpo_compression_finds_low_rank_windows(field, bonds):
    # a ZZZ window is a product operator, yet its exact split carries bond 4
    # at both cuts; the compression reaches the chain's minimal bonds
    length = 6
    terms = [LocalOperator(i, pauli_string("ZZZ")) for i in range(length - 2)]
    if field:
        terms += [LocalOperator(i, pauli_string("X")) for i in range(length)]
    mpo = Mpo.from_local_terms(length, terms)
    assert mpo.bond_dims == bonds


def test_mpo_at_its_ranks_keeps_exact_entries():
    # a random three-site window has full rank 4 at both cuts: the end
    # carriers reach those bonds without a factorization, the compression
    # then drops nothing, and the exact tensors come back, so the MPO
    # rebuilds the window bit for bit
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    mpo = Mpo.from_local_terms(3, [LocalOperator(0, mat), LocalOperator(1, pauli_string("ZZ"))])
    assert mpo.bond_dims == [4, 4]
    assert np.array_equal(mpo.to_dense(), mat + np.kron(PAULI["I"], pauli_string("ZZ")))


def counted_svds(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return truncated_svd(*args)

    monkeypatch.setattr(mps, "truncated_svd", counted)
    return calls


def window_with_spectrum(rng, values):
    """A three-qubit operator whose unfolding at the first cut has the
    given singular values."""
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4)))[0]
    return choi_site_matrix((u * values) @ v.conj().T, 3)


def test_rank_certificate_never_overrules_the_compression(monkeypatch):
    # the certificate accepts only a smallest Schmidt value above about 1e-6
    # of the largest, the compression cuts below 1e-13: a value between the
    # two is refused, yet the compression keeps it and the exact entries
    # come back (a Cholesky factor without the margin would accept 1e-7);
    # windows below full rank are cut as the SVD decides
    rng = np.random.default_rng(7)
    calls = counted_svds(monkeypatch)
    for small in (1e-11, 1e-7):
        calls.clear()
        near = window_with_spectrum(rng, [1.0, 0.6, 0.3, small])
        mpo = Mpo.from_local_terms(3, [LocalOperator(0, near)])
        assert len(calls) == 2 and mpo.bond_dims == [4, 4]
        assert np.array_equal(mpo.to_dense(), near)

    product = np.kron(np.kron(PAULI["X"], PAULI["Y"]), PAULI["Z"])
    mpo = Mpo.from_local_terms(3, [LocalOperator(0, product)])
    assert mpo.bond_dims == [1, 1]
    assert np.max(np.abs(mpo.to_dense() - product)) < 1e-15

    pieces = [rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)) for _ in range(2)]
    rank2 = sum(np.kron(np.kron(a[0], a[1]), a[2]) for a in pieces)
    noisy = rank2 + 1e-15 * rng.standard_normal((8, 8))
    mpo = Mpo.from_local_terms(3, [LocalOperator(0, noisy)])
    assert mpo.bond_dims == [2, 2]
    assert np.max(np.abs(mpo.to_dense() - noisy)) < 1e-13

    calls.clear()
    mpo = Mpo.from_local_terms(3, [LocalOperator(0, near), LocalOperator(0, -near)])
    assert len(calls) == 2 and mpo.bond_dims == [1, 1]
    assert not np.any(mpo.to_dense())


@pytest.mark.parametrize("length", [1, 2])
def test_short_chains_at_full_rank_skip_the_svd(monkeypatch, length):
    # one and two sites: a full-rank sum comes back exact with no SVD, and a
    # product term is still cut to bond 1
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((2**length, 2**length)) + 1j * rng.standard_normal((2**length, 2**length))
    calls = counted_svds(monkeypatch)
    mpo = Mpo.from_local_terms(length, [LocalOperator(0, mat), LocalOperator(length - 1, PAULI["Z"])])
    assert len(calls) == 0 and mpo.bond_dims == [4] * (length - 1)
    eye = np.eye(2 ** (length - 1))
    assert np.array_equal(mpo.to_dense(), mat + np.kron(eye, PAULI["Z"]))
    product = pauli_string("XY"[:length])
    assert Mpo.from_local_terms(length, [LocalOperator(0, product)]).bond_dims == [1] * (length - 1)


def test_mpo_from_local_terms_rejects_foreign_terms():
    # the terms fix the site dimension, so they must share one, and a term's
    # window is read from the operator, so it must lie on the chain
    qutrit = LocalOperator(0, np.eye(9), site_dim=3)
    for terms, dims in [([LocalOperator(0, pauli_string("ZZ")), qutrit], r"\[2, 3\]"), ([], r"\[\]")]:
        with pytest.raises(ValueError, match=f"one site dimension, got dimensions {dims}"):
            Mpo.from_local_terms(2, terms)
    with pytest.raises(ValueError, match="leaves the chain"):
        Mpo.from_local_terms(2, [LocalOperator(1, pauli_string("ZZ"))])


def test_mpo_single_site_chain():
    mpo = Mpo.from_local_terms(1, [LocalOperator(0, PAULI["X"]), LocalOperator(0, PAULI["Z"])])
    assert np.allclose(mpo.to_dense(), PAULI["X"] + PAULI["Z"])


def test_mpo_apply_matches_dense():
    rng = np.random.default_rng(10)
    length = 3
    terms = [
        LocalOperator(0, pauli_string("XX")),
        LocalOperator(1, pauli_string("ZZ")),
        LocalOperator(0, pauli_string("Y")),
    ]
    mpo = Mpo.from_local_terms(length, terms)
    state = random_mps(rng, length=length, phys=2, chi=4)
    out = state.apply_mpo(mpo, TruncationSpec())
    assert np.allclose(out.to_dense(), mpo.to_dense() @ state.to_dense(), atol=1e-10)


def test_mpo_adjoint():
    terms = [LocalOperator(0, pauli_string("XY")), LocalOperator(1, pauli_string("ZX"))]
    mpo = Mpo.from_local_terms(3, terms)
    adj = mpo.adjoint()
    assert np.max(np.abs(adj.to_dense() - mpo.to_dense().conj().T)) < 1e-12


def test_mpo_compression_reduces_bond():
    # A sum of many overlapping terms assembles with inflated bonds.
    length = 6
    terms = [LocalOperator(i, pauli_string("ZZ")) for i in range(length - 1)]
    terms += [LocalOperator(i, pauli_string("X")) for i in range(length)]
    mpo = Mpo.from_local_terms(length, terms)
    # Ising MPO compresses to bond dimension 3.
    assert mpo.max_bond <= 3 + 1e-9


def random_mpo(rng, length, phys, chi):
    bonds = [1] + [chi] * (length - 1) + [1]
    shapes = [(bonds[i], phys, phys, bonds[i + 1]) for i in range(length)]
    return Mpo([rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes])


@pytest.mark.parametrize("length", [1, 2, 3])
def test_mpo_add_matches_dense_sum(length):
    rng = np.random.default_rng(12)
    a, b = random_mpo(rng, length, 2, 2), random_mpo(rng, length, 2, 3)
    total = a.add(b)
    assert np.max(np.abs(total.to_dense() - a.to_dense() - b.to_dense())) < 1e-12
    assert total.bond_dims == [x + y for x, y in zip(a.bond_dims, b.bond_dims)]
