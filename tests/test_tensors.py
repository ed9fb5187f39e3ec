import numpy as np
import pytest

from floquet_ness.tensors import TruncationSpec, truncated_svd


def random_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_factorize_identity_no_truncation():
    u, s, vh, weight = truncated_svd(np.eye(2))
    assert np.allclose(s, [1.0, 1.0])
    assert weight == 0.0
    assert np.max(np.abs(u @ np.diag(s) @ vh - np.eye(2))) < 1e-12


def test_factorize_rank_one_outer_product():
    rng = np.random.default_rng(3)
    u = random_matrix(rng, 4)
    v = random_matrix(rng, 3)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    _, s, _, weight = truncated_svd(np.outer(u, v))
    assert np.sum(s > 1e-12) == 1
    assert abs(s[0] - 1.0) < 1e-12
    assert weight < 1e-24


def test_factorize_weight_cutoff():
    _, s, _, weight = truncated_svd(np.diag([1.0, 1e-12]), TruncationSpec(weight_cutoff=1e-8))
    assert s.size == 1
    assert abs(weight - 1e-24) < 1e-30


def test_factorize_reconstruction_error_matches_weight():
    rng = np.random.default_rng(17)
    mat = random_matrix(rng, (12, 5))
    u, s, vh, weight = truncated_svd(mat, TruncationSpec(max_rank=3))
    assert s.size == 3
    err2 = np.linalg.norm((u * s) @ vh - mat) ** 2
    assert abs(err2 - weight * np.linalg.norm(mat) ** 2) < 1e-10


def test_singular_values_sorted_nonincreasing():
    rng = np.random.default_rng(23)
    _, s, _, _ = truncated_svd(random_matrix(rng, (6, 6)))
    assert np.all(np.diff(s) <= 1e-14)
    assert np.all(s >= 0)


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(max_rank=0)
    with pytest.raises(ValueError):
        TruncationSpec(weight_cutoff=1.0)
