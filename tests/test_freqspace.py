import json
import re

import numpy as np
import pytest

from floquet_ness.freqspace import (
    FloquetDensityMatrix,
    FloquetMPO,
    block_norms,
    compress,
    hermiticity_defect,
    initial_guess,
    load_state,
    save_state,
    trace_components,
)
from floquet_ness.mps import Mps
from floquet_ness.observables import harmonic_expectations
from floquet_ness.superops import PAULI, LocalOperator, choi_site_matrix
from floquet_ness.tensors import TruncationSpec


def random_state(rng, length=3, cutoff=2, chi=4, omega=5.0):
    blocks = {
        n: Mps.random(length, 4, chi, rng, norm=None) for n in range(-cutoff, cutoff + 1)
    }
    return FloquetDensityMatrix(blocks, omega, cutoff)


def test_initial_guess_noise_free():
    state = initial_guess(1, 2, 1, omega=3.0)
    dense = state.blocks[0].to_dense()
    assert np.allclose(dense, [0.5, 0, 0, 0.5])
    assert state.blocks[1].norm() == 0.0
    assert state.blocks[-1].norm() == 0.0


def test_initial_guess_traces():
    state = initial_guess(4, 2, 2, omega=1.0)
    traces = trace_components(state)
    for n, t in traces.items():
        assert abs(t - (1.0 if n == 0 else 0.0)) < 1e-12


def test_block_trace_evaluates_trace():
    rng = np.random.default_rng(7)
    state = random_state(rng, length=2, cutoff=1, chi=3)
    for n in state.harmonics:
        rho = choi_site_matrix(state.blocks[n].to_dense(), 2)
        assert abs(state.block_trace(n) - np.trace(rho)) < 1e-12


def test_initial_guess_determinism():
    a = initial_guess(3, 2, 1, omega=1.0, noise_amplitude=1e-3, seed=42)
    b = initial_guess(3, 2, 1, omega=1.0, noise_amplitude=1e-3, seed=42)
    for n in a.harmonics:
        for ta, tb in zip(a.blocks[n].tensors, b.blocks[n].tensors):
            assert np.array_equal(ta, tb)


def test_block_norms_of_mixed_state():
    state = initial_guess(1, 2, 1, omega=1.0)
    norms = block_norms(state)
    assert abs(norms[0] - 1 / np.sqrt(2)) < 1e-12
    assert norms[1] == 0.0
    # general chain: |I/2^L| = 2^{-L/2}
    state4 = initial_guess(4, 2, 0, omega=1.0)
    assert abs(block_norms(state4)[0] - 2.0**-2) < 1e-12


def test_trace_pair_property_for_hermitian_state():
    rng = np.random.default_rng(7)
    half = {n: Mps.random(3, 4, 3, rng, norm=None) for n in range(0, 3)}
    blocks = dict(half)
    for n in range(1, 3):
        blocks[-n] = half[n].dagger_reflect()
    state = FloquetDensityMatrix(blocks, 2.0, 2)
    traces = trace_components(state)
    for n in range(1, 3):
        assert abs(traces[-n] - np.conj(traces[n])) < 1e-10


def test_compress_product_state_unchanged():
    state = initial_guess(4, 2, 1, omega=1.0)
    out, discarded, spectra = compress(state, TruncationSpec(max_rank=2))
    assert all(w == 0.0 for ws in discarded.values() for w in ws)
    assert np.allclose(out.blocks[0].to_dense(), state.blocks[0].to_dense())


def test_compress_reports_discarded_weight():
    rng = np.random.default_rng(3)
    state = random_state(rng, length=5, cutoff=0, chi=8)
    spec = TruncationSpec(max_rank=4)
    out, discarded, spectra = compress(state, spec)
    err2 = np.linalg.norm(out.blocks[0].to_dense() - state.blocks[0].to_dense()) ** 2
    budget = sum(discarded[0]) * state.blocks[0].norm() ** 2
    assert err2 <= budget * 1.05 + 1e-10
    for s in spectra[0]:
        assert np.all(np.diff(s) <= 1e-12)


def test_compress_never_increases_norms():
    rng = np.random.default_rng(4)
    state = random_state(rng, length=4, cutoff=1, chi=6)
    out, _, _ = compress(state, TruncationSpec(max_rank=3))
    before = block_norms(state)
    after = block_norms(out)
    for n in state.harmonics:
        assert after[n] <= before[n] + 1e-12


def test_hermiticity_defect_zero_for_reflected_state():
    rng = np.random.default_rng(5)
    half = {n: Mps.random(2, 4, 2, rng, norm=None) for n in range(0, 2)}
    sym = half[0].add(half[0].dagger_reflect()).scaled(0.5)
    blocks = {0: sym, 1: half[1], -1: half[1].dagger_reflect()}
    state = FloquetDensityMatrix(blocks, 1.0, 1)
    defects = hermiticity_defect(state)
    assert all(v < 1e-7 for v in defects.values())


def test_hermiticity_defect_detects_asymmetry():
    rng = np.random.default_rng(6)
    state = random_state(rng, length=2, cutoff=1, chi=3)
    defects = hermiticity_defect(state)
    assert max(defects.values()) > 0.1


@pytest.mark.parametrize("length", [1, 2, 3])
def test_batched_diagnostics_match_each_block_with_unequal_bonds(length):
    # block_norms, trace_components and hermiticity_defect treat every
    # harmonic at once, on site stacks zero-padded to the largest bonds: on
    # blocks of bonds 1, 2 and 3 (and a zero block) each agrees with its
    # block-by-block or dense value
    rng = np.random.default_rng(length)
    blocks = {n: Mps.random(length, 4, chi, rng, norm=None) for n, chi in zip(range(-2, 3), (2, 1, 3, 2, 1))}
    blocks[2] = Mps.zeros(length, 4)
    state = FloquetDensityMatrix(blocks, 5.0, 2)
    dense = state.to_dense_blocks()
    norms, traces, defects = block_norms(state), trace_components(state), hermiticity_defect(state)
    for n in state.harmonics:
        assert abs(norms[n] - np.linalg.norm(dense[n])) < 1e-12 * max(1.0, norms[n])
        assert abs(traces[n] - np.trace(dense[n])) < 1e-12 * max(1.0, abs(traces[n]))
        exact = np.linalg.norm(dense[n] - dense[-n].conj().T) / np.linalg.norm(dense[0])
        assert abs(defects[n] - exact) < 1e-12 * max(1.0, exact)
    assert norms[2] == 0.0 and traces[2] == 0.0


def test_hermiticity_defect_zero_state_raises():
    blocks = {0: Mps.zeros(2, 4)}
    state = FloquetDensityMatrix(blocks, 1.0, 0)
    with pytest.raises(ValueError):
        hermiticity_defect(state)


def test_extended_inner():
    rng = np.random.default_rng(8)
    state = random_state(rng)
    val = state.inner(state)
    assert val.real > 0 and abs(val.imag) < 1e-12


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    state = random_state(rng, length=3, cutoff=2)
    path = tmp_path / "state.npz"
    save_state(state, path)
    back = load_state(path)
    assert back.omega == state.omega
    assert back.cutoff == state.cutoff
    for n in state.harmonics:
        for a, b in zip(state.blocks[n].tensors, back.blocks[n].tensors):
            assert np.array_equal(a, b)


def test_load_state_rejects_a_header_that_disagrees_with_the_tensors(tmp_path):
    state = random_state(np.random.default_rng(9), length=3, cutoff=1)
    path = tmp_path / "state.npz"
    save_state(state, path)
    with np.load(path) as data:
        arrays = dict(data)
    for key, value in (("chain_length", 4), ("site_dim", 3)):
        header = json.loads(bytes(arrays["header"]).decode()) | {key: value}
        tampered = tmp_path / f"{key}.npz"
        np.savez(tampered, **arrays | {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)})
        with pytest.raises(ValueError, match=f"{key}={value}"):
            load_state(tampered)


def test_containers_read_their_dimensions_and_are_never_empty():
    rng = np.random.default_rng(11)
    state = FloquetDensityMatrix({-1: Mps.zeros(3, 9), 0: Mps.random(3, 9, 2, rng), 1: Mps.zeros(3, 9)}, 1.0, 1)
    assert (state.chain_length, state.site_dim) == (3, 3)
    with pytest.raises(ValueError):
        FloquetDensityMatrix({}, 1.0, 0)
    with pytest.raises(ValueError, match="geometry"):
        FloquetDensityMatrix({-1: Mps.zeros(3, 4), 0: Mps.random(3, 4, 2, rng), 1: Mps.random(2, 4, 2, rng)}, 1.0, 1)
    with pytest.raises(ValueError):
        FloquetMPO({}, 1.0)


def test_states_hold_exactly_the_harmonic_ladder(tmp_path):
    # the keys must be -cutoff..cutoff: a missing, an extra or an
    # out-of-range harmonic is refused, naming both sets, and so is a
    # checkpoint that lost one block and a cutoff that is not an integer
    state = random_state(np.random.default_rng(12), length=2, cutoff=1)
    full = state.blocks
    missing, extra = {n: full[n] for n in (-1, 0)}, {**full, 2: full[1]}
    out_of_range = {-1: full[-1], 0: full[0], 2: full[1]}
    for blocks in (missing, extra, out_of_range):
        with pytest.raises(ValueError, match=re.escape(f"harmonics [-1, 0, 1], got {sorted(blocks)}")):
            FloquetDensityMatrix(blocks, state.omega, 1)
    path = tmp_path / "state.npz"
    save_state(state, path)
    with np.load(path) as data:
        arrays = {k: v for k, v in data.items() if not k.startswith("block_2_")}  # block 1, stored at n + cutoff
    header = json.loads(bytes(arrays["header"]).decode())
    header["harmonics"].remove(1)
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(tmp_path / "lost.npz", **arrays)
    with pytest.raises(ValueError, match=r"got \[-1, 0\]"):
        load_state(tmp_path / "lost.npz")
    # the cutoff is an integer (a numpy one too), never a float or a bool
    for cutoff in (1.7, 1.0, True):
        with pytest.raises(ValueError, match=re.escape(f"cutoff must be an integer, got {cutoff!r}")):
            FloquetDensityMatrix(full, state.omega, cutoff)
    with pytest.raises(ValueError, match="cutoff must be an integer, got 1.5"):
        initial_guess(2, 2, 1.5, 1.0)
    assert FloquetDensityMatrix(full, state.omega, np.int64(1)).cutoff == 1
    assert initial_guess(2, 2, np.int32(1), 1.0).cutoff == 1


def test_time_reconstruction_periodicity():
    rng = np.random.default_rng(10)
    state = random_state(rng, length=2, cutoff=2, omega=3.7)
    coeffs = harmonic_expectations(state, LocalOperator(0, PAULI["Z"]))

    def value(t):
        return sum(c * np.exp(1j * n * state.omega * t) for n, c in coeffs.items())

    period = 2 * np.pi / state.omega
    for t in np.linspace(0.0, 2.0, 7):
        assert abs(value(t) - value(t + period)) < 1e-12
