import csv
import json

import numpy as np
import pytest

from floquet_ness.exact import beta_from_entropy, entropy_of_density
from floquet_ness.freqspace import FloquetDensityMatrix
from floquet_ness.liouvillian import extended_null_vector
from floquet_ness.models import IsingBenchmarkParams, build_driven_ising
from floquet_ness.mps import Mps
from floquet_ness.observables import (
    ObservableSeries,
    averaged_correlation_profile,
    correlation_profile,
    expectation_series,
    ness_entropy_and_beta_eff,
    period_averaged_error,
    write_profile_csv,
    write_report_json,
    write_series_csv,
)
from floquet_ness.superops import PAULI, LocalOperator, choi_site_vector, sum_local_terms

L = 3
N_C = 1


@pytest.fixture(scope="module")
def ising():
    """Exact NESS blocks of the driven Ising chain and the same state as MPS."""
    model = build_driven_ising(IsingBenchmarkParams(chain_length=L, omega=5.0))
    exact = extended_null_vector(model, N_C)
    blocks = {
        n: Mps.from_dense(choi_site_vector(rho, L), L, 4) for n, rho in exact.items()
    }
    state = FloquetDensityMatrix(blocks, model.omega, N_C, L)
    return model, exact, state


def z_at(site):
    return sum_local_terms([LocalOperator(site, PAULI["Z"])], L)


def zz(rho, i, j):
    return np.trace(z_at(i) @ z_at(j) @ rho)


@pytest.mark.parametrize("connected", [False, True])
def test_correlation_profile_matches_dense(ising, connected):
    _, exact, state = ising
    rho0 = exact[0]
    prof = correlation_profile(state, 0, 2, connected=connected)
    expect = []
    for x in (1, 2):
        value = zz(rho0, 0, x)
        if connected:
            value -= np.trace(z_at(0) @ rho0) * np.trace(z_at(x) @ rho0)
        expect.append(value)
    assert prof.connected is connected
    assert list(prof.displacements) == [1, 2]
    assert np.max(np.abs(prof.values - np.asarray(expect))) < 1e-12
    # two points fix the exponential fit exactly
    slope = np.log(abs(expect[1])) - np.log(abs(expect[0]))
    assert prof.xi == pytest.approx(-1.0 / slope if slope < 0 else np.inf, rel=1e-8)


@pytest.mark.parametrize("connected", [False, True])
def test_averaged_correlation_profile_matches_dense(ising, connected):
    _, exact, state = ising
    rho0 = exact[0]
    prof = averaged_correlation_profile(state, 1, connected=connected)
    # on three sites the central third is site 1 alone
    expect = zz(rho0, 1, 2)
    if connected:
        expect -= np.trace(z_at(1) @ rho0) * np.trace(z_at(2) @ rho0)
    assert prof.reference_site == -1
    assert abs(prof.values[0] - expect) < 1e-12


def test_ness_entropy_and_beta_eff_matches_dense(ising):
    model, exact, state = ising
    d_matrix = sum_local_terms(model.hamiltonian_fourier[0], L)
    entropy, beta, clipped = ness_entropy_and_beta_eff(state, d_matrix)
    report = {}
    expect_entropy = entropy_of_density(exact[0], report)
    expect_beta = beta_from_entropy(expect_entropy, np.linalg.eigvalsh(d_matrix))
    assert entropy == pytest.approx(expect_entropy, abs=1e-10)
    assert beta == pytest.approx(expect_beta, abs=1e-8)
    assert clipped == pytest.approx(report["clipped_weight"], abs=1e-12)
    assert 0.0 < entropy < L * np.log(2)


def read_commented_csv(path):
    with open(path, newline="") as fh:
        first = fh.readline()
        rows = list(csv.reader(fh))
    assert first.startswith("# ")
    return json.loads(first[2:]), rows


def test_period_averaged_error_matches_analytic_mean():
    # |sin(omega t)| averages to 2 / pi over whole half-periods; the grid
    # holds every zero, so the trapezoid rule errs by O(h^2) only
    omega = 5.0
    period = 2 * np.pi / omega
    times = np.linspace(0.0, 2 * period, 4001)
    drive = ObservableSeries(times, 0.3 + np.sin(omega * times), "drive", period)
    offset = ObservableSeries(times, np.full(times.size, 0.3), "offset", period)
    assert period_averaged_error(drive, offset) == pytest.approx(2 / np.pi, rel=1e-5)
    assert period_averaged_error(offset, offset) == 0.0
    with pytest.raises(ValueError, match="grids"):
        period_averaged_error(drive, ObservableSeries(times + 1e-3, offset.values, "late", period))
    half = times <= period / 2
    with pytest.raises(ValueError, match="period"):
        period_averaged_error(
            ObservableSeries(times[half], drive.values[half], "drive", period),
            ObservableSeries(times[half], offset.values[half], "offset", period),
        )


def test_write_series_csv_round_trip(ising, tmp_path):
    model, _, state = ising
    times = np.linspace(0.0, 2 * np.pi / model.omega, 7)
    series = expectation_series(state, LocalOperator(1, PAULI["Z"]), times, hermitize=False)
    provenance = {"model": "ising", "n_c": N_C}
    path = tmp_path / "series.csv"
    write_series_csv(path, series, provenance)
    header, rows = read_commented_csv(path)
    assert header == provenance
    assert rows[0] == ["time", f"{series.label}_re", f"{series.label}_im"]
    got = np.array([[float(x) for x in row] for row in rows[1:]])
    assert got.shape == (times.size, 3)
    assert np.allclose(got[:, 0], times, rtol=1e-11, atol=0)
    assert np.allclose(got[:, 1], series.complex_values.real, rtol=1e-11, atol=1e-300)
    assert np.allclose(got[:, 2], series.complex_values.imag, rtol=1e-11, atol=1e-300)
    assert rows[1][1] == f"{series.complex_values[0].real:.12g}"


def test_write_profile_csv_round_trip(ising, tmp_path):
    _, _, state = ising
    prof = correlation_profile(state, 0, 2, connected=True)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof, {"reference_site": 0})
    header, rows = read_commented_csv(path)
    assert header == {"reference_site": 0}
    assert rows[0] == ["displacement", "value_re", "value_im"]
    for row, x, v in zip(rows[1:3], prof.displacements, prof.values):
        assert int(row[0]) == x
        assert float(row[1]) == pytest.approx(v.real, rel=1e-11)
        assert float(row[2]) == pytest.approx(v.imag, rel=1e-11, abs=1e-300)
    assert rows[3] == []
    assert rows[4][0] == "xi"
    assert float(rows[4][1]) == pytest.approx(prof.xi, rel=1e-11)


def test_write_report_json_round_trip(tmp_path):
    report = {"block_norms": {"0": 0.125, "1": 1.5e-7}, "warnings": ["w"], "converged": True}
    path = tmp_path / "report.json"
    write_report_json(path, report, {"seed": 7})
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded.pop("provenance") == {"seed": 7}
    assert loaded == report
    assert "provenance" not in report
