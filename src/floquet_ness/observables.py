"""Physical observables from harmonic-resolved states.

Time series reconstruct ``<O(t)> = sum_n exp(i n omega t) Tr(O rho^n)`` with
the harmonic traces evaluated by MPS contraction; the sum is
:func:`.superops.fourier_sum`, the package's one resummation. Correlation
profiles and the entropy-based effective temperature use the static harmonic
``rho^0``.
Small CSV/JSON writers store series, profiles and reports (for instance
``SolveReport.to_dict()``) with a provenance record.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass

import numpy as np

from .exact import DEFAULT_DENSE_DIM, beta_from_entropy, entropy_of_density
from .freqspace import FloquetDensityMatrix
from .mps import Mps
from .superops import PAULI, LocalOperator, choi_site_vector, fourier_sum, vectorize_choi

logger = logging.getLogger(__name__)

__all__ = [
    "ObservableSeries",
    "CorrelationProfile",
    "expectation_series",
    "period_averaged_error",
    "correlation_profile",
    "averaged_correlation_profile",
    "ness_entropy_and_beta_eff",
    "harmonic_expectations",
    "write_series_csv",
    "write_profile_csv",
    "write_report_json",
]


@dataclass
class ObservableSeries:
    """Sampled expectation values of one observable over time."""

    times: np.ndarray
    values: np.ndarray
    label: str
    period: float
    max_imag: float = 0.0
    complex_values: np.ndarray = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.complex_values is None:
            self.complex_values = self.values.astype(complex)


@dataclass
class CorrelationProfile:
    """Two-point correlations against displacement with an exponential fit."""

    reference_site: int
    displacements: np.ndarray
    values: np.ndarray
    xi: float
    fit_residual: float
    connected: bool = False


def harmonic_expectations(state: FloquetDensityMatrix, op: LocalOperator):
    """``{n: Tr(O rho^n)}`` for a windowed observable.

    ``Tr(O rho) = <<O^dag|rho>>``, so the dual is the site-major ``vec(O^dag)``
    of the window, factorized into a small MPS once and padded with the
    vectorized identity, and each harmonic block is paired with it by
    :meth:`Mps.inner`.
    """
    if op.start < 0 or op.stop > state.chain_length:
        raise ValueError("observable window leaves the chain")
    if op.site_dim != state.site_dim:
        raise ValueError(f"observable on sites of dimension {op.site_dim}, state on {state.site_dim}")
    eye = vectorize_choi(np.eye(state.site_dim, dtype=complex)).reshape(-1, 1, 1)
    window = Mps.from_dense(choi_site_vector(op.matrix.conj().T, op.width), op.width).tensors
    dual = Mps([eye] * op.start + window + [eye] * (state.chain_length - op.stop))
    return {n: dual.inner(state.blocks[n]) for n in state.harmonics}


def expectation_series(state: FloquetDensityMatrix, op: LocalOperator, times, hermitize=True):
    """Time series ``<O(t)>`` including all retained micro-motion harmonics.

    For Hermitian observables on (numerically) Hermitian states the series is
    real; the residual imaginary part is recorded on the result. With
    ``hermitize=False`` the complex series is kept as the principal values
    (used for non-Hermitian modes in transient reconstruction).
    """
    times = np.asarray(times, dtype=float)
    values = fourier_sum(harmonic_expectations(state, op), state.omega, times)
    period = 2 * np.pi / state.omega
    max_imag = float(np.max(np.abs(values.imag))) if values.size else 0.0
    label = f"O[{op.start}:{op.stop}]"
    if hermitize and max_imag > 1e-6 * max(1.0, np.max(np.abs(values.real))):
        logger.warning("observable series has imaginary residue %.2e", max_imag)
    return ObservableSeries(
        times=times,
        values=values.real,
        label=label,
        period=period,
        max_imag=max_imag,
        complex_values=values,
    )


def period_averaged_error(a: ObservableSeries, b: ObservableSeries):
    """Time-averaged absolute difference of two series on a common grid."""
    if a.times.shape != b.times.shape or np.max(np.abs(a.times - b.times)) > 1e-12:
        raise ValueError("series grids do not match")
    span = a.times[-1] - a.times[0]
    period = a.period or b.period
    if span + 1e-9 < period:
        raise ValueError("series must span at least one period")
    diff = np.abs(a.values - b.values)
    return float(np.trapezoid(diff, a.times) / span)


def correlation_profile(
    state: FloquetDensityMatrix,
    reference_site,
    x_max,
    observable=None,
    connected=False,
    floor=1e-8,
):
    """Two-point profile ``<Z_j Z_{j+x}>`` from the static harmonic.

    The period average of the full series equals the static-harmonic trace,
    so only ``rho^0`` enters. The correlation length comes from a least
    squares line through ``log |value|`` over the displacements above
    `floor`; the fit has a free intercept, making it scale invariant.
    """
    obs = PAULI["Z"] if observable is None else np.asarray(observable, dtype=complex)
    j, d = reference_site, state.site_dim
    if j + x_max >= state.chain_length:
        raise ValueError("displacement range leaves the chain")
    values = []
    for x in range(1, x_max + 1):
        window = np.kron(np.kron(obs, np.eye(d ** (x - 1), dtype=complex)), obs)
        pair = LocalOperator(j, window, d)
        coeff = harmonic_expectations(state, pair)[0]
        if connected:
            a = harmonic_expectations(state, LocalOperator(j, obs, d))[0]
            b = harmonic_expectations(state, LocalOperator(j + x, obs, d))[0]
            coeff = coeff - a * b
        values.append(coeff)
    displacements = np.arange(1, x_max + 1)
    values = np.asarray(values)
    xi, residual = _fit_correlation_length(displacements, values, floor)
    return CorrelationProfile(
        reference_site=j,
        displacements=displacements,
        values=values,
        xi=xi,
        fit_residual=residual,
        connected=connected,
    )


def _fit_correlation_length(displacements, values, floor):
    mags = np.abs(values)
    mask = mags > floor
    if np.sum(mask) < 2:
        return float("nan"), float("nan")
    x = displacements[mask]
    y = np.log(mags[mask])
    coeffs, res = np.polyfit(x, y, 1, full=True)[:2]
    slope = coeffs[0]
    residual = float(res[0]) if len(res) else 0.0
    xi = -1.0 / slope if slope < 0 else float("inf")
    return float(xi), residual


def averaged_correlation_profile(state, x_max, observable=None, connected=False, floor=1e-8):
    """Correlation profile averaged over reference sites in the central third."""
    length = state.chain_length
    lo = length // 3
    hi = max(lo + 1, length - length // 3 - x_max)
    refs = [j for j in range(lo, hi) if j + x_max < length] or [
        min(lo, length - x_max - 1)
    ]
    acc = None
    for j in refs:
        prof = correlation_profile(state, j, x_max, observable, connected, floor)
        acc = prof.values if acc is None else acc + prof.values
    mean_vals = acc / len(refs)
    displacements = np.arange(1, x_max + 1)
    xi, residual = _fit_correlation_length(displacements, mean_vals, floor)
    return CorrelationProfile(
        reference_site=-1,
        displacements=displacements,
        values=mean_vals,
        xi=xi,
        fit_residual=residual,
        connected=connected,
    )


def ness_entropy_and_beta_eff(state: FloquetDensityMatrix, d_matrix):
    """Entropy of the period-averaged state and the matching Gibbs temperature.

    Reconstructs ``rho^0`` densely (refused above the extent
    :data:`~floquet_ness.exact.DEFAULT_DENSE_DIM`), clips the
    negative eigenvalues that truncation can produce, and bisects the Gibbs
    entropy curve of `d_matrix` for the effective inverse temperature.
    Returns ``(entropy, beta_eff, clipped_weight)``.
    """
    dl = state.site_dim**state.chain_length
    if dl > DEFAULT_DENSE_DIM:
        raise ValueError(f"dense reconstruction of dimension {dl} refused")
    rho0 = state.to_dense_blocks()[0]
    report = {}
    entropy = entropy_of_density(rho0, report)
    energies = np.linalg.eigvalsh(np.asarray(d_matrix))
    beta_eff = beta_from_entropy(entropy, energies)
    return entropy, beta_eff, report["clipped_weight"]


# -- writers -------------------------------------------------------------------


def write_series_csv(path, series: ObservableSeries, provenance=None):
    """CSV with a provenance comment line, then time, re, im columns."""
    with open(path, "w", newline="") as fh:
        if provenance is not None:
            fh.write("# " + json.dumps(provenance, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["time", f"{series.label}_re", f"{series.label}_im"])
        for t, v in zip(series.times, series.complex_values):
            writer.writerow([f"{t:.12g}", f"{v.real:.12g}", f"{v.imag:.12g}"])


def write_profile_csv(path, profile: CorrelationProfile, provenance=None):
    with open(path, "w", newline="") as fh:
        if provenance is not None:
            fh.write("# " + json.dumps(provenance, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["displacement", "value_re", "value_im"])
        for x, v in zip(profile.displacements, profile.values):
            writer.writerow([int(x), f"{np.real(v):.12g}", f"{np.imag(v):.12g}"])
        writer.writerow([])
        writer.writerow(["xi", f"{profile.xi:.12g}", ""])


def write_report_json(path, report: dict, provenance=None):
    payload = dict(report)
    if provenance is not None:
        payload["provenance"] = provenance
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
