"""Concrete chain models and bath machinery.

Contents: the sinusoidally driven Ising benchmark with majority-rule
dissipation, the Ohmic bath and its jump correlator, the high-frequency
(van Vleck) effective Hamiltonian / kicking-operator expansion, the
pulse-driven Ising chain in the frame rotating with the pi-pulses, and the
construction of spatially truncated, time-periodic jump operators from the
bath spectral function.

Fourier conventions: every periodic operator is expanded as
``O(t) = sum_k O^k exp(i k nu t)`` in its model's fundamental ``nu``, and
:func:`.superops.fourier_sum` is the one implementation of that sum. The
rotating-frame models run at ``nu = omega / 2`` because absorbing the pulses
doubles the period.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import expm

from .liouvillian import ModelSpec
from .superops import PAULI, LocalOperator, fourier_sum, sum_local_terms, window_sums

logger = logging.getLogger(__name__)

__all__ = [
    "IsingBenchmarkParams",
    "DTCParams",
    "OhmicBath",
    "EffectivePair",
    "JumpCorrelator",
    "build_driven_ising",
    "majority_rule_operator",
    "van_vleck",
    "effective_propagator_error",
    "jump_correlator",
    "build_dtc_rotating_frame",
    "drive_envelope_fourier",
    "build_dissipative_jump_ops",
    "build_dtc_model",
    "truncation_diagnostic",
    "tilted_product_state",
]


# ---------------------------------------------------------------------------
# Driven-dissipative Ising benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsingBenchmarkParams:
    """Couplings of the sinusoidally driven Ising chain."""

    j: float = 1.0
    h: float = 0.5
    g: float = 1.0
    gamma: float = 1.0
    omega: float = 5.0
    chain_length: int = 5

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("drive frequency must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


def _ising_terms(p: IsingBenchmarkParams):
    zz = -p.j * np.kron(PAULI["Z"], PAULI["Z"])
    ising = [LocalOperator(i, zz) for i in range(p.chain_length - 1)]
    ising += [LocalOperator(i, p.h * PAULI["Z"]) for i in range(p.chain_length)]
    trans = [LocalOperator(i, p.g * PAULI["X"]) for i in range(p.chain_length)]
    return ising, trans


def build_driven_ising(p: IsingBenchmarkParams) -> ModelSpec:
    """Driven Ising chain with static majority-rule jump operators.

    The drive splits the Hamiltonian as ``p(t) * (Ising + longitudinal)``
    plus ``q(t) * (transverse)`` with ``p = (1 - sin wt)/2``,
    ``q = (1 + sin wt)/2``, giving harmonics k = -1, 0, +1:

        H^0     = (Ising + longitudinal + transverse) / 2
        H^{+1}  = (i/4) (Ising + longitudinal) - (i/4) transverse
        H^{-1}  = (H^{+1})^dag

    Each site carries one majority-rule channel on its three-site window;
    at the chain ends the window is clipped to the in-bounds sites and the
    rule keeps its "number of neighbors agreeing with the flipped center"
    amplitudes, which reproduces the bulk operator away from the edges.
    """
    if p.chain_length < 3:
        raise ValueError("majority rule needs at least three sites")
    ising, trans = _ising_terms(p)
    h0 = [t.scaled(0.5) for t in ising + trans]
    h_plus = [t.scaled(0.25j) for t in ising] + [t.scaled(-0.25j) for t in trans]
    h_minus = [LocalOperator(t.start, t.matrix.conj().T) for t in h_plus]
    jumps = {}
    for i in range(p.chain_length):
        start = max(0, i - 1)
        stop = min(p.chain_length, i + 2)
        op = majority_rule_operator(i - start, stop - start)
        jumps[i] = {0: LocalOperator(start, np.sqrt(p.gamma) * op)}
    return ModelSpec(
        chain_length=p.chain_length,
        omega=p.omega,
        hamiltonian_fourier={0: h0, 1: h_plus, -1: h_minus},
        jump_fourier=jumps,
    ).validate()


def majority_rule_operator(center, width):
    """Majority-rule flip operator on a window of `width` sites.

    Flips the `center` spin with amplitude equal to the number of in-window
    neighbors already pointing along the flipped value. For a full three-site
    window this is ``2|sss><s,-s,s| + 1 * (split neighbors)`` plus the global
    spin-flip image; clipped two-site windows inherit the same counting rule.
    """
    if not 0 <= center < width:
        raise ValueError("center outside window")
    dim = 2**width
    out = np.zeros((dim, dim), dtype=complex)
    for state in range(dim):
        bits = [(state >> (width - 1 - s)) & 1 for s in range(width)]
        flipped = 1 - bits[center]
        amp = sum(1 for s in range(width) if s != center and bits[s] == flipped)
        if amp == 0:
            continue
        new_bits = list(bits)
        new_bits[center] = flipped
        target = 0
        for b in new_bits:
            target = (target << 1) | b
        out[target, state] += amp
    return out


# ---------------------------------------------------------------------------
# Ohmic bath and jump correlator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OhmicBath:
    """Ohmic bath with exponential cutoff and thermal occupation.

    Spectral density ``J(e) = (e / epsilon_0) exp(-|e| / omega_c)
    / (1 - exp(-beta e))`` with the ``e -> 0`` limit ``1 / (beta epsilon_0)``,
    which satisfies ``J(e) / J(-e) = exp(beta e)`` identically.
    """

    beta: float
    omega_c: float
    epsilon_0: float = 1.0

    def __post_init__(self):
        if self.beta <= 0 or self.omega_c <= 0 or self.epsilon_0 <= 0:
            raise ValueError("bath parameters must be positive")

    def spectral_density(self, eps):
        eps = np.asarray(eps, dtype=float)
        small = np.abs(self.beta * eps) < 1e-12
        safe = np.where(small, 1.0, eps)
        with np.errstate(over="ignore"):
            denom = 1.0 - np.exp(-self.beta * safe)
        out = np.where(
            small,
            1.0 / (self.beta * self.epsilon_0),
            (safe / self.epsilon_0) * np.exp(-np.abs(safe) / self.omega_c) / denom,
        )
        return out if out.ndim else float(out)

    def jump_amplitude(self, eps):
        """Square root of the spectral density."""
        dens = np.asarray(self.spectral_density(eps), dtype=float)
        dens = np.clip(dens, 0.0, None)  # guard tiny negative rounding
        out = np.sqrt(dens)
        return out if out.ndim else float(out)

    def default_freq_grid(self, max_time=None):
        extent = 40.0 * max(self.omega_c, 1.0 / self.beta)
        spacing = min(self.omega_c, 1.0 / self.beta) / 20.0
        if max_time:
            spacing = min(spacing, np.pi / (5.0 * max_time))
        n = int(np.ceil(2 * extent / spacing)) + 1
        return np.linspace(-extent, extent, n)

    def default_time_grid(self):
        extent = 40.0 / self.omega_c
        spacing = np.pi / (20.0 * max(self.omega_c, 1.0 / self.beta))
        n = int(np.ceil(2 * extent / spacing)) + 1
        return np.linspace(-extent, extent, n)


@dataclass
class JumpCorrelator:
    """Sampled jump correlator ``g(t)`` and the bath correlation time."""

    times: np.ndarray
    values: np.ndarray
    tau_b: float
    support_cut: float


def _settle_time(abs_t, mags, level):
    """First ``|t|`` from which on every ``mags`` entry stays below `level`;
    the largest ``|t|`` if none does. The suffix maximum over sorted ``|t|``,
    read at the first of equal times, covers every sample at or beyond it."""
    order = np.argsort(abs_t, kind="stable")
    tail = np.maximum.accumulate(mags[order][::-1])[::-1]
    times, first = np.unique(abs_t[order], return_index=True)
    below = tail[first] < level
    return float(times[np.argmax(below)] if below.any() else times[-1])


def jump_correlator(bath: OhmicBath, freq_grid=None, time_grid=None):
    """Fourier transform of ``sqrt(J)`` sampled on a time grid.

    ``g(t) = (1/2 pi) integral dw sqrt(J(w)) exp(-i w t)`` by trapezoid
    quadrature. The bath correlation time is where ``|g|`` first stays below
    ``1/e`` of its peak; the support cut marks where it falls below
    ``1e-6 * max|g|``. Grids that do not resolve the cutoff and thermal
    scales are rejected.
    """
    times = bath.default_time_grid() if time_grid is None else np.asarray(time_grid, float)
    if freq_grid is None:
        freq = bath.default_freq_grid(max_time=float(np.max(np.abs(times))))
    else:
        freq = np.asarray(freq_grid, float)
    dw = np.diff(freq)
    if freq.size < 16 or np.max(dw) - np.min(dw) > 1e-9 * np.max(np.abs(freq)):
        raise ValueError("frequency grid must be uniform and reasonably sized")
    extent = freq[-1]
    if extent < 20.0 * bath.omega_c:
        raise ValueError(
            f"frequency grid extent {extent:.3g} does not cover the bath cutoff"
        )
    max_t = np.max(np.abs(times))
    if max_t > 0 and dw[0] > np.pi / (4.0 * max_t):
        raise ValueError("frequency spacing too coarse for the requested times")
    amp = bath.jump_amplitude(freq)
    phases = np.exp(-1j * np.outer(times, freq))
    values = np.trapezoid(phases * amp[None, :], freq, axis=1) / (2 * np.pi)
    peak = float(np.max(np.abs(values)))
    abs_t, mags = np.abs(times), np.abs(values)
    tau_b = _settle_time(abs_t, mags, peak / np.e)
    cut = _settle_time(abs_t, mags, 1e-6 * peak)
    return JumpCorrelator(times=times, values=values, tau_b=tau_b, support_cut=cut)


# ---------------------------------------------------------------------------
# High-frequency (van Vleck) expansion
# ---------------------------------------------------------------------------


@dataclass
class EffectivePair:
    """Static effective Hamiltonian and periodic kicking operator.

    ``d_terms`` is the local-term list of the static Hamiltonian;
    ``k_fourier`` maps the harmonic to the local-term list of the kicking
    operator, with ``K(t) = sum_k K^k exp(i k nu t)`` Hermitian at every t.
    Dense forms are on the terms' sites; either list may be empty.
    """

    d_terms: list
    k_fourier: dict
    fundamental: float
    order: int

    def _zero(self, chain_length):
        (site_dim,) = {t.site_dim for terms in (self.d_terms, *self.k_fourier.values()) for t in terms}
        return np.zeros((site_dim**chain_length,) * 2, dtype=complex)

    def dense_d(self, chain_length):
        return sum_local_terms(self.d_terms, chain_length) if self.d_terms else self._zero(chain_length)

    def dense_k(self, chain_length):
        return {k: sum_local_terms(terms, chain_length) for k, terms in self.k_fourier.items()}

    def k_at_time(self, t, chain_length):
        """``K(t)``; a zero matrix at order 0, which has no kicking harmonics."""
        return self._zero(chain_length) + fourier_sum(self.dense_k(chain_length), self.fundamental, t)


def _merge_terms(terms, tol=1e-14):
    return [
        LocalOperator(start, mat, terms[0].site_dim)
        for (start, _w), mat in sorted(window_sums(terms).items())
        if np.max(np.abs(mat)) > tol
    ]


def _commutator_terms(terms_a, terms_b):
    from .superops import commutator_local

    out = []
    for a in terms_a:
        for b in terms_b:
            c = commutator_local(a, b)
            if c is not None and np.max(np.abs(c.matrix)) > 1e-15:
                out.append(c)
    return _merge_terms(out)


def van_vleck(h_fourier, fundamental, order=2):
    """High-frequency expansion of a periodic local Hamiltonian.

    `h_fourier` maps the harmonic ``k`` to the local terms of ``H^k`` in the
    given `fundamental`. Returns the static Hamiltonian

        D = H^0 + sum_{k!=0} [H^k, H^-k] / (2 k nu)
                + sum_{k!=0} [[H^k, H^0], H^-k] / (2 k^2 nu^2)
                + sum_{k!=0, q!=k,0} [[H^k, H^{q-k}], H^-q] / (3 q k nu^2)

    and the kicking harmonics via

        i K^k = H^k / (k nu) + [H^k, H^0] / (k^2 nu^2)
                + sum_{q!=k,0} [H^q, H^{k-q}] / (2 k q nu^2)      (k != 0),

    truncated at the requested `order` in ``1 / nu``. Commutators are
    evaluated on merged support windows, so locality is preserved up to the
    order-dependent widening.
    """
    if order not in (0, 1, 2):
        raise ValueError("supported expansion orders are 0, 1, 2")
    nu = float(fundamental)
    comps = {k: list(v) for k, v in h_fourier.items() if v}
    nonzero = [k for k in comps if k != 0]
    d_terms = list(comps.get(0, []))
    k_fourier = {}
    if order >= 1:
        for k in nonzero:
            if -k in comps:
                first = _commutator_terms(comps[k], comps[-k])
                d_terms += [t.scaled(1.0 / (2 * k * nu)) for t in first]
            k_fourier.setdefault(k, []).extend(
                t.scaled(1.0 / (1j * k * nu)) for t in comps[k]
            )
    if order >= 2:
        for k in nonzero:
            if 0 in comps:
                inner = _commutator_terms(comps[k], comps[0])
                if -k in comps:
                    outer = _commutator_terms(inner, comps[-k])
                    d_terms += [t.scaled(1.0 / (2 * k**2 * nu**2)) for t in outer]
                k_fourier.setdefault(k, []).extend(
                    t.scaled(1.0 / (1j * k**2 * nu**2)) for t in inner
                )
            for q in nonzero:
                if q == k:
                    continue
                if q - k in comps:
                    inner = _commutator_terms(comps[k], comps[q - k])
                    if -q in comps:
                        outer = _commutator_terms(inner, comps[-q])
                        d_terms += [t.scaled(1.0 / (3 * q * k * nu**2)) for t in outer]
                if k - q in comps:
                    inner = _commutator_terms(comps[q], comps[k - q])
                    k_fourier.setdefault(k, []).extend(
                        t.scaled(1.0 / (1j * 2 * k * q * nu**2)) for t in inner
                    )
    d_terms = _merge_terms(d_terms)
    k_fourier = {k: _merge_terms(v) for k, v in k_fourier.items()}
    k_fourier = {k: v for k, v in k_fourier.items() if v}
    return EffectivePair(d_terms=d_terms, k_fourier=k_fourier, fundamental=nu, order=order)


def effective_propagator_error(h_fourier, fundamental, order, chain_length, duration=None, tol=1e-12):
    """Norm distance between the exact and kick-dressed effective propagator.

    Integrates the time-ordered propagator over `duration` (default: one
    period of the fundamental) to tolerance `tol` and compares against
    ``exp(-iK(t)) exp(-iD(t-s)) exp(iK(s))`` from :func:`van_vleck`, on the
    sites of the terms of `h_fourier`. Chains of more than
    :data:`~floquet_ness.exact.DEFAULT_DENSE_DIM` states are refused.
    """
    from .exact import DEFAULT_DENSE_DIM, _propagate  # imported here: building a model never integrates

    (site_dim,) = {t.site_dim for terms in h_fourier.values() for t in terms}
    dim = site_dim**chain_length
    if dim > DEFAULT_DENSE_DIM:
        raise ValueError("window too large for dense exponentiation")
    nu = float(fundamental)
    duration = 2 * np.pi / nu if duration is None else float(duration)
    dense = {k: sum_local_terms(terms, chain_length) for k, terms in h_fourier.items() if terms}

    def rhs(t, y):
        u = y.reshape(dim, dim)
        return (-1j * fourier_sum(dense, nu, t) @ u).reshape(-1)

    exact = _propagate(rhs, (0.0, duration), np.eye(dim, dtype=complex).reshape(-1), tol)
    exact = exact[:, -1].reshape(dim, dim)
    pair = van_vleck(h_fourier, nu, order)
    d_mat = pair.dense_d(chain_length)
    k_start = pair.k_at_time(0.0, chain_length)
    k_end = pair.k_at_time(duration, chain_length)
    approx = expm(-1j * k_end) @ expm(-1j * d_mat * duration) @ expm(1j * k_start)
    return float(np.linalg.norm(exact - approx, ord=2))


# ---------------------------------------------------------------------------
# Pulse-driven chain in the rotating frame, and its microscopic jumps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DTCParams:
    """Pulse-driven Ising chain coupled sitewise to Ohmic baths.

    `omega` is the lab pulse frequency; absorbing the pi-pulses doubles the
    period, so all rotating-frame harmonics run in ``omega / 2``. The drive
    envelope is ``(1 - cos omega t)`` with alternating sign between half
    periods. `r` is the spatial truncation radius of the constructed jump
    operators (windows of ``2 r + 1`` sites).
    """

    j: float = 1.0
    h: float = 0.5
    g: float = 0.05
    gamma: float = 0.2
    omega: float = 10.0
    bath: OhmicBath = field(default_factory=lambda: OhmicBath(beta=2.0, omega_c=2.0))
    r: int = 1
    chain_length: int = 5
    high_freq_order: int = 2
    envelope_k_max: int = 7

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("pulse frequency must be positive")
        if self.r not in (1, 2):
            raise ValueError("supported truncation radii are 1 and 2")
        if self.high_freq_order not in (0, 1, 2):
            raise ValueError("high-frequency order must be 0, 1 or 2")

    @property
    def fundamental(self):
        """Rotating-frame fundamental frequency."""
        return self.omega / 2.0


def drive_envelope_fourier(k):
    """Harmonics of the sign-alternating ``(1 - cos omega t)`` envelope.

    In the rotating frame the envelope has period ``4 pi / omega`` and only
    odd harmonics of ``omega / 2``:  ``F^k = 8 i / (pi k (4 - k^2))`` for odd
    k, zero otherwise.
    """
    if k % 2 == 0:
        return 0.0 + 0.0j
    return 8.0j / (np.pi * k * (4.0 - k * k))


def build_dtc_rotating_frame(p: DTCParams):
    """Rotating-frame Hamiltonian harmonics ``{k: local terms}``.

    The static part is the transverse-field Ising chain; the longitudinal
    field rides on the odd envelope harmonics, so the half-period spin-flip
    symmetry holds exactly for any harmonic cutoff.
    """
    h0 = [
        LocalOperator(i, -p.j * np.kron(PAULI["Z"], PAULI["Z"]))
        for i in range(p.chain_length - 1)
    ]
    h0 += [LocalOperator(i, p.g * PAULI["X"]) for i in range(p.chain_length)]
    comps = {0: h0}
    for k in range(-p.envelope_k_max, p.envelope_k_max + 1):
        coeff = p.h * drive_envelope_fourier(k)
        if coeff == 0:
            continue
        comps[k] = [LocalOperator(i, coeff * PAULI["Z"]) for i in range(p.chain_length)]
    return comps


def _restrict_terms(comps, start, stop):
    """Keep the terms fully inside ``[start, stop)`` and rebase to the window."""
    out = {}
    for k, terms in comps.items():
        kept = [LocalOperator(t.start - start, t.matrix, t.site_dim) for t in terms if t.start >= start and t.stop <= stop]
        if kept:
            out[k] = kept
    return out


def _conjugation_series(generator_fourier, target_fourier, order, sign):
    """Fourier components of ``exp(sign i K) O exp(-sign i K)`` to BCH order.

    `generator_fourier` holds the harmonics of K as dense matrices;
    `target_fourier` those of O. Order n keeps n nested commutators.
    """
    out = {k: m.copy() for k, m in target_fourier.items()}
    nested = target_fourier
    for n in range(1, order + 1):
        term = {}
        for k1, kmat in generator_fourier.items():
            for k2, omat in nested.items():
                c = (1j * sign) / n * (kmat @ omat - omat @ kmat)
                term[k1 + k2] = term.get(k1 + k2, 0) + c
        for k, m in term.items():
            out[k] = out.get(k, 0) + m
        nested = term
    return {k: np.asarray(m) for k, m in out.items() if np.max(np.abs(m)) > 1e-15}


def build_dissipative_jump_ops(p: DTCParams, k_max=None, tail_tol=0.05):
    """Windowed time-periodic jump operators from the bath spectral function.

    Per site: the rotating-frame Hamiltonian restricted to the window
    ``[i-r, i+r]`` feeds the high-frequency expansion; the window coupling
    ``X_i`` is dressed into the kicked frame, weighted with the bath
    amplitude ``sqrt(J)`` at the exchanged energy ``eps_n - eps_m - k nu``,
    and dressed back. Harmonics beyond `k_max` are dropped; their relative
    weight is reported and must stay below `tail_tol`.

    Returns ``(jumps, info)`` with ``jumps[site][k]`` a LocalOperator on the
    clipped window and ``info`` carrying tail weights, the kicked-frame
    spectral operators (before dressing back) and the window spectra.
    """
    comps = build_dtc_rotating_frame(p)
    nu = p.fundamental
    if k_max is None:
        k_max = 2 * p.envelope_k_max
    jumps = {}
    info = {"tail_weight": {}, "k_max": k_max, "spectral": {}, "energies": {}}
    for i in range(p.chain_length):
        start = max(0, i - p.r)
        stop = min(p.chain_length, i + p.r + 1)
        width = stop - start
        window = _restrict_terms(comps, start, stop)
        pair = van_vleck(window, nu, p.high_freq_order)
        d_mat = pair.dense_d(width)
        k_dense = pair.dense_k(width)
        energies, basis = np.linalg.eigh(d_mat)
        coupling = LocalOperator(i - start, PAULI["X"]).on_window(0, width).matrix
        dressed = _conjugation_series(k_dense, {0: coupling}, p.high_freq_order, sign=+1)
        spectral = {}
        spectral_eig = {}
        for k, y_mat in dressed.items():
            y_eig = basis.conj().T @ y_mat @ basis
            # weight element (m, n) by the amplitude at eps_n - eps_m - k nu
            delta = energies[None, :] - energies[:, None] - k * nu
            weighted = p.bath.jump_amplitude(delta) * y_eig
            spectral_eig[k] = np.sqrt(p.gamma) * weighted
            spectral[k] = basis @ weighted @ basis.conj().T
        # eigenbasis weights: element (m, n) drives |n> -> |m>
        info["spectral"][i] = spectral_eig
        info["energies"][i] = energies
        full = _conjugation_series(k_dense, spectral, p.high_freq_order, sign=-1)
        norms = {k: np.linalg.norm(m) for k, m in full.items()}
        total = np.sqrt(sum(v**2 for v in norms.values()))
        tail = np.sqrt(sum(v**2 for k, v in norms.items() if abs(k) > k_max))
        tail_weight = tail / total if total > 0 else 0.0
        info["tail_weight"][i] = float(tail_weight)
        if tail_weight > tail_tol:
            raise RuntimeError(
                f"jump Fourier tail at site {i} ({tail_weight:.3f}) exceeds {tail_tol}"
            )
        jumps[i] = {
            k: LocalOperator(start, np.sqrt(p.gamma) * m)
            for k, m in full.items()
            if abs(k) <= k_max and np.linalg.norm(m) > 1e-12 * max(total, 1e-30)
        }
    return jumps, info


def build_dtc_model(p: DTCParams, n_c: int, jump_k_max=None, tail_tol=0.05) -> ModelSpec:
    """ModelSpec of the dissipative pulse-driven chain in the rotating frame.

    The jump harmonic cutoff defaults to ``2 n_c + 2``; the model fundamental
    is ``omega / 2``.
    """
    if jump_k_max is None:
        jump_k_max = 2 * n_c + 2
    jumps, info = build_dissipative_jump_ops(p, k_max=jump_k_max, tail_tol=tail_tol)
    ham = build_dtc_rotating_frame(p)
    model = ModelSpec(
        chain_length=p.chain_length,
        omega=p.fundamental,
        hamiltonian_fourier=ham,
        jump_fourier=jumps,
    ).validate()
    logger.info(
        "pulse-driven model: L=%d, r=%d, jump tail weights %s",
        p.chain_length,
        p.r,
        {k: f"{v:.2e}" for k, v in info["tail_weight"].items()},
    )
    return model


def truncation_diagnostic(p: DTCParams, r_small, r_large, site=None, n_times=32, k_max=None):
    """Operator distance between two truncation radii of one jump operator.

    Builds the jump operator of `site` (default: chain center) at both radii,
    embeds the smaller window into the larger, resums both over one rotating
    frame period at sampled times and returns the maximal spectral-norm
    difference.
    """
    if r_small > r_large:
        raise ValueError("r_small must not exceed r_large")
    site = p.chain_length // 2 if site is None else site
    ops = {}
    for r in {r_small, r_large}:
        jumps, _ = build_dissipative_jump_ops(replace(p, r=r), k_max=k_max)
        ops[r] = jumps[site]
    small, large = ops[r_small], ops[r_large]
    ref = next(iter(large.values()))
    start, stop = ref.start, ref.stop
    period = 2 * np.pi / p.fundamental
    times = period * np.arange(n_times) / n_times
    large = {k: op.matrix for k, op in large.items()}
    small = {k: op.on_window(start, stop).matrix for k, op in small.items()}
    worst = 0.0
    for t in times:
        diff = fourier_sum(large, p.fundamental, t) - fourier_sum(small, p.fundamental, t)
        worst = max(worst, float(np.linalg.norm(diff, ord=2)))
    return worst


def tilted_product_state(chain_length, angle=np.pi / 8):
    """Product state ``prod_i (sin(a)|up> + cos(a)|down>)`` as site matrices."""
    ket = np.array([np.sin(angle), np.cos(angle)], dtype=complex)
    rho = np.outer(ket, ket.conj())
    return [rho.copy() for _ in range(chain_length)]
