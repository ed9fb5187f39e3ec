"""Dense exact references for small chains.

Everything here scales exponentially with the chain length and exists to
validate the tensor-network route: direct master-equation integration, the
one-period propagator and its modes, a diagonal (secular) rate-equation
solver, and Gibbs reference states.

Chain-long vectorized quantities use the site-major Choi layout of
:mod:`.superops`; density matrices cross that boundary via
``choi_site_vector`` / ``choi_site_matrix``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .liouvillian import ModelSpec, dense_fourier_superoperator
from .superops import choi_site_matrix, choi_site_vector

logger = logging.getLogger(__name__)

__all__ = [
    "DensePropagatorModes",
    "RateEquationResult",
    "evolve_master_equation",
    "floquet_propagator_modes",
    "solve_fre",
    "gibbs_state",
    "gibbs_entropy",
    "beta_from_entropy",
    "entropy_of_density",
]

DEFAULT_DENSE_DIM = 2**12
MULTIPLIER_DEGENERACY_TOL = 1e-8  # one-period multipliers this close to the steady one are degenerate
BETA_BRACKET = (1e-6, 200.0)  # inverse temperatures searched by beta_from_entropy


class _DenseGenerator:
    """Callable ``t -> action`` of the time-dependent generator."""

    def __init__(self, model: ModelSpec):
        self.omega = model.omega
        self.parts = {q: dense_fourier_superoperator(model, q) for q in model.transfers()}

    @property
    def dim(self):
        return next(iter(self.parts.values())).shape[0]

    def apply(self, t, vec):
        out = np.zeros_like(vec)
        for q, mat in self.parts.items():
            phase = np.exp(1j * q * self.omega * t) if q else 1.0
            out += phase * (mat @ vec)
        return out

    def matrix(self, t):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for q, mat in self.parts.items():
            out += np.exp(1j * q * self.omega * t) * mat
        return out


def evolve_master_equation(model: ModelSpec, rho0, t_grid, tol=1e-10, dense_dim=DEFAULT_DENSE_DIM):
    """Integrate ``d rho / dt = L(t)[rho]`` and return ``rho(t)`` on `t_grid`.

    Uses an adaptive 8th-order Runge-Kutta scheme; the trace is *not*
    renormalized along the way, so trace drift is a genuine integration
    diagnostic. Raises if drift or Hermiticity violation exceed ``100 * tol``.
    """
    model.validate()
    dl = model.site_dim**model.chain_length
    if dl * dl > dense_dim:
        raise ValueError(f"dense dimension {dl * dl} exceeds limit {dense_dim}")
    rho0 = np.asarray(rho0, dtype=complex)
    gen = _DenseGenerator(model)
    t_grid = np.asarray(t_grid, dtype=float)
    y0 = choi_site_vector(rho0, model.chain_length, model.site_dim)
    sol = solve_ivp(
        gen.apply,
        (t_grid[0], t_grid[-1]),
        y0,
        method="DOP853",
        t_eval=t_grid,
        rtol=tol,
        atol=tol * 1e-2,
    )
    if not sol.success:
        raise RuntimeError(f"master-equation integration failed: {sol.message}")
    out = []
    for k in range(sol.y.shape[1]):
        rho = choi_site_matrix(sol.y[:, k], model.chain_length, model.site_dim)
        out.append(rho)
    out = np.array(out)
    trace_drift = max(abs(np.trace(r) - np.trace(rho0)) for r in out)
    herm_drift = max(np.max(np.abs(r - r.conj().T)) for r in out)
    herm0 = np.max(np.abs(rho0 - rho0.conj().T))
    if trace_drift > 100 * tol or herm_drift > 100 * tol + herm0 * 2:
        raise RuntimeError(
            f"integration drift beyond tolerance: trace {trace_drift:.2e}, "
            f"hermiticity {herm_drift:.2e}"
        )
    return out


@dataclass
class DensePropagatorModes:
    """One-period propagator spectrum and the steady mode's harmonics.

    `multipliers` are the propagator eigenvalues; `rates` are
    ``log(multiplier) / period`` folded into ``Im in (-omega/2, omega/2]``,
    so a mode evolves as ``exp(rate * t)`` times a periodic part.
    `steady_mode_fourier` maps the harmonic index to the dense matrix of the
    trace-normalized steady solution.
    """

    multipliers: np.ndarray
    rates: np.ndarray
    steady_mode_fourier: dict
    period: float
    degenerate_steady: bool = False
    extra_steady_modes: list = field(default_factory=list)


def floquet_propagator_modes(
    model: ModelSpec,
    n_c: int,
    t0: float = 0.0,
    n_time_samples: int = 128,
    tol: float = 1e-12,
    dense_dim: int = DEFAULT_DENSE_DIM,
):
    """Diagnose the one-period map and Fourier-resolve its steady mode.

    The propagator over ``[t0, t0 + 2 pi / omega]`` is built by integrating
    the full superoperator basis, then diagonalized; the eigenvector with
    multiplier closest to 1 is evolved through the period, sampled uniformly
    and discrete-Fourier-transformed into harmonics ``|n| <= n_c``. Other
    multipliers within MULTIPLIER_DEGENERACY_TOL of it mark the steady mode
    degenerate.
    """
    model.validate()
    dl = model.site_dim**model.chain_length
    d2l = dl * dl
    if d2l > dense_dim:
        raise ValueError(f"dense dimension {d2l} exceeds limit {dense_dim}")
    gen = _DenseGenerator(model)
    period = 2 * np.pi / model.omega

    def rhs(t, y):
        mat = y.reshape(d2l, d2l)
        return (gen.matrix(t) @ mat).reshape(-1)

    y0 = np.eye(d2l, dtype=complex).reshape(-1)
    sol = solve_ivp(
        rhs, (t0, t0 + period), y0, method="DOP853", rtol=tol, atol=tol * 1e-2
    )
    if not sol.success:
        raise RuntimeError(f"propagator integration failed: {sol.message}")
    propagator = sol.y[:, -1].reshape(d2l, d2l)
    multipliers, vecs = np.linalg.eig(propagator)
    # principal log, folded so Im(rate) lies in (-omega/2, omega/2]
    rates = np.log(multipliers) / period
    fold = np.round(rates.imag / model.omega)
    rates = rates - 1j * fold * model.omega
    order = np.argsort(-rates.real)
    multipliers, rates, vecs = multipliers[order], rates[order], vecs[:, order]

    steady_idx = int(np.argmin(np.abs(multipliers - 1.0)))
    near_unit = np.where(np.abs(multipliers - multipliers[steady_idx]) < MULTIPLIER_DEGENERACY_TOL)[0]
    degenerate = near_unit.size > 1
    if degenerate:
        logger.warning("one-period map has %d near-unit multipliers", near_unit.size)
    steady = vecs[:, steady_idx]
    rho0 = choi_site_matrix(steady, model.chain_length, model.site_dim)
    rho0 = rho0 / np.trace(rho0)

    times = t0 + period * np.arange(n_time_samples) / n_time_samples
    samples = evolve_master_equation(model, rho0, times, tol=max(tol, 1e-12), dense_dim=dense_dim)
    harmonics = {}
    for n in range(-n_c, n_c + 1):
        phases = np.exp(-1j * n * model.omega * times)
        harmonics[n] = np.tensordot(phases, samples, axes=(0, 0)) / n_time_samples
    extra = [
        choi_site_matrix(vecs[:, i], model.chain_length, model.site_dim)
        for i in near_unit
        if i != steady_idx
    ]
    return DensePropagatorModes(
        multipliers=multipliers,
        rates=rates,
        steady_mode_fourier=harmonics,
        period=period,
        degenerate_steady=degenerate,
        extra_steady_modes=extra,
    )


@dataclass
class RateEquationResult:
    """Stationary populations of the secular rate equation."""

    populations: np.ndarray
    rates: np.ndarray
    energies: np.ndarray
    beta_eff: float
    entropy: float


def solve_fre(d_matrix, y_fourier, bath, fundamental):
    """Stationary populations of the Fermi-golden-rule rate equation.

    `d_matrix` is the static effective Hamiltonian; `y_fourier` maps the
    harmonic ``k`` to the list of per-site coupling operators ``Y_i^k`` in
    the same basis. The transition rate from eigenstate ``p`` to ``q``
    exchanges ``k * fundamental`` drive quanta and weighs the bath spectral
    density at the energy the bath absorbs:

        R[p -> q] = sum_{i,k} J(eps_p - eps_q - k * fundamental)
                               |<q| Y_i^k |p>|^2 .

    Detailed balance of the Ohmic spectral density then makes the static
    (``fundamental = 0``-like) stationary state exactly Gibbs at the bath
    temperature. Populations solve the balance equation as the kernel of the
    rate matrix, normalized to 1; `beta_eff` matches the population entropy
    against the Gibbs entropy curve of `d_matrix` (:func:`beta_from_entropy`).
    """
    d_matrix = np.asarray(d_matrix, dtype=complex)
    if np.max(np.abs(d_matrix - d_matrix.conj().T)) > 1e-9:
        raise ValueError("effective Hamiltonian must be Hermitian")
    energies, basis = np.linalg.eigh(d_matrix)
    dim = energies.size
    rates = np.zeros((dim, dim))
    for k, ops in y_fourier.items():
        for op in ops:
            y_eig = basis.conj().T @ np.asarray(op, dtype=complex) @ basis
            # rates[p, q]: transition p -> q
            delta = energies[:, None] - energies[None, :] - k * fundamental
            rates += bath.spectral_density(delta) * np.abs(y_eig.T) ** 2
    np.fill_diagonal(rates, 0.0)
    from scipy.sparse.csgraph import connected_components

    graph = (rates + rates.T) > 1e-14 * max(np.max(rates), 1e-300)
    n_comp, _ = connected_components(graph, directed=False)
    if n_comp > 1:
        raise RuntimeError(
            f"rate graph splits into {n_comp} disconnected blocks; "
            "stationary state is not unique"
        )
    balance = rates.T.copy()
    np.fill_diagonal(balance, -rates.sum(axis=1))
    # stationary distribution: kernel of the balance matrix
    w, v = np.linalg.eig(balance)
    idx = int(np.argmin(np.abs(w)))
    if abs(w[idx]) > 1e-8 * max(1.0, np.max(np.abs(w))):
        raise RuntimeError("rate matrix has no numerical kernel (disconnected blocks?)")
    pops = np.real(v[:, idx])
    if pops.sum() < 0:
        pops = -pops
    if np.min(pops) < -1e-8 * max(pops.max(), 1e-30):
        raise RuntimeError("stationary populations are not non-negative")
    pops = np.clip(pops, 0.0, None)
    pops /= pops.sum()
    residual = np.max(np.abs(balance @ pops))
    if residual > 1e-10 * max(1.0, np.max(np.abs(rates))):
        raise RuntimeError(f"stationarity residual too large: {residual:.2e}")
    entropy = float(-np.sum(pops[pops > 0] * np.log(pops[pops > 0])))
    beta_eff = beta_from_entropy(entropy, energies)
    return RateEquationResult(
        populations=pops,
        rates=rates,
        energies=energies,
        beta_eff=beta_eff,
        entropy=entropy,
    )


def gibbs_state(d_matrix, beta):
    """Normalized Gibbs state of a Hermitian matrix with entropy and energy."""
    d_matrix = np.asarray(d_matrix, dtype=complex)
    energies, basis = np.linalg.eigh(d_matrix)
    shifted = energies - energies.min()
    weights = np.exp(-beta * shifted)
    z = weights.sum()
    probs = weights / z
    rho = (basis * probs[None, :]) @ basis.conj().T
    entropy = float(-np.sum(probs[probs > 0] * np.log(probs[probs > 0])))
    energy = float(np.real(np.sum(probs * energies)))
    return rho, entropy, energy


def gibbs_entropy(energies, beta):
    shifted = np.asarray(energies) - np.min(energies)
    weights = np.exp(-beta * shifted)
    probs = weights / weights.sum()
    mask = probs > 0
    return float(-np.sum(probs[mask] * np.log(probs[mask])))


def entropy_of_density(rho, clip_report=None):
    """Von Neumann entropy; negative eigenvalues are clipped to zero.

    If `clip_report` is a dict, the clipped weight is stored under
    ``"clipped_weight"``.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = 0.5 * (rho + rho.conj().T)
    vals = np.linalg.eigvalsh(herm)
    clipped = float(-vals[vals < 0].sum())
    if clip_report is not None:
        clip_report["clipped_weight"] = clipped
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total <= 0:
        raise ValueError("density matrix has no positive weight")
    vals = vals / total
    mask = vals > 0
    return float(-np.sum(vals[mask] * np.log(vals[mask])))


def beta_from_entropy(target_entropy, energies):
    """Invert the Gibbs entropy curve by bisection over BETA_BRACKET.

    The curve decreases monotonically in beta from ``log(dim)`` at beta = 0.
    Targets at or above the maximum return 0; other targets outside the
    entropy range of the bracket return the nearer endpoint.
    """
    energies = np.asarray(energies, dtype=float)
    lo, hi = BETA_BRACKET
    s_max = np.log(energies.size)
    if target_entropy >= s_max - 1e-12:
        return 0.0
    if target_entropy <= gibbs_entropy(energies, hi):
        return float(hi)
    a, b = lo, hi
    if gibbs_entropy(energies, a) < target_entropy:
        return float(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if gibbs_entropy(energies, mid) > target_entropy:
            a = mid
        else:
            b = mid
        if b - a < 1e-12 * max(1.0, b):
            break
    return float(0.5 * (a + b))
