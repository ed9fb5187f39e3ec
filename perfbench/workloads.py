"""Benchmark workloads, their dense oracles and the per-operation check.

Every workload is a driven chain plus the sweep configuration of the solver
tests. One operation is a call into the public solvers: ``solve_ness``, or
on ``decay`` ``solve_ness`` followed by ``solve_first_decay_mode``. The
solvers are looked up through their modules at call time, so the tracer's
wrappers take effect. Oracles come from ``floquet_ness.liouvillian`` and are
computed once per run, outside the timed region.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from floquet_ness import liouvillian, models, solver

# Tolerances of the solver tests: blocks and residual absolute, decay
# eigenvalue relative.
BLOCK_TOL = 1e-7
RESIDUAL_TOL = 1e-7
DECAY_REL_TOL = 1e-3
# Errors below this are reported as this, so digits stay finite.
ERROR_FLOOR = 1e-18


def ising_l3():
    return models.build_driven_ising(models.IsingBenchmarkParams(chain_length=3, omega=5.0))


def dtc_l3():
    return models.build_dtc_model(models.DTCParams(chain_length=3), n_c=1)


@dataclass(frozen=True)
class Workload:
    name: str
    build_model: Callable
    n_c: int
    chi: int
    decay: bool = False
    config: dict = field(default_factory=dict)

    def sweep_config(self, seed):
        return solver.SweepConfig(
            warmup=solver.make_warmup_schedule(
                self.n_c, self.chi, warm_sweeps=2, final_sweeps=6
            ),
            eig_tol=1e-10,
            noise_amplitude=1e-5,
            seed=seed,
            **self.config,
        )


# Why each workload is in the set, and at this size, is written down in
# perfbench/README.md. An operation takes 1 to 3 s, so a run times several.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ness-dense", ising_l3, n_c=1, chi=8),
        Workload("ness-krylov", ising_l3, n_c=0, chi=8, config={"dense_local_cutoff": 40}),
        Workload("decay", ising_l3, n_c=0, chi=8, decay=True),
        Workload("dtc-ness", dtc_l3, n_c=1, chi=8),
    )
}


def quiet_cutoff_warnings():
    """Silence the expected 'harmonics exceed the cutoff' warning of DTC models."""
    warnings.filterwarnings("ignore", message="model harmonics", category=UserWarning)


@dataclass
class Oracle:
    blocks: dict
    decay_eigenvalue: complex = None


def compute_oracle(workload: Workload, model) -> Oracle:
    blocks = liouvillian.extended_null_vector(model, workload.n_c)
    lam = None
    if workload.decay:
        eigs = np.linalg.eigvals(liouvillian.dense_extended_lindbladian(model, workload.n_c))
        folded = eigs - 1j * np.round(eigs.imag / model.omega) * model.omega
        nonzero = folded[folded.real < -1e-8]
        lam = complex(nonzero[np.argmax(nonzero.real)])
    return Oracle(blocks, lam)


@dataclass
class Outcome:
    """What one operation returned, before it is checked."""

    state: object
    reports: list
    decay_eigenvalue: complex = None

    @property
    def sweeps(self):
        return sum(len(r.sweep_residuals) for r in self.reports)


def run_operation(workload: Workload, model, seed) -> Outcome:
    cfg = workload.sweep_config(seed)
    state, report = solver.solve_ness(model, cfg)
    if not workload.decay:
        return Outcome(state, [report])
    mode = solver.solve_first_decay_mode(model, state, cfg)
    return Outcome(state, [report, mode.report], complex(mode.eigenvalue))


def digits(error):
    return -math.log10(max(float(error), ERROR_FLOOR))


@dataclass
class Check:
    ok: bool
    ness_err: float
    residual: float
    decay_err: float = None
    reason: str = ""


def check_outcome(outcome: Outcome, oracle: Oracle) -> Check:
    """Compare one operation against the oracle at the solver tests' tolerances."""
    got = outcome.state.to_dense_blocks()
    ness_err = max(float(np.max(np.abs(got[n] - oracle.blocks[n]))) for n in oracle.blocks)
    residual = float(outcome.reports[0].fixed_point_residual)
    problems = []
    if not all(r.converged for r in outcome.reports):
        problems.append("converged=False")
    if not ness_err < BLOCK_TOL:
        problems.append(f"block error {ness_err:.2e}")
    if not residual < RESIDUAL_TOL:
        problems.append(f"fixed-point residual {residual:.2e}")
    decay_err = None
    if oracle.decay_eigenvalue is not None:
        lam, exact = outcome.decay_eigenvalue, oracle.decay_eigenvalue
        decay_err = min(abs(lam - exact), abs(np.conj(lam) - exact)) / abs(exact)
        if not decay_err < DECAY_REL_TOL:
            problems.append(f"decay eigenvalue {lam:.6g} vs {exact:.6g}")
    return Check(not problems, ness_err, residual, decay_err, "; ".join(problems))

