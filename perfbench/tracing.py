"""Outside-in span tracing of the solver's layer boundaries.

The tracer replaces public functions and methods of ``floquet_ness`` (and the
two library routines the solver calls, ``numpy.linalg.eig`` and
``scipy.sparse.linalg.eigs``) with thin wrappers while it is active, and puts
the originals back when it exits. Nothing under ``src/`` is edited. Each call
through a wrapper records one span ``[layer, start, end, parent, info]`` in
memory; ``parent`` is the index of the innermost enclosing span or -1.

A layer's self time is its span durations minus the durations of its direct
child spans. Because the program is single-threaded and every span closes
before its parent, self times of all spans add up to at most the wall time of
the traced region.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYER_UNITS = {
    "solver.dense_matrix_s": "s",
    "solver.dense_matrix_calls": "count",
    "solver.matvec_s": "s",
    "solver.matvec_calls": "count",
    "solver.dense_eig_s": "s",
    "solver.dense_eig_calls": "count",
    "solver.arnoldi_s": "s",
    "solver.arnoldi_calls": "count",
    "solver.arnoldi_noconv": "count",
    "solver.dense_fallback_calls": "count",
    "solver.matvecs_per_arnoldi": "count",
    "solver.arnoldi_ok_ratio": "ratio",
    "solver.local_solves": "count",
    "solver.local_dim_max": "count",
    "solver.local_op_s": "s",
    "solver.env_update_s": "s",
    "solver.env_update_calls": "count",
    "solver.set_site_s": "s",
    "solver.sweeps": "count",
    "tensors.svd_s": "s",
    "tensors.svd_calls": "count",
    "tensors.discarded_weight": "ratio",
    "liouvillian.mpo_build_s": "s",
    "liouvillian.mpo_build_calls": "count",
    "freqspace.diagnostics_s": "s",
    "models.build_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}

# Spans that stand for a whole operation; their self time is what no
# wrapped layer accounts for.
OPERATION_LAYERS = ("solver.solve_ness", "solver.solve_first_decay_mode")

_ARPACK_ERRORS = ("ArpackNoConvergence", "ArpackError")


def boundaries():
    """``(layer, owner, attribute, info)`` for every wrapped callable.

    Functions imported by name into another module are wrapped under each
    name a caller looks them up by. `info` maps ``(args, result)`` to the
    span's extra field, or is None.
    """
    import numpy.linalg
    import scipy.sparse.linalg

    from floquet_ness import freqspace, liouvillian, models, mps, solver, tensors

    def problem_dim(args, result):
        return args[0].dim

    def discarded_weight(args, result):
        return result[3]

    return [
        ("models.build", models, "build_driven_ising", None),
        ("models.build", models, "build_dtc_model", None),
        ("liouvillian.mpo_build", liouvillian, "build_extended_lindbladian", None),
        ("liouvillian.mpo_build", solver, "build_extended_lindbladian", None),
        ("solver.solve_ness", solver, "solve_ness", None),
        ("solver.solve_first_decay_mode", solver, "solve_first_decay_mode", None),
        ("solver.local_solve", solver, "_local_eigensolve", problem_dim),
        ("solver.local_op", solver.SweepEngine, "site_problem", None),
        ("solver.dense_matrix", solver.SiteProblem, "dense_matrix", None),
        ("solver.matvec", solver.SiteProblem, "matvec", None),
        ("solver.dense_eig", numpy.linalg, "eig", None),
        ("solver.arnoldi", scipy.sparse.linalg, "eigs", None),
        ("solver.env_update", solver.SweepEngine, "_update_left", None),
        ("solver.env_update", solver.SweepEngine, "_update_right", None),
        ("solver.set_site", solver.SweepEngine, "set_site", None),
        ("tensors.svd", tensors, "truncated_svd", discarded_weight),
        ("tensors.svd", mps, "truncated_svd", discarded_weight),
        ("tensors.svd", solver, "truncated_svd", discarded_weight),
        ("freqspace.diagnostics", freqspace.FloquetMPO, "apply", None),
        ("freqspace.diagnostics", freqspace, "compress", None),
    ]


class Tracer:
    """Context manager that wraps every boundary and records spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, layer, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span[4] = type(err).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for layer, owner, attr, info in boundaries():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, info))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def span_cost(calls=5000, repeats=5):
    """Seconds a wrapper adds to one call, measured on a function that does nothing."""

    def noop():
        return None

    wrapped = Tracer()._wrap("calibration", noop, None)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            noop()
        plain = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        costs.append((clock() - start - plain) / calls)
    return max(sorted(costs)[repeats // 2], 0.0)


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, n_ops, op_wall_s, sweeps):
    """Per-layer metrics of `n_ops` traced operations, averaged per operation.

    `op_wall_s` is the summed wall time of those operations and `sweeps`
    their summed sweep count (from the solve reports). The tracing overhead
    is the measured cost of one wrapper call times the spans of an operation.
    """
    selfs = self_times(spans)
    busy = defaultdict(float)
    calls = defaultdict(int)
    children = defaultdict(list)
    for idx, (layer, _, _, parent, _) in enumerate(spans):
        busy[layer] += selfs[idx]
        calls[layer] += 1
        if parent >= 0:
            children[parent].append(layer)

    arnoldi = [i for i, s in enumerate(spans) if s[0] == "solver.arnoldi"]
    noconv = sum(spans[i][4] in _ARPACK_ERRORS for i in arnoldi)
    arnoldi_matvecs = sum(children[i].count("solver.matvec") for i in arnoldi)
    local = [i for i, s in enumerate(spans) if s[0] == "solver.local_solve"]
    fallbacks = sum(
        "solver.arnoldi" in children[i] and "solver.dense_matrix" in children[i]
        for i in local
    )
    dims = [spans[i][4] for i in local if isinstance(spans[i][4], int)]
    discarded = sum(
        s[4] for s in spans if s[0] == "tensors.svd" and isinstance(s[4], float)
    )
    covered = sum(
        selfs[i] for i, s in enumerate(spans)
        if s[0] not in OPERATION_LAYERS and s[0] != "models.build"
    )

    per_op = 1.0 / max(n_ops, 1)
    op_spans = len(spans) - calls["models.build"]
    values = {
        "solver.dense_matrix_s": busy["solver.dense_matrix"] * per_op,
        "solver.dense_matrix_calls": calls["solver.dense_matrix"] * per_op,
        "solver.matvec_s": busy["solver.matvec"] * per_op,
        "solver.matvec_calls": calls["solver.matvec"] * per_op,
        "solver.dense_eig_s": busy["solver.dense_eig"] * per_op,
        "solver.dense_eig_calls": calls["solver.dense_eig"] * per_op,
        "solver.arnoldi_s": busy["solver.arnoldi"] * per_op,
        "solver.arnoldi_calls": len(arnoldi) * per_op,
        "solver.arnoldi_noconv": noconv * per_op,
        "solver.dense_fallback_calls": fallbacks * per_op,
        "solver.matvecs_per_arnoldi": arnoldi_matvecs / len(arnoldi) if arnoldi else 0.0,
        "solver.arnoldi_ok_ratio": (len(arnoldi) - noconv) / len(arnoldi) if arnoldi else 0.0,
        "solver.local_solves": len(local) * per_op,
        "solver.local_dim_max": max(dims, default=0),
        "solver.local_op_s": busy["solver.local_op"] * per_op,
        "solver.env_update_s": busy["solver.env_update"] * per_op,
        "solver.env_update_calls": calls["solver.env_update"] * per_op,
        "solver.set_site_s": busy["solver.set_site"] * per_op,
        "solver.sweeps": sweeps * per_op,
        "tensors.svd_s": busy["tensors.svd"] * per_op,
        "tensors.svd_calls": calls["tensors.svd"] * per_op,
        "tensors.discarded_weight": discarded * per_op,
        "liouvillian.mpo_build_s": busy["liouvillian.mpo_build"] * per_op,
        "liouvillian.mpo_build_calls": calls["liouvillian.mpo_build"] * per_op,
        "freqspace.diagnostics_s": busy["freqspace.diagnostics"] * per_op,
        "models.build_s": busy["models.build"],
        "trace.overhead_s": span_cost() * op_spans * per_op,
        "trace.coverage": covered / op_wall_s if op_wall_s > 0 else 0.0,
        "trace.spans": op_spans * per_op,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
