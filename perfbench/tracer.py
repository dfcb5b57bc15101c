"""Span tracer for the benchmark's traced run.

The traced run wraps the public tsfrac functions at the module attributes
the scheme resolves at call time (nothing inside tsfrac changes).  Each
wrapped call records one span: name, start, end and the span that was open
when it began, plus count attributes read from its arguments or result.
Spans stay in flat in-memory arrays until the run ends.

A span's self time is its duration minus the part of it that its child
spans cover; a layer's self time is the sum over its spans.  With one thread
children nest inside their parent without overlap, which ``verify`` checks.
``self_time_issues`` checks that the self-time metrics of a solve add up to
its root span, so no traced span is left out of them.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._ids: dict[str, int] = {}
        self._open = [-1]

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(counts, args, result)``
        may add count attributes after the call returns."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        clock, open_ = self.clock, self._open

        def traced(*args, **kwargs):
            i = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(open_[-1])
            self.end.append(0.0)
            open_.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                open_.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def arrays(self):
        """(name_id, parent, start, end, self_time) as numpy arrays."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return name_id, parent, start, end, dur - covered

    def verify(self) -> list[str]:
        """Structural checks; returns the failures (empty when consistent)."""
        name_id, parent, start, end, self_t = self.arrays()
        roots = np.flatnonzero(parent < 0)
        if roots.size != 1:
            return [f"expected one root span, found {roots.size}"]
        issues = []
        child = np.flatnonzero(parent >= 0)
        p = parent[child]
        if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
            issues.append("a child span leaves its parent's interval")
        order = child[np.lexsort((start[child], parent[child]))]
        same = parent[order[1:]] == parent[order[:-1]]
        if np.any(start[order[1:]][same] < end[order[:-1]][same]):
            issues.append("sibling spans overlap")
        if np.any(self_t < 0.0):
            issues.append("a span has negative self time")
        return issues

    def layers(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        name_id, _, start, end, self_t = self.arrays()
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=end - start, minlength=k)
        own = np.bincount(name_id, weights=self_t, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        name_id, parent, start, end, self_t = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end, self_time=self_t)


def _count_krylov(counts, args, result):
    report = result[1]
    counts["krylov.solves"] = counts.get("krylov.solves", 0) + 1
    counts["krylov.iterations"] = counts.get("krylov.iterations", 0) + report.iterations
    counts["krylov.max_iterations"] = max(counts.get("krylov.max_iterations", 0),
                                          report.iterations)
    counts["krylov.unconverged"] = (counts.get("krylov.unconverged", 0)
                                    + (not report.converged))


def _count_push(counts, args, result):
    # computed lower bound: the accumulator is read and written once per push
    counts["soe.history_push.bytes"] = (counts.get("soe.history_push.bytes", 0)
                                        + 2 * args[0].W.nbytes)


def _count_soe(counts, args, result):
    counts["soe.n_exp"] = result.n_exp


# (module, attribute, span name, count hook): the names the scheme and the
# Toeplitz layer look up at call time
PATCH_POINTS = (
    ("tsfrac.scheme", "solve_bicgstab", "krylov.iterative", _count_krylov),
    ("tsfrac.scheme", "solve_cg", "krylov.iterative", _count_krylov),
    ("tsfrac.scheme", "solve_dense", "krylov.dense", None),
    ("tsfrac.scheme", "build_preconditioner", "toeplitz.precond_build", None),
    ("tsfrac.scheme", "build_toeplitz", "toeplitz.build", None),
    ("tsfrac.scheme", "build_soe", "soe.build", _count_soe),
    ("tsfrac.scheme", "history_push", "soe.history_push", _count_push),
    ("tsfrac.scheme", "l1_weights", "mesh.l1_weights", None),
    ("tsfrac.scheme", "build_mesh", "mesh.build", None),
    ("tsfrac.scheme", "build_ifl", "ifl.build", None),
    ("tsfrac.toeplitz", "toeplitz_matvec", "toeplitz.matvec", None),
    ("tsfrac.toeplitz", "precond_solve", "toeplitz.precond_solve", None),
    ("tsfrac.fourier", "fft", "fourier.fft", None),
    ("tsfrac.fourier", "ifft", "fourier.fft", None),
)


@contextmanager
def instrument(tracer: Tracer):
    """Route the patch points through ``tracer`` until the block exits."""
    saved = []
    try:
        for module_name, attr, span, count in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def traced_spec(tracer: Tracer, spec):
    """The problem with its source and diffusivity callables traced."""
    return dataclasses.replace(
        spec,
        source=tracer.wrap("problems.source", spec.source),
        kappa=tracer.wrap("problems.kappa", spec.kappa),
    )


# counts that must repeat exactly between traced solves of one input
DETERMINISTIC = (
    "scheme.levels", "scheme.history_ops", "scheme.history_mem_values",
    "problems.source.calls", "mesh.l1_weights.calls", "soe.n_exp",
    "soe.history_push.calls", "soe.history_push.bytes",
    "toeplitz.matvec.calls", "toeplitz.precond_build.calls",
    "toeplitz.precond_solve.calls", "fourier.fft.calls",
    "krylov.solves", "krylov.iterations", "krylov.max_iterations",
    "krylov.unconverged", "krylov.dense.calls",
)


def layer_metrics(tracer: Tracer, report) -> dict[str, float]:
    """Per-layer metrics of one traced solve whose root span is "scheme"."""
    spans = tracer.layers()

    def get(name):
        return spans.get(name, (0, 0.0, 0.0))

    def per_call_us(name):
        calls, incl, _ = get(name)
        return 1e6 * incl / calls if calls else 0.0

    c = tracer.counts
    solves = c.get("krylov.solves", 0)
    return {
        "scheme.self_s": get("scheme")[2],
        "scheme.levels": len(report.history_ops),
        "scheme.history_ops": int(np.sum(report.history_ops)),
        "scheme.history_mem_values": report.history_memory_values,
        "problems.source.calls": get("problems.source")[0],
        "problems.source.s": get("problems.source")[2],
        "problems.kappa.s": get("problems.kappa")[2],
        "mesh.l1_weights.calls": get("mesh.l1_weights")[0],
        "mesh.l1_weights.s": get("mesh.l1_weights")[2],
        "soe.n_exp": c.get("soe.n_exp", 0),
        "soe.build.s": get("soe.build")[2],
        "soe.history_push.calls": get("soe.history_push")[0],
        "soe.history_push.s": get("soe.history_push")[2],
        "soe.history_push.bytes": c.get("soe.history_push.bytes", 0),
        "ifl.build.s": get("ifl.build")[2],
        "mesh.build.s": get("mesh.build")[2],
        "toeplitz.build.s": get("toeplitz.build")[2],
        "toeplitz.matvec.calls": get("toeplitz.matvec")[0],
        "toeplitz.matvec.us": per_call_us("toeplitz.matvec"),
        "toeplitz.matvec.self_s": get("toeplitz.matvec")[2],
        "toeplitz.precond_build.calls": get("toeplitz.precond_build")[0],
        "toeplitz.precond_build.s": get("toeplitz.precond_build")[2],
        "toeplitz.precond_solve.calls": get("toeplitz.precond_solve")[0],
        "toeplitz.precond_solve.us": per_call_us("toeplitz.precond_solve"),
        "toeplitz.precond_solve.self_s": get("toeplitz.precond_solve")[2],
        "fourier.fft.calls": get("fourier.fft")[0],
        "fourier.fft.s": get("fourier.fft")[2],
        "krylov.solves": solves,
        "krylov.iterations": c.get("krylov.iterations", 0),
        "krylov.avg_iterations": c.get("krylov.iterations", 0) / solves if solves else 0.0,
        "krylov.max_iterations": c.get("krylov.max_iterations", 0),
        "krylov.unconverged": c.get("krylov.unconverged", 0),
        "krylov.self_s": get("krylov.iterative")[2],
        "krylov.dense.calls": get("krylov.dense")[0],
        "krylov.dense.s": get("krylov.dense")[2],
    }


def self_time_issues(tracer: Tracer, metrics: dict[str, float]) -> list[str]:
    """The self-time metrics (names ending in .s or .self_s) must add up to
    the root span; returns the failure, if any."""
    _, parent, start, end, _ = tracer.arrays()
    root = np.flatnonzero(parent < 0)[0]
    root_s = float(end[root] - start[root])
    reported = sum(v for k, v in metrics.items() if k.endswith((".s", ".self_s")))
    if abs(reported - root_s) > 1e-9 * root_s:
        return [f"the self-time metrics add up to {reported!r} s, "
                f"the root span lasted {root_s!r} s"]
    return []
