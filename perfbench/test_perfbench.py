"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_tsfrac()
import measure  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, check, instance  # noqa: E402


class FakeClock:
    """A clock that advances by one second per reading, plus any busy time."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now

    def busy(self, seconds):
        self.now += seconds


def test_self_times_of_a_synthetic_nested_call():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)
    leaf = t.wrap("leaf", lambda: clock.busy(5.0))

    def middle_body():
        clock.busy(2.0)
        leaf()
        leaf()

    middle = t.wrap("middle", middle_body)
    root = t.wrap("root", lambda: (clock.busy(3.0), middle()))
    root()

    assert t.verify() == []
    layers = t.layers()
    # every clock reading advances one second: a leaf lasts 5 s busy plus
    # one tick, middle 2 s busy plus the leaves plus four ticks, and so on
    assert layers["leaf"] == (2, 12.0, 12.0)
    assert layers["middle"] == (1, 17.0, 5.0)
    assert layers["root"] == (1, 22.0, 5.0)

    reported = {"root.self_s": 5.0, "middle.s": 5.0, "leaf.s": 12.0,
                "leaf.us": 6e6, "leaf.calls": 2}
    assert tr.self_time_issues(t, reported) == []
    del reported["middle.s"]
    assert tr.self_time_issues(t, reported)


def test_verify_rejects_a_child_outside_its_parent():
    t = tr.Tracer()
    t.wrap("root", lambda: t.wrap("child", lambda: None)())()
    t.end[1] = t.end[0] + 1.0
    assert any("leaves its parent" in issue for issue in t.verify())


def test_instrument_restores_the_patch_points():
    import tsfrac.fourier
    import tsfrac.scheme
    originals = (tsfrac.scheme.history_push, tsfrac.fourier.fft)
    with tr.instrument(tr.Tracer()):
        assert tsfrac.scheme.history_push is not originals[0]
    assert (tsfrac.scheme.history_push, tsfrac.fourier.fft) == originals


@dataclasses.dataclass
class FakeReport:
    err_inf: float
    avg_iterations: float = 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_accepts_the_reference_and_rejects_a_perturbed_err_inf(name):
    w = WORKLOADS[name]
    its = 8.0
    assert check(instance(w, 0), FakeReport(w.err_ref, its)) == []
    assert check(instance(w, 0), FakeReport(w.err_ref * (1 + 1e-3), its))
    assert check(instance(w, 0), FakeReport(float("nan"), its))
    assert check(instance(w, 7), FakeReport(w.err_ref * 1.01, its)) == []
    assert check(instance(w, 7), FakeReport(w.err_ref * 1.1, its))


def test_gate_enforces_the_iteration_band():
    w = WORKLOADS["pk-n128"]
    assert check(instance(w, 0), FakeReport(w.err_ref, 13.0))


def test_seed_zero_is_the_listed_configuration_and_seeds_repeat():
    w = WORKLOADS["pk-n128"]
    assert (instance(w, 0).alpha, instance(w, 0).gamma) == (1.9, 0.5)
    assert instance(w, 5) == instance(w, 5)
    assert instance(w, 5) != instance(w, 6)


def small(name):
    """The workload on a tiny grid, with its own seed-0 error as reference."""
    w = dataclasses.replace(WORKLOADS[name], M=24, N=16)
    inst = instance(w, 0)
    err = inst.solve(inst.spec()).err_inf
    return instance(dataclasses.replace(w, err_ref=err, its_band=None), 0)


def test_every_emitted_metric_is_declared_in_benchmark_json():
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"] for m in config["end_to_end"]}
    declared_layer = {m["name"] for m in config["per_layer"]}
    for name in ("pk-n128", "dids-m4096"):
        inst = small(name)
        e2e, solves = measure.end_to_end(inst, seconds=0.0)
        assert solves.failed == 0 and set(e2e) == declared_e2e
        layer, solves = measure.per_layer(inst, seconds=0.0)
        assert solves.failed == 0 and set(layer) == declared_layer


def test_bypassed_layers_report_zero_calls():
    layer, _ = measure.per_layer(small("dids-m4096"), seconds=0.0)
    for name in ("toeplitz.matvec.calls", "fourier.fft.calls",
                 "krylov.iterations", "soe.history_push.calls"):
        assert layer[name] == 0
    layer, _ = measure.per_layer(small("pk-n128"), seconds=0.0)
    assert layer["mesh.l1_weights.calls"] == 0
    assert layer["fourier.fft.calls"] > 0
