"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench -q``).

They use reduced shapes so the whole file runs in well under a minute;
the planted-corruption cases prove that a wrong read is reported as a
failure (``correct: false``, non-zero exit) rather than as a throughput.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench

bench._import_program()

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(workload, trace, corrupt=False):
    out = io.StringIO()
    ok = bench.run(workload, seed=3, seconds=0, trace=trace,
                   shape=WORKLOADS[workload].WARMUP, corrupt=corrupt,
                   out=out, min_ops=1)
    return ok, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    ok, report = _report(workload, trace=False)
    assert ok and report["correct"] and report["failed"] == 0
    assert report["attempted"] >= 1
    assert set(report["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value = report["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    ok, report = _report(workload, trace=True)
    assert ok
    assert set(report["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert report["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert report["metrics"]["selection.calls"]["value"] > 0
    assert report["metrics"]["erasure.encode_s"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_planted_corruption_is_reported_as_failure(workload):
    ok, report = _report(workload, trace=False, corrupt=True)
    assert not ok
    assert report["correct"] is False
    assert 0 < report["failed"] <= report["attempted"]
    assert report["metrics"] == {}


def test_cli_exits_nonzero_with_planted_corruption():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "fleet", "--seed", "1", "--seconds", "0",
         "--trace", "0", "--plant-corruption"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode != 0
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_same_seed_gives_same_inputs():
    cls = WORKLOADS["edit-sync"]
    shape = cls.WARMUP
    a = cls(5, shape, None, False, bench.OUT / "tmp")
    b = cls(5, shape, None, False, bench.OUT / "tmp")
    c = cls(6, shape, None, False, bench.OUT / "tmp")
    try:
        assert a.docs == b.docs and a.edits == b.edits
        assert a.docs != c.docs
    finally:
        for p in (a, b, c):
            p.close()


def test_self_time_subtracts_child_coverage():
    # op [0, 10] > sync [1, 4] > csp.list [2, 3]; transfer [5, 9]
    spans = [
        ["op", 0.0, 10.0, None, 0, None],
        ["sync.sync", 1.0, 4.0, 0, 0, 0],
        ["csp.list", 2.0, 3.0, 1, 0, None],
        ["transfer.execute", 5.0, 9.0, 0, 0, (2, 0)],
        ["journal.commit", 9.0, 9.5, 0, 0, None],
        ["journal.record", 9.1, 9.4, 4, 0, None],
    ]
    summary = tracing.summarize(spans)
    layers = summary["layers"]
    assert layers["sync"] == {"busy": 3.0, "self": 2.0}
    assert layers["csp"] == {"busy": 1.0, "self": 1.0}
    assert layers["transfer"] == {"busy": 4.0, "self": 4.0}
    # the nested record counts once in busy time, fully in self time
    assert layers["journal"]["busy"] == pytest.approx(0.5)
    assert layers["journal"]["self"] == pytest.approx(0.5)
    assert summary["names"]["journal.record"]["calls"] == 1
    assert summary["op_s"] == 10.0
    assert summary["unattributed_s"] == pytest.approx(10.0 - 3.0 - 4.0 - 0.5)


def test_class_patches_are_removed_after_a_traced_pass():
    from repro.erasure import KeyedSharer

    original = KeyedSharer.split
    recorder = tracing.Recorder()
    with tracing.install_layer_patches(recorder):
        assert KeyedSharer.split is not original
        KeyedSharer("k", 2, 3).split(b"x" * 100)
    assert KeyedSharer.split is original
    assert [s[tracing.NAME] for s in recorder.spans] == ["erasure.encode"]


def test_host_speed_rescales_by_the_neighbouring_slices():
    from perfbench import hostspeed

    host = hostspeed.HostSpeed()
    assert host.slowdown(1.0) == 1.0  # no slices yet: reference speed
    nominal = hostspeed.NOMINAL_SLICE_S
    # slices at t = 0..9; the host ran at half speed from t = 5 on
    host.at = [float(t) for t in range(10)]
    host.took = [nominal] * 5 + [2 * nominal] * 5
    assert host.slowdown(1.5) == pytest.approx(1.0)
    assert host.slowdown(7.5) == pytest.approx(2.0)
    # an op of 0.4 s wall at t = 8 took 0.2 s at the reference speed
    assert host.rescale(7.8, 0.4) == pytest.approx(0.2)
    # a real slice is timed and recorded
    host = hostspeed.HostSpeed()
    host.tick()
    host.maybe_tick()  # too soon after the last one: skipped
    assert len(host.took) == 1 and host.took[0] > 0
