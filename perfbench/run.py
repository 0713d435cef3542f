"""Repository benchmark: end-to-end and per-layer metrics for CYRUS.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
from op times rescaled to a reference host speed (``hostspeed.py``);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (spans are written to ``.perfbench/`` when the run
ends).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every output was correct.  ``--plant-corruption``
runs the self-test: providers flip share bytes beyond n - t, and the
run must report failures (and exit non-zero) instead of a throughput.

See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: minimum passes per run (set-up time is the median over passes)
MIN_PASSES = 3
#: a p90 needs at least 10 samples beyond it
MIN_OPS = 100
#: reference slices taken before the first timed pass
WARMUP_SLICES = 5


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run
    against a ``repro`` installed anywhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"error: repro imported from {repro.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _late_over_early(samples) -> float:
    """Median rescaled time of the last quarter of each op kind's
    sequence over that of its first quarter, averaged over kinds."""
    ratios = []
    for kind in sorted({s.kind for s in samples}):
        walls = [s.time_s for s in samples if s.kind == kind]
        quarter = len(walls) // 4
        if quarter:
            ratios.append(statistics.median(walls[-quarter:])
                          / statistics.median(walls[:quarter]))
    return statistics.fmean(ratios) if ratios else 0.0


# ---------------------------------------------------------------------------
# passes


def run_pass(cls, seed, shape, recorder=None, corrupt=False, host=None):
    """Build (timed set-up), run and audit one pass of a workload.

    With a ``host``, reference slices are taken just before and after
    the set-up and between operations.
    """
    from perfbench.tracing import install_layer_patches

    if host is not None:
        host.tick()
    t0 = time.perf_counter()
    p = cls(seed, shape, recorder, corrupt, OUT / "tmp")
    setup = time.perf_counter() - t0
    if host is not None:
        host.tick()
    p.host = host
    try:
        if recorder is None:
            p.run()
        else:
            recorder.spans.clear()  # provider calls made during set-up
            with install_layer_patches(recorder):
                p.run()
            p.result.spans = list(recorder.spans)
        p.audit()
    finally:
        p.close()
    p.result.setup_s = setup
    p.result.setup_start = t0
    return p.result


def rescale_times(results, host) -> None:
    """Fill in each pass's rescaled set-up and op times; needs the
    slices taken after the last op, so it runs when the passes end."""
    for r in results:
        r.setup_time_s = host.rescale(r.setup_start, r.setup_s)
        for s in r.samples:
            s.time_s = host.rescale(s.start, s.wall_s)


def run_passes(workload, seed, seconds, trace, shape=None, corrupt=False,
               min_ops=MIN_OPS):
    """Warm up, then repeat passes until ``seconds`` have elapsed.

    Returns ``(untraced, traced, warmup, host)``: pass results and the
    host speed slices taken between them.  Each pass draws fresh inputs
    from ``(seed, pass index)``, so a run averages over many inputs and
    one seed always yields the same sequence.  In trace mode passes
    alternate untraced / traced so both see the same machine state, and
    the two passes of a pair share their inputs; otherwise every pass is
    untraced.  A pass with a failure ends the run at once: its numbers
    would not describe a working program.
    """
    from perfbench.hostspeed import HostSpeed
    from perfbench.tracing import Recorder
    from perfbench.workloads import WORKLOADS, derive_rng

    def pass_seed(*scope) -> int:
        return derive_rng(seed, "pass", *scope).getrandbits(62)

    cls = WORKLOADS[workload]
    shape = dict(cls.SHAPE if shape is None else shape)
    warmup = run_pass(cls, pass_seed("warmup"), cls.WARMUP, corrupt=corrupt)
    host = HostSpeed()
    for _ in range(WARMUP_SLICES):
        host.tick()
    untraced, traced = [], []
    start = time.perf_counter()
    while not warmup.failures:
        tracing = trace and len(untraced) > len(traced)
        recorder = Recorder() if tracing else None
        index = len(traced) if tracing else len(untraced)
        gc.collect()
        result = run_pass(cls, pass_seed(index), shape, recorder, corrupt,
                          host)
        (traced if tracing else untraced).append(result)
        if result.failures:
            break
        done = time.perf_counter() - start >= seconds
        if trace:
            enough = len(untraced) >= 2 and len(traced) >= 2
        else:
            enough = len(untraced) >= MIN_PASSES and (
                sum(len(r.samples) for r in untraced) >= min_ops)
        if done and enough:
            break
    rescale_times([*untraced, *traced], host)
    return untraced, traced, warmup, host


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes) -> dict[str, tuple[float, str]]:
    """Metrics over every untraced pass, from times rescaled to the
    reference host speed (see ``hostspeed.py``)."""
    samples = [s for r in passes for s in r.samples]
    puts = [s for s in samples if s.kind == "put"]
    gets = [s for s in samples if s.kind == "get"]
    times = [s.time_s for s in samples]

    def mbps(group):
        return _ratio(sum(s.user_bytes for s in group),
                      sum(s.time_s for s in group)) / 1e6

    def p50_ms(group):
        return percentile([s.time_s for s in group], 0.5) * 1e3

    return {
        "setup_s": (statistics.median(r.setup_time_s for r in passes), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "put_mbps": (mbps(puts), "MB/s"),
        "get_mbps": (mbps(gets), "MB/s"),
        "put_ms_p50": (p50_ms(puts), "ms"),
        "get_ms_p50": (p50_ms(gets), "ms"),
        "op_ms_p90": (percentile(times, 0.9) * 1e3, "ms"),
        "ops_per_s": (_ratio(len(times), sum(times)), "1/s"),
    }


def per_layer(untraced, traced, host) -> dict[str, tuple[float, str]]:
    from perfbench.hostspeed import NOMINAL_SLICE_S
    from perfbench.tracing import summarize

    sums = [summarize(r.spans) for r in traced]
    k = len(traced)

    def name_stat(name, stat):
        return sum(s["names"].get(name, {}).get(stat, 0) for s in sums)

    def infos(name):
        """Measured payloads of the spans that returned (not raised)."""
        return [i for s in sums for i in s["names"].get(name, {}).get(
            "infos", []) if i is not None]

    def durations(name):
        return [d for s in sums for d in s["names"].get(name, {}).get(
            "durations", [])]

    def layer(name, stat):
        return sum(s["layers"].get(name, {}).get(stat, 0.0) for s in sums)

    def per_pass(value):
        return value / k

    def p50_ms(name):
        values = durations(name)
        return percentile(values, 0.5) * 1e3 if values else 0.0

    ops = sum(len(r.samples) for r in traced)
    csp_calls = sum(name_stat(f"csp.{p}", "calls") for p in (
        "list", "upload", "download", "delete", "authenticate"))
    first = traced[0]
    sim_gets = [s.sim_s for s in first.samples
                if s.kind == "get" and s.sim_s is not None]
    sim_puts = [s.sim_s for s in first.samples
                if s.kind == "put" and s.sim_s is not None]
    new = sum(r.new_chunks for r in traced)
    dedup = sum(r.dedup_chunks for r in traced)
    transfer_infos = infos("transfer.execute")
    plan_ratios = [x for r in traced for x in r.plan_ratios]
    traced_op = [s["op_s"] for s in sums]
    m: dict[str, tuple[float, str]] = {
        "chunking.calls": (per_pass(name_stat("chunking.chunk", "calls")),
                           "count"),
        "chunking.s": (per_pass(layer("chunking", "busy")), "s"),
        "chunking.mbps": (_ratio(sum(infos("chunking.chunk")),
                                 layer("chunking", "busy")) / 1e6, "MB/s"),
        "uploader.new_chunk_ratio": (_ratio(new, new + dedup), "ratio"),
        "uploader.bytes_up_per_user_byte": (
            _ratio(sum(r.bytes_up for r in traced),
                   sum(r.put_bytes for r in traced)), "ratio"),
        "erasure.encode_s": (per_pass(name_stat("erasure.encode", "s")), "s"),
        "erasure.encode_mbps": (_ratio(sum(infos("erasure.encode")),
                                       name_stat("erasure.encode", "s"))
                                / 1e6, "MB/s"),
        "erasure.decode_s": (per_pass(name_stat("erasure.decode", "s")), "s"),
        "erasure.decode_mbps": (_ratio(sum(infos("erasure.decode")),
                                       name_stat("erasure.decode", "s"))
                                / 1e6, "MB/s"),
        "erasure.self_s": (per_pass(layer("erasure", "self")), "s"),
        "selection.calls": (per_pass(name_stat("selection.select", "calls")),
                            "count"),
        "selection.s": (per_pass(layer("selection", "busy")), "s"),
        "selection.ms_per_call": (
            _ratio(layer("selection", "busy"),
                   name_stat("selection.select", "calls")) * 1e3, "ms"),
        "selection.chunks_per_call": (
            _ratio(sum(infos("selection.select")),
                   name_stat("selection.select", "calls")), "count"),
        "selection.predicted_over_sim": (
            statistics.median(plan_ratios) if plan_ratios else 0.0, "ratio"),
        "csp.calls_per_op": (_ratio(csp_calls, ops), "count"),
        "csp.list_calls": (per_pass(name_stat("csp.list", "calls")), "count"),
        "csp.list_s": (per_pass(name_stat("csp.list", "s")), "s"),
        "csp.list_ms_p50": (p50_ms("csp.list"), "ms"),
        "csp.upload_s": (per_pass(name_stat("csp.upload", "s")), "s"),
        "csp.download_s": (per_pass(name_stat("csp.download", "s")), "s"),
        "csp.self_s": (per_pass(layer("csp", "self")), "s"),
        "csp.objects_stored": (
            statistics.median(r.stored_objects for r in traced), "count"),
        "csp.bytes_stored": (
            statistics.median(r.stored_bytes for r in traced), "bytes"),
        "csp.stored_bytes_per_user_byte": (
            statistics.median(_ratio(r.stored_bytes, r.live_bytes)
                              for r in traced), "ratio"),
        "metadata.encode_s": (per_pass(name_stat("metadata.encode", "s")),
                              "s"),
        "metadata.decode_s": (per_pass(name_stat("metadata.decode", "s")),
                              "s"),
        "metadata.publishes": (
            per_pass(name_stat("metadata.encode", "calls")), "count"),
        "metadata.self_s": (per_pass(layer("metadata", "self")), "s"),
        "sync.calls": (per_pass(name_stat("sync.sync", "calls")), "count"),
        "sync.s": (per_pass(layer("sync", "busy")), "s"),
        "sync.self_s": (per_pass(layer("sync", "self")), "s"),
        "sync.ms_p50": (p50_ms("sync.sync"), "ms"),
        "sync.new_nodes": (per_pass(sum(infos("sync.sync"))), "count"),
        "transfer.calls": (per_pass(name_stat("transfer.execute", "calls")),
                           "count"),
        "transfer.ops": (per_pass(sum(i[0] for i in transfer_infos)),
                         "count"),
        "transfer.failed_ops": (per_pass(sum(i[1] for i in transfer_infos)),
                                "count"),
        "transfer.s": (per_pass(layer("transfer", "busy")), "s"),
        "transfer.self_s": (per_pass(layer("transfer", "self")), "s"),
        "journal.records": (per_pass(name_stat("journal.begin", "calls")
                                     + name_stat("journal.record", "calls")),
                            "count"),
        "journal.s": (per_pass(layer("journal", "busy")), "s"),
        "netsim.get_s_p50": (
            percentile(sim_gets, 0.5) if sim_gets else 0.0, "s"),
        "netsim.get_s_p90": (
            percentile(sim_gets, 0.9) if sim_gets else 0.0, "s"),
        "netsim.sync_s_p50": (
            percentile(sim_puts, 0.5) if sim_puts else 0.0, "s"),
        "netsim.sync_s_p90": (
            percentile(sim_puts, 0.9) if sim_puts else 0.0, "s"),
        "fleet.sim_lag_s_max": (max(r.lag_max_s for r in traced), "s"),
        "fleet.late_over_early": (
            statistics.median(_late_over_early(r.samples) for r in untraced),
            "ratio"),
        "trace.op_s": (per_pass(sum(traced_op)), "s"),
        "trace.unattributed_s": (
            per_pass(sum(s["unattributed_s"] for s in sums)), "s"),
        "trace.unattributed_share": (
            _ratio(sum(s["unattributed_s"] for s in sums), sum(traced_op)),
            "ratio"),
        "trace.overhead_s": (
            statistics.median(sum(x.time_s for x in r.samples)
                              for r in traced)
            - statistics.median(sum(x.time_s for x in r.samples)
                                for r in untraced),
            "s"),
        "trace.spans": (per_pass(sum(s["spans"] for s in sums)), "count"),
        "host.slowdown": (
            statistics.median(host.took) / NOMINAL_SLICE_S, "ratio"),
        "host.slices": (len(host.took) / (len(untraced) + k), "count"),
    }
    return m


# ---------------------------------------------------------------------------
# entry point


def run(workload, seed, seconds, trace, shape=None, corrupt=False,
        out=sys.stdout, min_ops=MIN_OPS) -> bool:
    """Run one benchmark invocation; prints the report, returns correct.

    A run with any failed or wrong operation reports its counts and no
    metrics.
    """
    untraced, traced, warmup, host = run_passes(
        workload, seed, seconds, trace, shape=shape, corrupt=corrupt,
        min_ops=min_ops)
    every = [warmup, *untraced, *traced]
    attempted = sum(r.attempted for r in every)
    failures = [f for r in every for f in r.failures]
    if failures:
        metrics = {}
    elif trace:
        metrics = per_layer(untraced, traced, host)
    else:
        metrics = end_to_end(untraced)
    ops = sum(len(r.samples) for r in untraced)
    print(f"# workload={workload} seed={seed} trace={trace} "
          f"passes={len(untraced)}+{len(traced)} timed_ops={ops} "
          f"attempted={attempted} failed={len(failures)} "
          f"error_ratio={_ratio(len(failures), attempted):.4f}", file=out)
    for message in failures[:10]:
        print(f"# FAILED {message}", file=out)
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<34} {value:>16.6f} {unit}", file=out)
    if traced:
        from perfbench.tracing import dump_spans

        path = OUT / f"trace-{workload}-seed{seed}.json"
        dump_spans([r.spans for r in traced], path)
        print(f"# spans written to {path.relative_to(ROOT)}", file=out)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), file=out)
    return not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk", "edit-sync", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-corruption", action="store_true",
                        help="self-test: flip share bytes beyond n - t")
    args = parser.parse_args(argv)
    _import_program()
    ok = run(args.workload, args.seed, args.seconds, bool(args.trace),
             corrupt=args.plant_corruption)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
