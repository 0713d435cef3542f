"""Ablation — Algorithm 1's design choices.

Compares (a) the paper's per-chunk re-solve schedule against an
amortised one, and (b) the two fractional-relaxation engines
(the exact min-cut solver vs the paper's convexified D-hat program).  The paper's
motivation for the online scheme is that chunk 1's CSPs are fixed — and
its download can start — before later chunks are considered; the
ablation quantifies how little optimality that costs.
"""

import random
import time

from repro.bench.reporting import render_table
from repro.selection import ChunkDownload, CyrusSelector, DownloadProblem

from benchmarks.conftest import print_table

CAPS = {f"fast{i}": 15e6 for i in range(4)} | {f"slow{i}": 2e6 for i in range(3)}


def make_problem(chunks=40, t=2, n=4, seed=0):
    rng = random.Random(seed)
    ids = sorted(CAPS)
    return DownloadProblem(
        chunks=tuple(
            ChunkDownload(
                f"c{i}", rng.randint(1, 8) * 250_000,
                tuple(rng.sample(ids, n)),
            )
            for i in range(chunks)
        ),
        t=t, link_caps=CAPS, client_cap=40e6,
    )


def test_ablation_resolve_schedule(benchmark):
    problems = [make_problem(seed=s) for s in range(3)]
    rows = []
    summary = {}
    for resolve_every, label in [(1, "paper (every chunk)"),
                                 (8, "every 8 chunks"),
                                 (1000, "once up front")]:
        ys, elapsed = [], 0.0
        for problem in problems:
            selector = CyrusSelector(resolve_every=resolve_every)
            start = time.perf_counter()
            plan = selector.select(problem)
            elapsed += time.perf_counter() - start
            ys.append(plan.bottleneck_time)
        mean_y = sum(ys) / len(ys)
        rows.append([label, f"{mean_y:.4f}", f"{elapsed:.2f}s"])
        summary[resolve_every] = (mean_y, elapsed)
    benchmark.pedantic(
        lambda: CyrusSelector(resolve_every=8).select(problems[0]),
        rounds=1, iterations=1,
    )
    print_table(
        "Ablation: relaxation re-solve schedule (40-chunk problems)",
        render_table(["schedule", "mean bottleneck y", "solver wall time"],
                     rows),
    )
    # amortising costs little optimality but much less time
    assert summary[8][0] <= summary[1][0] * 1.25
    assert summary[8][1] < summary[1][1]
    # even solving once is feasible (bounded degradation)
    assert summary[1000][0] <= summary[1][0] * 1.6


def test_ablation_relaxation_engine(benchmark):
    problems = [make_problem(chunks=6, n=3, seed=10 + s) for s in range(3)]
    rows = []
    engine_y = {}
    for engine in ("exact", "convexified"):
        ys = []
        for problem in problems:
            plan = CyrusSelector(relaxation=engine).select(problem)
            ys.append(plan.bottleneck_time)
        engine_y[engine] = sum(ys) / len(ys)
        rows.append([engine, f"{engine_y[engine]:.4f}"])
    benchmark.pedantic(
        lambda: CyrusSelector(relaxation="convexified").select(problems[0]),
        rounds=1, iterations=1,
    )
    print_table(
        "Ablation: fractional relaxation engine",
        render_table(["engine", "mean bottleneck y"], rows),
    )
    # the two constructions land on near-identical integral plans
    ratio = engine_y["convexified"] / engine_y["exact"]
    assert 0.8 <= ratio <= 1.25
