"""Ablation — selection-solver scalability with batch size R.

Section 4.3 motivates the heuristic by noting the exact search space is
C(t, n)^R; the LP-relaxation + per-chunk rounding must stay tractable
as R grows.  This benchmark measures solver wall time and plan quality
across batch sizes and asserts sub-quadratic scaling for the amortised
schedule, plus near-constant quality relative to the fractional lower
bound.
"""

import random
import time

from repro.bench.reporting import render_table
from repro.selection import ChunkDownload, CyrusSelector, DownloadProblem
from repro.selection.relaxation import solve_fractional_exact

from benchmarks.conftest import print_table

CAPS = {f"fast{i}": 15e6 for i in range(4)} | {f"slow{i}": 2e6 for i in range(3)}


def make_problem(chunks, seed=0):
    rng = random.Random(seed)
    ids = sorted(CAPS)
    return DownloadProblem(
        chunks=tuple(
            ChunkDownload(f"c{i}", rng.randint(1, 8) * 250_000,
                          tuple(rng.sample(ids, 4)))
            for i in range(chunks)
        ),
        t=2, link_caps=CAPS, client_cap=40e6,
    )


def test_ablation_solver_scalability(benchmark):
    sizes = [10, 40, 160]
    rows = []
    times = {}
    gaps = {}
    for size in sizes:
        problem = make_problem(size, seed=size)
        selector = CyrusSelector(resolve_every=max(1, size // 8))
        start = time.perf_counter()
        plan = selector.select(problem)
        elapsed = time.perf_counter() - start
        lower = solve_fractional_exact(problem).y
        times[size] = elapsed
        gaps[size] = plan.bottleneck_time / max(lower, 1e-12)
        rows.append(
            [size, f"{elapsed * 1000:.0f}ms", f"{plan.bottleneck_time:.3f}",
             f"{gaps[size]:.3f}x"]
        )
    benchmark.pedantic(
        lambda: CyrusSelector(resolve_every=8).select(make_problem(40)),
        rounds=1, iterations=1,
    )
    print_table(
        "Ablation: solver scalability (amortised schedule)",
        render_table(
            ["R (chunks)", "wall time", "bottleneck y", "vs fractional LB"],
            rows,
        ),
    )
    # quality: within 25% of the fractional lower bound at every size
    for size in sizes:
        assert gaps[size] <= 1.25, (size, gaps[size])
    # scaling: 16x more chunks must cost well under 16^2 = 256x the time
    ratio = times[160] / max(times[10], 1e-4)
    assert ratio < 120, f"solver scaled superquadratically: {ratio:.0f}x"
