"""Unit tests for the CYRUS selector, its relaxations, and baselines."""

import random

import pytest

from repro.errors import SelectionError
from repro.selection import (
    BruteForceSelector,
    ChunkDownload,
    CyrusSelector,
    DownloadProblem,
    GreedySelector,
    RandomSelector,
    RoundRobinSelector,
)
from repro.selection.relaxation import (
    solve_fractional_convexified,
    solve_fractional_exact,
)

TESTBED_CAPS = {f"fast{i}": 15e6 for i in range(4)} | {
    f"slow{i}": 2e6 for i in range(3)
}


def make_problem(chunks=6, t=2, n=4, seed=0, caps=None, client=40e6):
    caps = caps or TESTBED_CAPS
    rng = random.Random(seed)
    ids = sorted(caps)
    out = []
    for i in range(chunks):
        avail = tuple(rng.sample(ids, n))
        out.append(
            ChunkDownload(f"c{i}", rng.randint(1, 4) * 500_000, avail)
        )
    return DownloadProblem(
        chunks=tuple(out), t=t, link_caps=caps, client_cap=client
    )


class TestRelaxations:
    def test_exact_feasible(self):
        p = make_problem(chunks=5, seed=1)
        sol = solve_fractional_exact(p)
        for chunk in p.chunks:
            fracs = sol.chunk_fractions(chunk.chunk_id)
            assert sum(fracs.values()) == pytest.approx(p.t, abs=1e-6)
            assert all(-1e-9 <= v <= 1 + 1e-9 for v in fracs.values())

    def test_exact_lower_bounds_integral(self):
        p = make_problem(chunks=4, seed=2)
        frac = solve_fractional_exact(p)
        integral = BruteForceSelector().select(p)
        assert frac.y <= integral.bottleneck_time + 1e-6

    def test_convexified_feasible(self):
        p = make_problem(chunks=3, seed=3)
        sol = solve_fractional_convexified(p)
        for chunk in p.chunks:
            fracs = sol.chunk_fractions(chunk.chunk_id)
            assert sum(fracs.values()) == pytest.approx(p.t, abs=1e-3)

    def test_engines_agree_roughly(self):
        p = make_problem(chunks=3, seed=4)
        exact = solve_fractional_exact(p)
        cvx = solve_fractional_convexified(p)
        assert cvx.y == pytest.approx(exact.y, rel=0.25) or cvx.y >= exact.y

    def test_fixed_chunks_respected(self):
        p = make_problem(chunks=4, seed=5)
        first = p.chunks[0]
        fixed_loads = {c: 0.0 for c in p.csps}
        for c in first.available[: p.t]:
            fixed_loads[c] += first.share_size
        sol = solve_fractional_exact(
            p, fixed_loads=fixed_loads, fixed_chunks={first.chunk_id}
        )
        assert first.chunk_id not in {r for r, _ in sol.d}

    def test_convexified_keeps_valid_iterate_at_slsqp_stop(self):
        # this batch stops SLSQP at status 9 (iteration limit) on scipy
        # 1.17; the last iterate is still a valid fractional assignment
        rng = random.Random(10)
        ids = sorted(TESTBED_CAPS)
        p = DownloadProblem(
            chunks=tuple(
                ChunkDownload(f"c{i}", rng.randint(1, 8) * 250_000,
                              tuple(rng.sample(ids, 3)))
                for i in range(6)
            ),
            t=2, link_caps=TESTBED_CAPS, client_cap=40e6,
        )
        sol = solve_fractional_convexified(p)
        for chunk in p.chunks:
            fracs = sol.chunk_fractions(chunk.chunk_id)
            assert sum(fracs.values()) == pytest.approx(p.t, abs=1e-6)
        assert CyrusSelector(relaxation="convexified").select(p)

    @pytest.mark.parametrize("status", [8, 9])
    def test_convexified_slsqp_stop_codes(self, monkeypatch, status):
        from scipy import optimize

        real = optimize.minimize
        p = make_problem(chunks=3, seed=3)

        def stopped(*args, **kwargs):
            res = real(*args, **kwargs)
            res.success, res.status, res.message = False, status, "stopped"
            return res

        monkeypatch.setattr(optimize, "minimize", stopped)
        sol = solve_fractional_convexified(p)  # valid iterate: kept
        assert sol.y > 0

        def stopped_invalid(*args, **kwargs):
            res = stopped(*args, **kwargs)
            res.x[:] = 0.0  # no chunk's fractions sum to t
            return res

        monkeypatch.setattr(optimize, "minimize", stopped_invalid)
        with pytest.raises(SelectionError, match=f"status {status}"):
            solve_fractional_convexified(p)


class TestCyrusSelector:
    def test_matches_brute_force_small(self):
        for seed in range(5):
            p = make_problem(chunks=4, t=2, n=3, seed=seed)
            cyrus = CyrusSelector().select(p)
            brute = BruteForceSelector().select(p)
            assert cyrus.bottleneck_time <= brute.bottleneck_time * 1.15

    def test_beats_or_ties_baselines(self):
        for seed in range(4):
            p = make_problem(chunks=10, seed=seed + 10)
            y_cyrus = CyrusSelector().select(p).bottleneck_time
            for baseline in (
                RandomSelector(seed=seed),
                RoundRobinSelector(),
                GreedySelector(),
            ):
                assert y_cyrus <= baseline.select(p).bottleneck_time + 1e-9

    def test_resolve_every_tradeoff(self):
        p = make_problem(chunks=20, seed=42)
        exact = CyrusSelector(resolve_every=1).select(p)
        amortized = CyrusSelector(resolve_every=8).select(p)
        assert amortized.bottleneck_time <= exact.bottleneck_time * 1.5

    def test_greedy_fallback_for_wide_problems(self):
        p = make_problem(chunks=3, t=2, n=6, seed=7)
        plan = CyrusSelector(enumeration_limit=1).select(p)
        assert plan.bottleneck_time > 0  # feasible despite greedy path

    def test_largest_first_order(self):
        p = make_problem(chunks=8, seed=8)
        plan = CyrusSelector(order="largest-first").select(p)
        assert set(plan.assignments) == {c.chunk_id for c in p.chunks}

    def test_convexified_relaxation_engine(self):
        p = make_problem(chunks=3, seed=9)
        plan = CyrusSelector(relaxation="convexified").select(p)
        brute = BruteForceSelector().select(p)
        assert plan.bottleneck_time <= brute.bottleneck_time * 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            CyrusSelector(resolve_every=0)
        with pytest.raises(ValueError):
            CyrusSelector(relaxation="magic")
        with pytest.raises(ValueError):
            CyrusSelector(order="backwards")

    def test_avoids_slow_csp_when_possible(self):
        caps = {"fast1": 10e6, "fast2": 10e6, "crawl": 0.1e6}
        p = DownloadProblem(
            chunks=tuple(
                ChunkDownload(f"c{i}", 1_000_000, ("fast1", "fast2", "crawl"))
                for i in range(4)
            ),
            t=2, link_caps=caps, client_cap=50e6,
        )
        plan = CyrusSelector().select(p)
        for chosen in plan.assignments.values():
            assert "crawl" not in chosen


class TestBaselines:
    def test_random_deterministic_per_seed(self):
        p = make_problem(chunks=6, seed=1)
        a = RandomSelector(seed=5).select(p).assignments
        b = RandomSelector(seed=5).select(p).assignments
        assert a == b

    def test_random_varies_with_seed(self):
        p = make_problem(chunks=10, seed=1)
        a = RandomSelector(seed=1).select(p).assignments
        b = RandomSelector(seed=2).select(p).assignments
        assert a != b

    def test_round_robin_spreads(self):
        caps = {c: 1e6 for c in "abcd"}
        p = DownloadProblem(
            chunks=tuple(
                ChunkDownload(f"c{i}", 100, ("a", "b", "c", "d"))
                for i in range(4)
            ),
            t=2, link_caps=caps, client_cap=10e6,
        )
        plan = RoundRobinSelector().select(p)
        counts = {}
        for chosen in plan.assignments.values():
            for c in chosen:
                counts[c] = counts.get(c, 0) + 1
        assert max(counts.values()) == min(counts.values())

    def test_greedy_picks_fastest(self):
        p = make_problem(chunks=1, t=2, n=4, seed=3)
        plan = GreedySelector().select(p)
        chunk = p.chunks[0]
        chosen = plan.assignments[chunk.chunk_id]
        speeds = sorted(
            (TESTBED_CAPS[c] for c in chunk.available), reverse=True
        )
        assert sorted(
            (TESTBED_CAPS[c] for c in chosen), reverse=True
        ) == speeds[:2]

    def test_brute_force_guard(self):
        p = make_problem(chunks=30, t=2, n=4, seed=4)
        with pytest.raises(SelectionError):
            BruteForceSelector(combo_limit=100).select(p)

    def test_all_selectors_produce_valid_plans(self):
        from repro.selection.problem import validate_plan

        p = make_problem(chunks=7, seed=11)
        for selector in (
            CyrusSelector(), RandomSelector(), RoundRobinSelector(),
            GreedySelector(),
        ):
            validate_plan(p, selector.select(p))
