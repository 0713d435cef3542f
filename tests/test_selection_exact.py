"""The exact min-cut relaxation against a HiGHS LP oracle (hypothesis).

``lp_given_bandwidth`` below is the LP the selector used to solve per
re-solve: minimise ``y`` over ``(d, y)`` with per-chunk
``sum_c d_rc = t``, ``0 <= d <= 1`` and per-CSP
``F_c + sum_r b_r d_rc <= y * beta_c`` at ``beta = link caps``.  It is
kept here, and only here, as the oracle for
:func:`repro.selection.relaxation.solve_fractional_exact`.  Byte sizes
and capacities are normalised to O(1) before the solve so HiGHS's
absolute feasibility tolerances stay far below the values involved.
"""

import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, sparse

from repro.selection import ChunkDownload, DownloadProblem
from repro.selection.bandwidth import optimal_bandwidth_allocation
from repro.selection.relaxation import (
    FractionalSolution,
    solve_fractional_exact,
)

REL = 1e-9


def lp_given_bandwidth(problem, fixed_loads=None, fixed_chunks=None):
    """HiGHS LP over (d, y) with bandwidths held at the link caps.

    Returns the LP's fractional assignment with its loads, and the
    bottleneck time and bandwidth split those loads get under the
    optimal allocation.
    """
    fixed_loads = fixed_loads or {}
    fixed_chunks = fixed_chunks or set()
    caps = problem.link_caps
    chunks = [ch for ch in problem.chunks if ch.chunk_id not in fixed_chunks]
    csps = problem.csps
    var_index = {}
    for ch in chunks:
        for c in ch.available:
            if caps.get(c, 0.0) > 0:
                var_index[(ch.chunk_id, c)] = len(var_index)
    loads = {c: fixed_loads.get(c, 0.0) for c in csps}
    d = {}
    if chunks:
        size_unit = max([ch.share_size for ch in chunks] + [1])
        cap_unit = max(caps.values())
        y_col = len(var_index)
        rows, cols, vals, b_ub = [], [], [], []
        for csp in csps:
            members = [
                (var_index[(ch.chunk_id, csp)], ch.share_size / size_unit)
                for ch in chunks
                if (ch.chunk_id, csp) in var_index
            ]
            if not members:
                continue
            for col, size in members:
                rows.append(len(b_ub))
                cols.append(col)
                vals.append(size)
            rows.append(len(b_ub))
            cols.append(y_col)
            vals.append(-caps[csp] / cap_unit)
            b_ub.append(-fixed_loads.get(csp, 0.0) / size_unit)
        e_rows, e_cols = [], []
        for i, ch in enumerate(chunks):
            for c in ch.available:
                if (ch.chunk_id, c) in var_index:
                    e_rows.append(i)
                    e_cols.append(var_index[(ch.chunk_id, c)])
        n_vars = y_col + 1
        cost = [0.0] * y_col + [1.0]
        res = optimize.linprog(
            cost,
            A_ub=sparse.coo_matrix((vals, (rows, cols)),
                                   shape=(len(b_ub), n_vars)),
            b_ub=b_ub,
            A_eq=sparse.coo_matrix(([1.0] * len(e_rows), (e_rows, e_cols)),
                                   shape=(len(chunks), n_vars)),
            b_eq=[float(problem.t)] * len(chunks),
            bounds=[(0.0, 1.0)] * y_col + [(0.0, None)],
            method="highs",
        )
        assert res.success, res.message
        sizes = {ch.chunk_id: ch.share_size for ch in chunks}
        for key, i in var_index.items():
            d[key] = float(res.x[i])
            loads[key[1]] += sizes[key[0]] * d[key]
    y, betas = optimal_bandwidth_allocation(
        loads, dict(caps), problem.client_cap
    )
    return FractionalSolution(d=d, loads=loads, bandwidths=betas, y=y)


def assert_valid(problem, sol, fixed_chunks=frozenset()):
    """The exact solution is a feasible relaxation point with its own y."""
    caps = problem.link_caps
    for chunk in problem.chunks:
        fracs = sol.chunk_fractions(chunk.chunk_id)
        if chunk.chunk_id in fixed_chunks:
            assert not fracs
            continue
        assert sum(fracs.values()) == pytest.approx(problem.t, abs=1e-9)
        assert all(0.0 <= v <= 1.0 for v in fracs.values())
        # nonzero only on usable CSPs that hold a share of this chunk
        for csp, v in fracs.items():
            if v > 0:
                assert csp in chunk.available and caps.get(csp, 0.0) > 0
    for csp, load in sol.loads.items():
        if load > 0:
            assert load <= sol.y * caps[csp] * (1 + REL)
    assert sum(sol.bandwidths.values()) <= problem.client_cap * (1 + REL)


def assert_matches_oracle(problem, fixed_loads=None, fixed_chunks=None):
    sol = solve_fractional_exact(problem, fixed_loads, fixed_chunks)
    assert_valid(problem, sol, fixed_chunks or frozenset())
    lp = lp_given_bandwidth(problem, fixed_loads, fixed_chunks)
    assert sol.y == pytest.approx(lp.y, rel=REL, abs=1e-300)
    return sol


CAP_CHOICES = st.one_of(
    st.sampled_from([0.0, 1e6, 2e6, 15e6]),
    st.floats(min_value=1e5, max_value=3e7),
)
SIZE_CHOICES = st.one_of(
    st.just(0), st.integers(1, 1_000), st.integers(1, 4_000_000)
)


@st.composite
def problems(draw):
    """A download problem plus a fixed subset with its byte loads."""
    n_csps = draw(st.integers(3, 8))
    t = draw(st.integers(1, 3))
    ids = [f"p{i}" for i in range(n_csps)]
    caps = {c: draw(CAP_CHOICES) for c in ids}
    for c in ids[:t]:  # at least t usable CSPs exist
        caps[c] = caps[c] or 1e6
    usable = [c for c in ids if caps[c] > 0]
    chunks = []
    for i in range(draw(st.integers(0, 24))):
        core = draw(st.permutations(usable))[:t]
        extra = draw(st.lists(st.sampled_from(ids), max_size=n_csps))
        avail = tuple(dict.fromkeys(list(core) + extra))
        chunks.append(ChunkDownload(f"c{i}", draw(SIZE_CHOICES), avail))
    client = draw(st.sampled_from([1e6, 4e7, 1e9]))
    problem = DownloadProblem(tuple(chunks), t, caps, client)
    fixed = {ch.chunk_id for ch in chunks if draw(st.booleans())}
    loads = {c: 0.0 for c in problem.csps}
    for ch in chunks:
        if ch.chunk_id in fixed:
            for c in [c for c in ch.available if caps[c] > 0][:t]:
                loads[c] += ch.share_size
    return problem, loads, fixed


@settings(max_examples=200, deadline=None)
@given(problems())
def test_exact_matches_lp_oracle(case):
    problem, fixed_loads, fixed_chunks = case
    assert_matches_oracle(problem, fixed_loads, fixed_chunks)


CAPS = {"a": 15e6, "b": 15e6, "c": 2e6, "d": 2e6}


def test_all_chunks_fixed():
    chunks = (ChunkDownload("x", 1000, ("a", "b", "c")),
              ChunkDownload("y", 500, ("b", "c", "d")))
    p = DownloadProblem(chunks, 2, CAPS, 40e6)
    loads = {"a": 1000.0, "b": 1500.0, "c": 500.0, "d": 0.0}
    sol = assert_matches_oracle(p, loads, {"x", "y"})
    assert sol.d == {}
    assert sol.loads == loads


def test_zero_size_chunks():
    chunks = tuple(ChunkDownload(f"z{i}", 0, ("a", "b", "c")) for i in range(3))
    p = DownloadProblem(chunks, 2, CAPS, 40e6)
    sol = assert_matches_oracle(p)
    assert sol.y == 0.0
    mixed = chunks + (ChunkDownload("big", 4_000_000, ("a", "b", "c")),)
    assert_matches_oracle(DownloadProblem(mixed, 2, CAPS, 40e6))


def test_zero_cap_csps_in_availability():
    caps = CAPS | {"dead": 0.0}
    chunks = tuple(
        ChunkDownload(f"c{i}", 1_000_000, ("dead", "a", "c")) for i in range(4)
    )
    sol = assert_matches_oracle(DownloadProblem(chunks, 2, caps, 40e6))
    assert all(csp != "dead" for _, csp in sol.d)


def test_binding_client_cap():
    chunks = tuple(
        ChunkDownload(f"c{i}", 1_000_000, ("a", "b", "c", "d"))
        for i in range(5)
    )
    p = DownloadProblem(chunks, 2, CAPS, 1e6)
    sol = assert_matches_oracle(p)
    # every byte crosses the 1 MB/s client link
    assert sol.y == pytest.approx(10.0)


def test_t_equals_availability():
    chunks = (ChunkDownload("x", 3_000_000, ("a", "c")),
              ChunkDownload("y", 1_000_000, ("a", "b", "d")))
    sol = assert_matches_oracle(DownloadProblem(chunks, 2, CAPS, 40e6))
    assert sol.chunk_fractions("x") == {"a": 1.0, "c": 1.0}


def test_unbalanced_pools_reach_the_min_cut():
    # the slow CSP pair is forced on one pool; Newton must lift y from
    # the aggregate bound to that pool's cut ratio
    chunks = (ChunkDownload("slow", 4_000_000, ("c", "d")),
              ChunkDownload("fast", 1_000_000, ("a", "b", "c")))
    sol = assert_matches_oracle(DownloadProblem(chunks, 2, CAPS, 40e6))
    assert sol.y == pytest.approx(2.0)

