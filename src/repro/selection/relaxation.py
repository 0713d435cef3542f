"""Fractional relaxations of the download-selection problem.

Two engines produce a fractional assignment ``d_{r,c}``:

* ``exact`` (default) — the relaxation solved exactly and without an LP
  solver.  Every feasible ``d`` puts the same total load
  ``t * sum_r b_r + sum_c F_c`` on the CSPs, so the client-cap term of
  the objective is constant and the optimal ``d`` is the min-makespan
  assignment at ``beta_c = beta-bar_c``: a transportation problem.
  Chunks with the same usable CSP set are interchangeable, so they are
  pooled into one source node of a three-layer flow network
  (pool -> CSP -> sink).  Newton's method on its min cuts finds the
  smallest feasible makespan ``y``, each step one incremental
  augmenting-path max-flow.  Each pool's flow is split among its
  chunks by McNaughton's wrap-around rule, and the bandwidths follow
  in closed form (:mod:`repro.selection.bandwidth`).

* ``convexified`` — the paper's construction: substitute
  ``D_{r,c} = d_{r,c}^(1/2)``, over-estimate it with the closest linear
  function ``D-hat = 3^(1/4) d / 2 + 3^(-1/4) / 2`` and solve the
  resulting jointly convex program in ``(d, beta, y)`` with SLSQP.
  Because D-hat is an over-estimator, any feasible point of the
  convexified program is feasible for the true problem.

Both yield near-identical integral plans; the ablation benchmark
compares them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.errors import SelectionError
from repro.selection.bandwidth import optimal_bandwidth_allocation
from repro.selection.problem import ChunkDownload, DownloadProblem

#: Linear over-estimator coefficients for sqrt(d) on [0, 1] (paper §4.3).
DHAT_SLOPE = 3.0 ** 0.25 / 2.0
DHAT_INTERCEPT = 3.0 ** -0.25 / 2.0


@dataclass
class FractionalSolution:
    """A fractional assignment with its loads and bandwidth split."""

    d: dict[tuple[str, str], float]  # (chunk_id, csp) -> fraction in [0, 1]
    loads: dict[str, float]
    bandwidths: dict[str, float]
    y: float

    def chunk_fractions(self, chunk_id: str) -> dict[str, float]:
        """CSP -> fraction for one chunk."""
        return {c: v for (r, c), v in self.d.items() if r == chunk_id}


def _index_problem(problem: DownloadProblem, skip: set[str]):
    """Variable indexing for the unfixed chunks."""
    chunks = [c for c in problem.chunks if c.chunk_id not in skip]
    csps = problem.csps
    csp_index = {c: i for i, c in enumerate(csps)}
    var_index: dict[tuple[str, str], int] = {}
    for chunk in chunks:
        for csp in chunk.available:
            if problem.link_caps.get(csp, 0.0) > 0:
                var_index[(chunk.chunk_id, csp)] = len(var_index)
    return chunks, csps, csp_index, var_index


#: Relative slack below which a flow counts as saturated / a residual as 0.
_FLOW_EPS = 1e-12


def _augment(
    members: list[list[int]],
    into: list[list[tuple[int, int]]],
    sizes: list[float],
    t: int,
    room: list[float],
    x: list[list[float]],
    pushed: list[float],
    eps: float,
) -> set[int]:
    """Augment the source -> pool -> CSP -> sink flow to a maximum.

    Pool ``g`` sends ``pushed[g] <= t * B_g`` bytes, ``x[g][k] <= B_g``
    of them to CSP ``members[g][k]``; ``into[c]`` lists the ``(g, k)``
    arcs entering CSP ``c`` and ``room[c]`` is its residual sink
    capacity.  Edmonds-Karp, updating ``x``, ``pushed`` and ``room`` in
    place.  Returns the CSPs reachable from the source in the final
    residual graph: the CSP side of a min cut's source set.
    """
    # direct source -> pool -> CSP -> sink paths first, in one sweep
    for g, row in enumerate(members):
        for k, c in enumerate(row):
            push = min(t * sizes[g] - pushed[g], sizes[g] - x[g][k], room[c])
            if push > eps:
                x[g][k] += push
                pushed[g] += push
                room[c] -= push
    while True:
        # BFS over pools and CSPs; a CSP's parent is (pool, k), a pool's
        # is (csp, k) or None when entered from the source
        pool_parent: dict[int, tuple[int, int] | None] = {}
        csp_parent: dict[int, tuple[int, int]] = {}
        queue: deque[int] = deque()
        for g, size in enumerate(sizes):
            if t * size - pushed[g] > eps:
                pool_parent[g] = None
                queue.append(g)
        end = -1
        while queue and end < 0:
            g = queue.popleft()
            for k, c in enumerate(members[g]):
                if c in csp_parent or sizes[g] - x[g][k] <= eps:
                    continue
                csp_parent[c] = (g, k)
                if room[c] > eps:
                    end = c
                    break
                for g2, k2 in into[c]:
                    if g2 not in pool_parent and x[g2][k2] > eps:
                        pool_parent[g2] = (c, k2)
                        queue.append(g2)
        if end < 0:
            return set(csp_parent)
        # walk the path back to the source for its bottleneck, then push
        path: list[tuple[int, int, int | None]] = []  # (g, k_fwd, k_rev)
        bottleneck = room[end]
        c = end
        while True:
            g, k = csp_parent[c]
            bottleneck = min(bottleneck, sizes[g] - x[g][k])
            back = pool_parent[g]
            if back is None:
                bottleneck = min(bottleneck, t * sizes[g] - pushed[g])
                path.append((g, k, None))
                break
            c, k_rev = back
            bottleneck = min(bottleneck, x[g][k_rev])
            path.append((g, k, k_rev))
        room[end] -= bottleneck
        for g, k, k_rev in path:
            x[g][k] += bottleneck
            if k_rev is None:
                pushed[g] += bottleneck
            else:
                x[g][k_rev] -= bottleneck


def _min_makespan_flow(
    pools: list[tuple[tuple[str, ...], float]],
    t: int,
    link_caps: dict[str, float],
    fixed_loads: dict[str, float],
) -> list[list[float]]:
    """Route ``t * B_g`` bytes of each pool onto its CSPs, ``<= B_g`` per
    CSP, minimising ``y = max_c (F_c + load_c) / cap_c``.

    A makespan ``y`` is feasible iff the max-flow saturates the source,
    i.e. iff every CSP set ``T`` has room for the bytes that must enter
    it: ``y * cap_T - F_T >= D_T = sum_g B_g * max(0, t - |A_g \\ T|)``.
    Newton's method starts below ``y*`` and jumps to the ratio
    ``(D_T + F_T) / cap_T`` of the min cut found; sink capacities only
    grow with ``y``, so each step resumes from the previous flow.
    Returns each pool's per-CSP byte flows (aligned with its CSP tuple).
    """
    csps = sorted({c for avail, _ in pools for c in avail})
    index = {c: i for i, c in enumerate(csps)}
    members = [[index[c] for c in avail] for avail, _ in pools]
    into: list[list[tuple[int, int]]] = [[] for _ in csps]
    for g, row in enumerate(members):
        for k, c in enumerate(row):
            into[c].append((g, k))
    sizes = [float(size) for _, size in pools]
    cap = [float(link_caps[c]) for c in csps]
    fixed = [float(fixed_loads.get(c, 0.0)) for c in csps]
    need = t * sum(sizes)
    x = [[0.0] * len(row) for row in members]
    if need <= 0:
        return x
    eps = _FLOW_EPS * need
    y = max(
        max(f / k for f, k in zip(fixed, cap)),
        (need + sum(fixed)) / sum(cap),
    )
    pushed = [0.0] * len(pools)
    room = [y * k - f for k, f in zip(cap, fixed)]
    for _ in range(2 * len(csps) + 8):
        reach = _augment(members, into, sizes, t, room, x, pushed, eps)
        if need - sum(pushed) <= eps or not reach:
            break
        demand = sum(
            size * max(0, t - sum(1 for c in row if c not in reach))
            for row, size in zip(members, sizes)
        )
        y_next = (demand + sum(fixed[c] for c in reach)) / sum(
            cap[c] for c in reach
        )
        if y_next <= y:
            break  # float round-off: the residual shortfall is noise
        room = [r + (y_next - y) * k for r, k in zip(room, cap)]
        y = y_next
    else:
        raise SelectionError("exact relaxation: min-cut iteration cap reached")
    # settle each pool's round-off shortfall on CSPs with spare arc room
    for g, row in enumerate(x):
        short = t * sizes[g] - sum(row)
        for k in range(len(row)):
            if short <= 0:
                break
            add = min(short, sizes[g] - row[k])
            row[k] += add
            short -= add
    return x


def _wrap_around(
    sizes: list[int], flows: list[float], t: int
) -> list[list[float]]:
    """Split one pool's per-CSP byte flows among its chunks.

    McNaughton's wrap-around rule: lay the pool's chunks end to end
    ``t`` times over and cut that stream into consecutive pieces of the
    CSPs' flow sizes.  A piece is at most ``B_g`` long and a chunk's
    copies recur every ``B_g`` bytes, so no chunk gets more than its
    size from one CSP (``d <= 1``), and each gets ``t`` sizes in all.
    Most fractions come out 0 or 1, which gives the rounding a clear
    preference instead of ties between evenly spread chunks.  Returns
    each chunk's fractions, aligned with ``flows``.
    """
    width = len(flows)
    rows = [[0.0] * width if size else [t / width] * width for size in sizes]
    sized = [i for i, size in enumerate(sizes) if size > 0]
    if not sized:
        return rows
    # piece and chunk-copy end offsets along the stream, then merge them
    total = t * sum(sizes)
    scale = total / sum(flows)
    cuts = list(accumulate(f * scale for f in flows))
    cuts[-1] = total
    ends = list(accumulate(sizes[i] for _ in range(t) for i in sized))
    k = j = 0
    lo = 0.0
    while k < width and j < len(ends):
        hi = min(cuts[k], ends[j])
        i = sized[j % len(sized)]
        rows[i][k] += max(0.0, hi - lo) / sizes[i]
        lo = max(lo, hi)
        k += cuts[k] <= hi
        j += ends[j] <= hi
    # a piece longer than B_g by round-off can give a tiny chunk a
    # fraction just over 1: move that excess to the chunk's other CSPs
    for i in sized:
        row = rows[i]
        spill = sum(f - 1.0 for f in row if f > 1.0)
        for k in range(width if spill > 0 else 0):
            frac = min(1.0, row[k])
            add = min(spill, 1.0 - frac)
            row[k] = frac + add
            spill -= add
    return rows


def solve_fractional_exact(
    problem: DownloadProblem,
    fixed_loads: dict[str, float] | None = None,
    fixed_chunks: set[str] | None = None,
) -> FractionalSolution:
    """Exact fractional relaxation via min-cut Newton iterations.

    ``fixed_loads`` are byte loads from already-integrally-assigned
    chunks (Algorithm 1's ``r < eta``); those chunks are listed in
    ``fixed_chunks`` and excluded from the variables.  Chunks with the
    same usable CSP set form one pool; the pool's optimal flow is split
    among them by :func:`_wrap_around`.
    """
    fixed_loads = fixed_loads or {}
    fixed_chunks = fixed_chunks or set()
    caps = problem.link_caps
    pooled: dict[tuple[str, ...], list[ChunkDownload]] = {}
    for chunk in problem.chunks:
        if chunk.chunk_id not in fixed_chunks:
            usable = sorted(c for c in chunk.available if caps.get(c, 0.0) > 0)
            pooled.setdefault(tuple(usable), []).append(chunk)
    pools = [
        (usable, [ch.share_size for ch in members])
        for usable, members in pooled.items()
    ]
    flows = _min_makespan_flow(
        [(usable, sum(sizes)) for usable, sizes in pools],
        problem.t, dict(caps), fixed_loads,
    )
    loads = {c: fixed_loads.get(c, 0.0) for c in problem.csps}
    d: dict[tuple[str, str], float] = {}
    for (usable, sizes), row in zip(pools, flows):
        for c, v in zip(usable, row):
            loads[c] += v
        split = _wrap_around(sizes, row, problem.t)
        for chunk, fracs in zip(pooled[usable], split):
            for c, frac in zip(usable, fracs):
                d[(chunk.chunk_id, c)] = frac
    y, betas = optimal_bandwidth_allocation(
        loads, dict(caps), problem.client_cap
    )
    return FractionalSolution(d=d, loads=loads, bandwidths=betas, y=y)


def _sums_to_t(
    chunks: list[ChunkDownload], d: dict[tuple[str, str], float], t: int
) -> bool:
    """Whether every chunk's fractions sum to ``t`` (within 1e-6)."""
    totals = {chunk.chunk_id: 0.0 for chunk in chunks}
    for (chunk_id, _), frac in d.items():
        totals[chunk_id] += frac
    return all(abs(total - t) <= 1e-6 for total in totals.values())


def solve_fractional_convexified(
    problem: DownloadProblem,
    fixed_loads: dict[str, float] | None = None,
    fixed_chunks: set[str] | None = None,
) -> FractionalSolution:
    """The paper's convexified program, solved with SLSQP.

    Variables are ``d`` (per usable chunk/CSP pair), ``beta`` (per CSP)
    and ``y``; constraints use the linear over-estimator
    ``D-hat(d) = 3^(1/4) d / 2 + 3^(-1/4) / 2`` so that
    ``sum_r b_r D-hat^2 <= y beta_c`` implies the true constraint.
    """
    # scipy is needed by this ablation engine only; import it lazily
    from scipy import optimize

    fixed_loads = fixed_loads or {}
    fixed_chunks = fixed_chunks or set()
    chunks, csps, csp_index, var_index = _index_problem(problem, fixed_chunks)
    if not chunks:
        return solve_fractional_exact(problem, fixed_loads, fixed_chunks)
    n_d = len(var_index)
    n_c = len(csps)
    n_vars = n_d + n_c + 1
    y_col = n_d + n_c
    sizes = {ch.chunk_id: ch.share_size for ch in chunks}

    def beta_col(csp: str) -> int:
        return n_d + csp_index[csp]

    def objective(x: np.ndarray) -> float:
        return x[y_col]

    def objective_grad(x: np.ndarray) -> np.ndarray:
        g = np.zeros(n_vars)
        g[y_col] = 1.0
        return g

    constraints = []
    # per-CSP: y * beta_c - sum_r b_r Dhat(d_rc)^2 - F_c >= 0
    for csp in csps:
        members = [
            (i, sizes[chunk_id])
            for (chunk_id, c2), i in var_index.items()
            if c2 == csp
        ]
        f_c = fixed_loads.get(csp, 0.0)
        if not members and f_c == 0.0:
            continue
        bc = beta_col(csp)

        def make(members=members, bc=bc, f_c=f_c):
            def fun(x: np.ndarray) -> float:
                acc = x[y_col] * x[bc] - f_c
                for i, size in members:
                    dhat = DHAT_SLOPE * x[i] + DHAT_INTERCEPT
                    acc -= size * dhat * dhat
                return acc

            return fun

        constraints.append({"type": "ineq", "fun": make()})
    # client cap: beta - sum beta_c >= 0
    constraints.append(
        {
            "type": "ineq",
            "fun": lambda x: problem.client_cap - x[n_d : n_d + n_c].sum(),
        }
    )
    # per-chunk: sum_c d_rc == t
    for chunk in chunks:
        idxs = [
            var_index[(chunk.chunk_id, c)]
            for c in chunk.available
            if (chunk.chunk_id, c) in var_index
        ]

        def make_eq(idxs=idxs):
            return lambda x: x[idxs].sum() - problem.t

        constraints.append({"type": "eq", "fun": make_eq()})

    bounds = (
        [(0.0, 1.0)] * n_d
        + [(0.0, problem.link_caps.get(c, 0.0)) for c in csps]
        + [(0.0, None)]
    )
    x0 = np.zeros(n_vars)
    for chunk in chunks:
        usable = [
            c for c in chunk.available if (chunk.chunk_id, c) in var_index
        ]
        for c in usable:
            x0[var_index[(chunk.chunk_id, c)]] = problem.t / len(usable)
    total_cap = sum(problem.link_caps.get(c, 0.0) for c in csps)
    scale = min(1.0, problem.client_cap / total_cap) if total_cap else 1.0
    for c in csps:
        x0[beta_col(c)] = problem.link_caps.get(c, 0.0) * scale
    x0[y_col] = 1.0
    res = optimize.minimize(
        objective,
        x0,
        jac=objective_grad,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-9},
    )
    d = {key: float(np.clip(res.x[i], 0.0, 1.0)) for key, i in var_index.items()}
    # SLSQP status 8 (positive directional derivative in the line search)
    # and 9 (iteration limit) can stop on a usable iterate: keep it when
    # its clipped d is a valid assignment, as loads and y come from d
    if not res.success and not (
        res.status in (8, 9) and _sums_to_t(chunks, d, problem.t)
    ):
        raise SelectionError(
            f"convexified solve failed (SLSQP status {res.status}): "
            f"{res.message}"
        )
    loads = {c: fixed_loads.get(c, 0.0) for c in csps}
    for (chunk_id, csp), frac in d.items():
        loads[csp] += sizes[chunk_id] * frac
    y, betas = optimal_bandwidth_allocation(
        loads, dict(problem.link_caps), problem.client_cap
    )
    return FractionalSolution(d=d, loads=loads, bandwidths=betas, y=y)
