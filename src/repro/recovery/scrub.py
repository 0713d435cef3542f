"""Anti-entropy scrub: find and repair share damage before a read does.

The paper repairs lazily — a download that notices a share stranded on
a dead CSP regenerates it (Section 5.5) — which means a file nobody
reads silently decays as providers fail.  The scrub promotes that
repair into a proactive pass over the :class:`GlobalChunkTable`:

1. **Census** (one ``list`` per active CSP, no data transfer): build
   the ground-truth object inventory, adopt shares the table does not
   know about (a crashed migration that landed), flag *orphans* —
   share-shaped objects no known chunk accounts for — and flag
   recorded placements whose object is gone.
2. **Verify + repair** (budgeted): walk chunks round-robin from a
   persistent cursor; for each, download its present shares, find a
   verifying ``t``-subset against the chunk's content hash, and
   re-upload every index that is missing, corrupt, or stranded on an
   unusable CSP — in place when the recorded CSP is healthy, onto a
   consistent-hash replacement otherwise.  Fetch-and-decode and the
   re-upload are :mod:`repro.core.migration`'s ``regenerate`` and
   ``redisperse``, so repairs are journaled as ``migrate`` intents and
   a crash mid-repair is recovered like any other migration.

The budget counts share *transfers* (downloads + uploads), the unit
that actually costs money and time at a provider; a
:class:`Scrubber` carries the cursor between slices so a small
per-tick budget still covers the whole table eventually.

Orphans are reported, not deleted, by default: a concurrent client
mid-``put`` has (by design) shares on CSPs before any metadata names
them, and only the operator can rule that out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.migration import redisperse, regenerate
from repro.core.naming import chunk_share_object_name
from repro.core.transfer import OpKind, TransferOp
from repro.core.uploader import get_sharer
from repro.errors import CSPError, CyrusError
from repro.metadata.codec import unpack_meta_share
from repro.metadata.store import META_CORRUPT_SHARES
from repro.obs import span_if

#: Metric names (mirrors the repro.obs constant style).
SCRUB_SHARES_VERIFIED = "cyrus_scrub_shares_verified_total"
SCRUB_SHARES_REPAIRED = "cyrus_scrub_shares_repaired_total"
SCRUB_ORPHANS_FOUND = "cyrus_scrub_orphans_total"

#: Chunk-share object names are bare 40-hex digests (see repro.core.naming).
_SHARE_NAME = re.compile(r"^[0-9a-f]{40}$")


@dataclass
class ScrubReport:
    """What one scrub slice saw and fixed."""

    chunks_total: int = 0
    chunks_scanned: int = 0
    shares_verified: int = 0
    shares_missing: int = 0
    shares_corrupt: int = 0
    shares_repaired: int = 0
    placements_adopted: int = 0
    orphans: tuple[tuple[str, str], ...] = ()  # (csp, object)
    orphans_deleted: int = 0
    unrecoverable_chunks: tuple[str, ...] = ()
    unreachable_csps: tuple[str, ...] = ()
    cursor: int = 0
    budget_exhausted: bool = False
    # metadata plane census + verify
    meta_nodes_scanned: int = 0
    meta_shares_verified: int = 0
    meta_shares_missing: int = 0
    meta_shares_corrupt: int = 0
    meta_debts_recorded: int = 0
    meta_cursor: int = 0

    @property
    def complete(self) -> bool:
        return self.chunks_scanned >= self.chunks_total

    @property
    def healthy(self) -> bool:
        return (not self.unrecoverable_chunks and not self.orphans
                and self.shares_missing == self.shares_repaired == 0
                and self.shares_corrupt == 0
                and self.meta_shares_missing == 0
                and self.meta_shares_corrupt == 0)


def run_scrub(
    client,
    budget_shares: int | None = None,
    cursor: int = 0,
    repair: bool = True,
    delete_orphans: bool = False,
    journal=None,
    meta_cursor: int = 0,
    scrub_metadata: bool = True,
) -> ScrubReport:
    """One scrub pass (or budget-limited slice) over the chunk table.

    ``budget_shares`` caps share downloads + repair uploads (None =
    unbounded, i.e. a full-table integrity pass); ``cursor`` is where
    in the (sorted) chunk list to start, taken from the previous
    slice's report.  With ``repair=False`` the pass only reports.

    With ``scrub_metadata`` (the default) the pass also runs a census +
    budgeted verify over the metadata plane from ``meta_cursor``:
    every known node's shares are checked against the per-slot listings
    and, within a metadata budget of the same size (a separate pool, so
    neither plane starves the other), downloaded and compared to
    regenerated truth.
    Damage becomes ``meta`` repair debts — re-dispersal itself is
    :func:`repro.redundancy.repair.run_repair`'s job — and corrupt
    shares are attributed to their CSP exactly like a decode-time
    verification failure.
    """
    if journal is None:
        journal = getattr(client, "journal", None)
    report = ScrubReport(cursor=cursor)
    obs = client.obs
    with span_if(obs, "scrub", budget=budget_shares or 0):
        listings, unreachable = _census(client)
        report.unreachable_csps = tuple(sorted(unreachable))
        chunk_ids = sorted(client.chunk_table.all_chunk_ids())
        report.chunks_total = len(chunk_ids)
        report.placements_adopted = _adopt_placements(client, listings)
        report.orphans = _find_orphans(client, listings, chunk_ids)
        if report.orphans:
            obs.metrics.inc(SCRUB_ORPHANS_FOUND, len(report.orphans))
        if delete_orphans and report.orphans:
            report.orphans_deleted = _delete_orphans(client, report.orphans)
        # round-robin verification slice from the cursor
        budget = [budget_shares if budget_shares is not None else None]
        # the metadata pass gets its own budget pool of the same size:
        # metadata shares are tiny, and sharing one pool would let
        # either plane starve the other's sweep indefinitely
        if scrub_metadata:
            meta_budget = [budget_shares]
            report.meta_cursor = _scrub_metadata(
                client, listings, unreachable, meta_budget, report,
                meta_cursor,
            )
        else:
            report.meta_cursor = meta_cursor
        start = cursor % len(chunk_ids) if chunk_ids else 0
        rotation = chunk_ids[start:] + chunk_ids[:start]
        unrecoverable: list[str] = []
        scanned = 0
        for chunk_id in rotation:
            if budget[0] is not None and budget[0] <= 0:
                report.budget_exhausted = True
                break
            _scrub_chunk(client, chunk_id, listings, unreachable, budget,
                         repair, journal, report, unrecoverable)
            scanned += 1
        report.chunks_scanned = scanned
        report.cursor = ((start + scanned) % len(chunk_ids)
                         if chunk_ids else 0)
        report.unrecoverable_chunks = tuple(unrecoverable)
        obs.metrics.inc(SCRUB_SHARES_VERIFIED, report.shares_verified)
        obs.metrics.inc(SCRUB_SHARES_REPAIRED, report.shares_repaired)
    return report


@dataclass
class Scrubber:
    """Cursor-carrying scrub driver for periodic slices.

    One instance per client: each :meth:`run_slice` continues where the
    previous one stopped, so a :class:`repro.core.daemon.SyncDaemon`
    tick with a small budget still sweeps the whole table over enough
    ticks.
    """

    client: object
    budget_shares: int | None = 64
    repair: bool = True
    delete_orphans: bool = False
    cursor: int = field(default=0)
    scrub_metadata: bool = True
    meta_cursor: int = field(default=0)

    def run_slice(self) -> ScrubReport:
        report = run_scrub(
            self.client, budget_shares=self.budget_shares,
            cursor=self.cursor, repair=self.repair,
            delete_orphans=self.delete_orphans,
            meta_cursor=self.meta_cursor,
            scrub_metadata=self.scrub_metadata,
        )
        self.cursor = report.cursor
        self.meta_cursor = report.meta_cursor
        return report


# -- phase 1: census -------------------------------------------------------


def _census(client) -> tuple[dict[str, set[str]], set[str]]:
    """One listing per active CSP: {csp: object names}, unreachable set."""
    listings: dict[str, set[str]] = {}
    unreachable: set[str] = set()
    for csp_id in client.cloud.active_csps():
        try:
            listings[csp_id] = {
                info.name for info in client.cloud.provider(csp_id).list(prefix="")
            }
        except CSPError:
            unreachable.add(csp_id)
    return listings, unreachable


def _expected_names(client, chunk_ids) -> dict[str, tuple[str, int]]:
    """Every share object name any known chunk could legitimately have."""
    expected: dict[str, tuple[str, int]] = {}
    for chunk_id in chunk_ids:
        location = client.chunk_table.get(chunk_id)
        for index in range(location.n):
            expected[chunk_share_object_name(index, chunk_id)] = (
                chunk_id, index,
            )
    return expected


def _adopt_placements(client, listings) -> int:
    """Record shares that exist on disk but not in the table (e.g. a
    migration that crashed after its upload landed)."""
    adopted = 0
    expected = _expected_names(client, client.chunk_table.all_chunk_ids())
    for csp_id, names in listings.items():
        for name in names:
            hit = expected.get(name)
            if hit is None:
                continue
            chunk_id, index = hit
            location = client.chunk_table.get(chunk_id)
            if (index, csp_id) not in location.placements:
                client.chunk_table.add_placement(chunk_id, index, csp_id)
                adopted += 1
    return adopted


def _find_orphans(client, listings, chunk_ids) -> tuple[tuple[str, str], ...]:
    """Share-shaped objects no known chunk accounts for."""
    expected = _expected_names(client, chunk_ids)
    orphans: list[tuple[str, str]] = []
    for csp_id in sorted(listings):
        for name in sorted(listings[csp_id]):
            if _SHARE_NAME.match(name) and name not in expected:
                orphans.append((csp_id, name))
    return tuple(orphans)


def _delete_orphans(client, orphans) -> int:
    results = client.engine.execute([
        TransferOp(kind=OpKind.DELETE, csp_id=csp_id, name=name)
        for csp_id, name in orphans
    ])
    return sum(1 for r in results if r.ok)


# -- phase 1.5: metadata census + verify -----------------------------------


def _scrub_metadata(client, listings, unreachable, budget, report,
                    meta_cursor) -> int:
    """Walk known nodes round-robin; verify their shares within budget.

    Returns the next metadata cursor.  Reuses the census listings (the
    per-CSP ``list(prefix="")`` already covers ``md-*`` objects), so
    the missing-share check is free; only the byte-level verify spends
    budget.
    """
    node_ids = sorted(client.tree.node_ids())
    if not node_ids:
        return 0
    start = meta_cursor % len(node_ids)
    rotation = node_ids[start:] + node_ids[:start]
    scanned = 0
    for node_id in rotation:
        if budget[0] is not None and budget[0] <= 0:
            report.budget_exhausted = True
            break
        _scrub_node_shares(client, node_id, listings, budget, report)
        scanned += 1
    report.meta_nodes_scanned = scanned
    return (start + scanned) % len(node_ids)


def _scrub_node_shares(client, node_id, listings, budget, report) -> None:
    store = client.store
    try:
        node = client.tree.get(node_id)
    except CyrusError:
        return
    missing: set[int] = set()
    corrupt_csps: set[str] = set()
    # (csp, name, index, true payload bytes) per judgeable slot
    probe: list[tuple[str, str, int, bytes]] = []
    for provider, name, share in store.shares_for(node):
        csp_id = provider.csp_id
        if csp_id not in listings:
            continue  # unlisted slot this pass: no verdict
        if name not in listings[csp_id]:
            report.meta_shares_missing += 1
            missing.add(share.index)
            continue
        probe.append((csp_id, name, share.index, share.data))
    if budget[0] is not None:
        probe = probe[:max(0, budget[0])]
        budget[0] -= len(probe)
    ops = [
        TransferOp(kind=OpKind.GET_META, csp_id=csp_id, name=name)
        for csp_id, name, _index, _truth in probe
    ]
    for (csp_id, name, index, truth), result in zip(
        probe, client.engine.execute(ops)
    ):
        if not result.ok:
            report.meta_shares_missing += 1
            missing.add(index)
            continue
        report.meta_shares_verified += 1
        try:
            frame = unpack_meta_share(result.data)
            intact = frame.payload_intact() and frame.payload == truth
        except CyrusError:
            intact = False
        if intact:
            continue
        report.meta_shares_corrupt += 1
        missing.add(index)
        corrupt_csps.add(csp_id)
        health = getattr(client, "health", None)
        if health is not None:
            health.record_corruption(
                csp_id,
                detail=f"scrub: metadata {node_id[:8]} share {index} corrupt",
            )
        client.obs.metrics.inc(META_CORRUPT_SHARES, csp=csp_id)
    if missing:
        store._record_meta_debt(node_id, sorted(missing),
                                sorted(corrupt_csps))
        report.meta_debts_recorded += 1


# -- phase 2: verify + repair ----------------------------------------------


def _scrub_chunk(client, chunk_id, listings, unreachable, budget,
                 repair, journal, report, unrecoverable) -> None:
    location = client.chunk_table.get(chunk_id)

    def usable(csp_id: str) -> bool:
        return csp_id in listings  # active and listed this pass

    present: list[tuple[int, str]] = []   # recorded, object exists
    recorded_at: dict[int, str] = {}
    for index, csp_id in location.placements:
        recorded_at.setdefault(index, csp_id)
        name = chunk_share_object_name(index, chunk_id)
        if usable(csp_id) and name in listings[csp_id]:
            present.append((index, csp_id))
        elif usable(csp_id):
            report.shares_missing += 1  # healthy CSP, object gone

    # download the present shares (the integrity half of the check)
    take = present
    if budget[0] is not None:
        take = present[:max(0, budget[0])]
        budget[0] -= len(take)
    regen = regenerate(client.engine, client.config.key, location, take)
    if regen.plaintext is None:
        unrecoverable.append(chunk_id)
        return
    sharer = get_sharer(client.config.key, location.t, location.n)
    # classify each downloaded share against its true bytes
    good: dict[int, str] = {}
    corrupt: list[tuple[int, str]] = []
    for index, csp_id in take:
        if index not in regen.shares:
            report.shares_missing += 1
            continue
        truth = sharer.split_indices(regen.plaintext, [index])[0].data
        report.shares_verified += 1
        if regen.shares[index] == truth:
            good[index] = csp_id
        else:
            report.shares_corrupt += 1
            corrupt.append((index, csp_id))
            # same attribution path as decode-time verification: emit
            # corrupt_share, quarantine repeat offenders
            health = getattr(client, "health", None)
            if health is not None:
                health.record_corruption(
                    csp_id,
                    detail=f"scrub: chunk {chunk_id[:8]} share {index} corrupt",
                )
    if not repair:
        return
    # regenerate every index not verifiably held on a healthy CSP
    moves: list[tuple[int, str]] = []  # (index, target csp)
    holding = set(good.values())
    for index in range(location.n):
        if index in good:
            continue
        target = recorded_at.get(index)
        if target is not None and not usable(target):
            target = None  # stranded on a failed/removed/unlisted CSP
        if target is None:
            target = client.cloud.replacement_csp(
                chunk_id, holding=holding,
                exclude=unreachable | {c for _i, c in corrupt},
            )
        if target is None:
            continue  # no independent healthy CSP left; stays degraded
        moves.append((index, target))
        holding.add(target)
    if not moves:
        return
    if budget[0] is not None:
        moves = moves[:max(0, budget[0])]
        budget[0] -= len(moves)
        if not moves:
            report.budget_exhausted = True
            return
    report.shares_repaired += sum(redisperse(
        client.engine, client.config.key, location, regen.plaintext, moves,
        client.chunk_table, journal,
    ))
