"""Re-dispersal repair: drain the debt ledger back to full redundancy.

A debt names a chunk holding fewer than ``n`` verifiable shares — or,
for ``kind == "meta"`` entries, a metadata node with missing, stale or
corrupt scattered shares.  The repair loop turns each one back into a
fully dispersed object using only machinery that already exists for
migration:

1. **Re-derive the deficit** from the global chunk table — the ledger
   entry's ``missing`` list is advisory; the placements adopted by
   recovery replay or scrub since the debt was recorded are the truth.
   A share only counts toward redundancy if its CSP is ACTIVE, its
   breaker is not open, and the CSP is not one of the entry's suspects
   (a provider that failed the original write or returned a corrupt
   share never satisfies the target, even if the table still lists it).
2. **Regenerate** the chunk from ``t`` healthy shares, falling back to
   the other healthy shares when those ``t`` do not verify against the
   chunk's content hash (:func:`repro.core.migration.regenerate`, the
   path lazy migration, scrub and read-repair share).
3. **Re-disperse** the missing indices onto health-filtered replacement
   CSPs through :func:`repro.core.migration.redisperse`, which journals
   them as a ``migrate`` intent first, so a crash between upload and
   debt retirement replays like any crashed migration: recovery adopts
   the landed shares, and the next repair tick finds the chunk whole
   and retires the debt with zero transfers — the idempotency the
   kill-point tests sweep.
4. **Retire** the debt; a failed attempt instead records an ``attempt``
   so the entry backs off exponentially while the fleet is unhealthy.

Metadata debts follow the same shape with fixed slots instead of
replacement CSPs: the node plaintext is recovered from the local tree
(or a verified quorum fetch — any t healthy shares), the damaged slots
are re-framed in fresh authenticated envelopes, and the re-uploads are
journaled as a ``meta-repair`` intent.  Slot names are fixed per node
and index, so a kill point between upload and retirement replays as an
idempotent overwrite — never a duplicate share.

The ``budget_shares`` budget counts share *transfers* (downloads +
uploads), the same unit the scrub budget uses, so a
:class:`repro.core.daemon.SyncDaemon` tick can bound both with one
knob's worth of provider traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cloud import CSPStatus
from repro.core.migration import redisperse, regenerate
from repro.core.transfer import OpKind, TransferOp
from repro.errors import CyrusError
from repro.obs import span_if
from repro.redundancy.ledger import (
    DEBT_OPEN,
    DEBT_RETIRED,
    DebtEntry,
    DebtLedger,
    REPAIR_SHARES,
)


@dataclass
class RepairReport:
    """What one repair slice saw and fixed."""

    debts_seen: int = 0
    debts_retired: int = 0
    debts_deferred: int = 0  # backoff not yet elapsed
    debts_failed: int = 0  # attempted, still open (backoff bumped)
    debts_open: int = 0  # ledger size after the slice
    shares_rebuilt: int = 0
    transfers_used: int = 0
    budget_exhausted: bool = False
    unrecoverable_chunks: tuple[str, ...] = ()

    @property
    def drained(self) -> bool:
        """No open debt remains after this slice."""
        return self.debts_open == 0


def run_repair(
    client,
    ledger: DebtLedger | None = None,
    budget_shares: int | None = None,
    journal=None,
    backoff_base: float = 30.0,
    backoff_multiplier: float = 2.0,
    backoff_max: float = 3600.0,
) -> RepairReport:
    """One re-dispersal pass (or budget-limited slice) over the ledger.

    ``budget_shares`` caps share downloads + uploads (None = unbounded);
    entries still inside their backoff window are skipped without cost.
    """
    if ledger is None:
        ledger = getattr(client, "debt_ledger", None)
    report = RepairReport()
    if ledger is None:
        return report
    if journal is None:
        journal = getattr(client, "journal", None)
    obs = client.obs
    budget = [budget_shares if budget_shares is not None else None]
    unrecoverable: list[str] = []
    with span_if(obs, "repair", budget=budget_shares or 0):
        now = client.engine.clock.now()
        for entry in ledger.open_debts():
            report.debts_seen += 1
            if entry.next_due(backoff_base, backoff_multiplier,
                              backoff_max) > now:
                report.debts_deferred += 1
                continue
            if budget[0] is not None and budget[0] <= 0:
                report.budget_exhausted = True
                break
            outcome = _repair_entry(client, ledger, entry, journal,
                                    budget, report, unrecoverable)
            if outcome == "retired":
                report.debts_retired += 1
                obs.metrics.inc(DEBT_RETIRED)
            elif outcome == "failed":
                report.debts_failed += 1
            elif outcome == "budget":
                report.budget_exhausted = True
                break
        report.unrecoverable_chunks = tuple(unrecoverable)
        report.debts_open = len(ledger)
        obs.metrics.set_gauge(DEBT_OPEN, report.debts_open)
        obs.metrics.inc(REPAIR_SHARES, report.shares_rebuilt)
    return report


def _usable(client, csp_id: str, suspects: set[str]) -> bool:
    """May a share at this CSP count toward the redundancy target?"""
    if csp_id in suspects:
        return False
    try:
        status = client.cloud.status_of(csp_id)
    except KeyError:
        return False
    return status is CSPStatus.ACTIVE and client.health.is_live(csp_id)


def _repair_entry(client, ledger: DebtLedger, entry: DebtEntry, journal,
                  budget, report: RepairReport,
                  unrecoverable: list[str]) -> str:
    """Repair one debt; returns retired | failed | budget."""
    if entry.kind == "meta":
        return _repair_meta_entry(client, ledger, entry, journal,
                                  budget, report, unrecoverable)
    location = client.chunk_table.get(entry.chunk_id)
    if location is None:
        # the chunk was garbage-collected (or never published); the
        # deficit is moot
        ledger.retire(entry.debt_id)
        return "retired"
    suspects = set(entry.failed_csps)
    healthy: dict[int, str] = {}  # index -> one usable csp holding it
    for index, csp_id in sorted(location.placements):
        if index not in healthy and _usable(client, csp_id, suspects):
            healthy[index] = csp_id
    deficit = [i for i in range(location.n) if i not in healthy]
    if not deficit:
        # already whole — a prior repair landed and crashed before
        # retirement, or scrub/recovery fixed it first.  Zero transfers.
        ledger.retire(entry.debt_id)
        return "retired"
    if len(healthy) < location.t:
        # cannot reconstruct yet; wait for providers to come back
        ledger.note_attempt(
            entry.debt_id,
            detail=f"only {len(healthy)} healthy shares, need t={location.t}",
        )
        return "failed"
    # plan replacement targets for every missing index
    holding = set(healthy.values())
    dead = {
        c for c in client.cloud.writable_csps()
        if not client.health.is_live(c)
    }
    moves: list[tuple[int, str]] = []
    for index in deficit:
        target = client.cloud.replacement_csp(
            entry.chunk_id, holding=holding, exclude=suspects | dead,
        )
        if target is None:
            # every non-suspect is holding a share or down.  A suspect
            # that is healthy *now* may receive a freshly regenerated
            # share: the distrust covers bytes it already holds (failed
            # or corrupt), not bytes we are about to write — without
            # this, a (t, n) = (t, #CSPs) deployment could never retire
            # a degraded-write debt, because the missing share's only
            # possible home is the provider that failed the write.
            target = client.cloud.replacement_csp(
                entry.chunk_id, holding=holding, exclude=dead,
            )
        if target is None:
            break  # no live CSP left for further indices
        moves.append((index, target))
        holding.add(target)
    if not moves:
        ledger.note_attempt(
            entry.debt_id,
            detail=f"no replacement CSP for indices {deficit}",
        )
        return "failed"
    # budget: t downloads to reconstruct + one upload per regenerated
    # share up front; when those t shares do not verify (one is corrupt
    # or a GET failed), the fallback fetches further healthy shares
    # with whatever budget is left
    holders = sorted(healthy.items())
    cost = location.t + len(moves)
    if budget[0] is not None and budget[0] < cost:
        return "budget"
    spare = holders[location.t:]
    if budget[0] is not None:
        spare = spare[:budget[0] - cost]
    regen = regenerate(client.engine, client.config.key, location,
                       holders[:location.t], spare)
    if regen.plaintext is None:
        _spend(budget, report, regen.gets)
        unrecoverable.append(entry.chunk_id)
        ledger.note_attempt(
            entry.debt_id,
            detail=(f"no verifying t-subset among "
                    f"{len(regen.shares)} fetched shares"),
        )
        return "failed"
    _spend(budget, report, regen.gets + len(moves))
    landed = sum(redisperse(client.engine, client.config.key, location,
                            regen.plaintext, moves, client.chunk_table,
                            journal))
    report.shares_rebuilt += landed
    if landed == len(deficit):
        ledger.retire(entry.debt_id)
        return "retired"
    ledger.note_attempt(
        entry.debt_id,
        detail=f"re-dispersed {landed}/{len(deficit)} missing shares",
    )
    return "failed"


def _spend(budget, report: RepairReport, transfers: int) -> None:
    """Charge share transfers to the slice's budget and report."""
    if budget[0] is not None:
        budget[0] -= transfers
    report.transfers_used += transfers


def _repair_meta_entry(client, ledger: DebtLedger, entry: DebtEntry, journal,
                       budget, report: RepairReport,
                       unrecoverable: list[str]) -> str:
    """Re-disperse one metadata node's damaged slots.

    Unlike chunk repair there is no replacement placement: metadata
    slot i lives at provider i forever, so healing means overwriting
    the fixed object name with a freshly framed share — idempotent
    under any kill point, and incapable of creating duplicates.
    """
    from repro.metadata.codec import metadata_share_name

    node_id = entry.chunk_id
    store = client.store
    suspects = set(entry.failed_csps)
    # census the fixed slots: which hold an object on a reachable provider
    reachable: set[int] = set()
    present: set[int] = set()
    for index, provider in enumerate(store.providers):
        name = metadata_share_name(node_id, index)
        try:
            infos = provider.list(prefix=name)
        except CyrusError:
            continue  # slot down; cannot verify or write there now
        reachable.add(index)
        if any(info.name == name for info in infos):
            present.add(index)
    try:
        node = client.tree.get(node_id)
    except CyrusError:
        node = None
    fetch_cost = 0
    if node is None:
        if len(reachable) == store.m and not present:
            # gone from every (reachable = all) slot and unknown to the
            # tree: the node was pruned; the deficit is moot
            ledger.retire(entry.debt_id)
            return "retired"
        # reconstruct from any verified t-quorum of the surviving shares
        cost = len(present)
        if budget[0] is not None and budget[0] < cost:
            return "budget"
        try:
            node = store.fetch(node_id)
        except CyrusError as exc:
            unrecoverable.append(node_id)
            ledger.note_attempt(
                entry.debt_id,
                detail=f"no verified quorum among {len(present)} shares: {exc}",
            )
            return "failed"
        fetch_cost = cost
    # a slot needs re-dispersal when its object is missing, was flagged
    # in the debt (stale or corrupt at detection time), or sits on a
    # suspect provider — fresh bytes overwrite whatever the liar holds
    advisory = set(entry.missing)
    need: list[int] = []
    unwritable_bad = 0
    for index, provider in enumerate(store.providers):
        bad = (index not in present or index in advisory
               or provider.csp_id in suspects)
        if not bad:
            continue
        if index in reachable:
            need.append(index)
        else:
            unwritable_bad += 1
    if not need and unwritable_bad == 0:
        # healed elsewhere (another client's repair or republish)
        ledger.retire(entry.debt_id)
        return "retired"
    cost = fetch_cost + len(need)
    if budget[0] is not None and budget[0] < cost:
        return "budget"
    _spend(budget, report, cost)
    frames = {
        index: (prov.csp_id, name, blob)
        for prov, name, blob, index in store.frames_for(node)
    }
    intent_id = None
    if journal is not None:
        from repro.metadata.codec import encode_node

        intent_id = journal.begin(
            "meta-repair", node_id=node_id,
            node=encode_node(node).decode("utf-8"),
            slots=[[index, frames[index][0], frames[index][1]]
                   for index in need],
        )
    results = client.engine.execute([
        TransferOp(kind=OpKind.PUT_META, csp_id=frames[index][0],
                   name=frames[index][1], data=frames[index][2])
        for index in need
    ])
    landed = 0
    for index, result in zip(need, results):
        if not result.ok:
            continue
        if intent_id is not None:
            journal.record(intent_id, "share-uploaded", index=index,
                           csp=frames[index][0], object=frames[index][1])
        landed += 1
        report.shares_rebuilt += 1
    if intent_id is not None:
        journal.commit(intent_id)
    if landed == len(need) and unwritable_bad == 0:
        ledger.retire(entry.debt_id)
        return "retired"
    ledger.note_attempt(
        entry.debt_id,
        detail=(f"re-dispersed {landed}/{len(need)} metadata shares "
                f"({unwritable_bad} slot(s) unreachable)"),
    )
    return "failed"
