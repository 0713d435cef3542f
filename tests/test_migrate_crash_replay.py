"""Crash replay for every re-dispersal that journals a ``migrate`` intent.

Lazy migration on ``get`` (a placement sits on a failed CSP) and scrub
repair both re-disperse through :func:`repro.core.migration.redisperse`,
which brackets the share PUTs as a ``migrate`` intent.  (Debt repair,
the third writer, has its own kill-point sweep in
``test_redundancy_repair.py``.)  Here the client dies at a
re-dispersal PUT, and a fresh client over the same providers and
journal must:

* adopt into its chunk table every share of the open intent that
  landed before the crash (recovery replay);
* find no orphan share objects in a following scrub;
* read the file back bit-exact.

The world has six providers and (t, n) = (2, 4).  The two providers
holding indices 0 and 1 of the first chunk re-dispersed are marked
failed, so that chunk's re-dispersal is one batch of two PUTs to the
two providers that hold nothing of it.  The sweep arms a crash at the
first upload to each provider in turn; the one armed at the second PUT
of that batch leaves the first PUT landed inside the open intent.
"""

from __future__ import annotations

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.faults.plan import SimulatedCrash
from repro.recovery import IntentJournal
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

CONFIG = dict(key="replay-key", t=2, n=4, **SMALL_CHUNKS)
CSPS = [f"csp{i}" for i in range(6)]
NAME = "cold.bin"


def _client(providers, world, clock, client_id):
    engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
    return CyrusClient.create(
        providers, CyrusConfig(**CONFIG), client_id=client_id,
        engine=engine,
        journal=IntentJournal(world / "journal.jsonl", clock=clock,
                              fsync=False),
    )


def _lazy_migration(victim) -> None:
    victim.get(NAME, sync_first=False)


def _scrub_repair(victim) -> None:
    victim.scrub()


def _first_node_chunk(client) -> str:
    return client.tree.latest(NAME).chunks[0].chunk_id


def _first_sorted_chunk(client) -> str:
    return sorted(client.chunk_table.all_chunk_ids())[0]


WRITERS = {
    # get() re-disperses chunks in the file's chunk order
    "lazy-migration": (_lazy_migration, _first_node_chunk),
    # scrub walks the chunk table in sorted chunk-id order
    "scrub-repair": (_scrub_repair, _first_sorted_chunk),
}


def _open_migrate_moves(world) -> list[tuple[str, int, str, str]]:
    """(chunk, index, csp, object) of every move of an open intent."""
    journal = IntentJournal(world / "journal.jsonl", fsync=False)
    moves = []
    for intent in journal.incomplete():
        if intent.op != "migrate":
            continue
        begin = intent.first("begin")
        for index, csp, obj in begin.fields["moves"]:
            moves.append((begin.fields["chunk"], index, csp, obj))
    return moves


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_crash_at_redispersal_put_replays(tmp_path, fault_seed, writer):
    run_writer, pick_chunk = WRITERS[writer]
    data = deterministic_bytes(3000, seed=fault_seed)
    crashed = adopted = 0
    for target in CSPS:
        world = tmp_path / target
        world.mkdir()
        inner = [InMemoryCSP(csp) for csp in CSPS]
        by_id = {p.csp_id: p for p in inner}
        _client(inner, world, SimClock(), "writer").put(NAME, data)

        # the victim dies at its first upload to ``target``
        clock = SimClock(start=100.0)
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CRASH, ops=("upload",),
                       csp_ids=(target,), max_hits=1)],
            seed=fault_seed,
        )
        victim = _client([FaultyProvider(p, plan, clock=clock)
                          for p in inner], world, clock, "victim")
        victim.sync()
        holders = dict(victim.chunk_table.get(pick_chunk(victim)).placements)
        victim.cloud.mark_failed(holders[0])
        victim.cloud.mark_failed(holders[1])
        try:
            run_writer(victim)
        except SimulatedCrash:
            crashed += 1
        del victim

        landed = [
            (chunk, index, csp)
            for chunk, index, csp, obj in _open_migrate_moves(world)
            if obj in by_id[csp]._objects
        ]
        survivor = _client(inner, world, SimClock(start=1000.0),
                           "survivor")
        recovery = survivor.run_recovery()
        assert recovery.incomplete_remaining == 0
        for chunk, index, csp in landed:
            assert (index, csp) in \
                survivor.chunk_table.get(chunk).placements, (
                    f"crash at {target}: landed share {index}@{csp} "
                    f"not adopted"
                )
        adopted += len(landed)
        assert recovery.placements_adopted == len(landed)

        survivor.sync()
        scrub = survivor.scrub(repair=False)
        assert scrub.orphans == (), f"crash at {target}: orphans"
        assert scrub.unrecoverable_chunks == ()
        assert scrub.shares_corrupt == 0
        assert survivor.get(NAME).data == data
        assert survivor.run_recovery().clean
    # the sweep reached the re-dispersal PUTs and left a landed share
    # inside an open intent at least once
    assert crashed >= 1
    assert adopted >= 1
