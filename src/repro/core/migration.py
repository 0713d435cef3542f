"""Share re-dispersal: regenerate a chunk, write its missing shares.

Removing a CSP loses the shares it held.  Re-uploading everything at
once is impractical, so CYRUS migrates *lazily* (paper Section 5.5,
Figure 9): whenever a client downloads a file, it checks where the
file's chunks' shares live; any share on a removed or failed CSP is
regenerated from the just-decoded chunk and uploaded to a fresh
provider.  Corrupt shares are tolerated the same way (Section 5.1):
decode a ``t``-subset that checks out against the chunk's content id.

This module is the one implementation of that operation.  Its two
halves serve every caller — lazy migration, debt repair
(:mod:`repro.redundancy.repair`), scrub repair
(:mod:`repro.recovery.scrub`) and the downloader's read-repair:

* :func:`regenerate` fetches shares and decodes a verifying
  ``t``-subset;
* :func:`redisperse` writes regenerated shares to their targets.  It is
  the only writer of ``migrate`` journal intents, which
  :mod:`repro.recovery.recover` replays after a crash.

Each caller keeps its own target planning and bookkeeping.

Metadata is small, so it is migrated eagerly: :func:`migrate_metadata`
re-publishes every node's missing shares to active metadata slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.cloud import CSPStatus, CyrusCloud
from repro.core.naming import chunk_share_object_name
from repro.core.transfer import OpKind, TransferEngine, TransferOp
from repro.core.uploader import get_sharer
from repro.erasure import Share
from repro.errors import CSPError, CyrusError
from repro.metadata import GlobalChunkTable, MetadataStore, MetadataTree
from repro.metadata.chunktable import ChunkLocation
from repro.util.hashing import sha1_hex


@dataclass(frozen=True)
class ShareMigration:
    """One regenerated share: which index moved where."""

    chunk_id: str
    index: int
    old_csp: str
    new_csp: str


@dataclass
class Regenerated:
    """What :func:`regenerate` fetched and rebuilt for one chunk."""

    #: the verified chunk bytes; None when no t-subset checked out
    plaintext: bytes | None
    #: fetched (and given) share bytes by index
    shares: dict[int, bytes]
    #: share GETs issued
    gets: int


def regenerate(
    engine: TransferEngine,
    key: str,
    chunk,
    holders: Sequence[tuple[int, str]],
    spare: Sequence[tuple[int, str]] = (),
    have: dict[int, bytes] | None = None,
) -> Regenerated:
    """Rebuild one chunk from its shares, verified by content id.

    ``chunk`` is anything with ``chunk_id``, ``t``, ``n`` and ``size``.
    Every ``(index, csp)`` in ``holders`` whose index is not already in
    ``have`` is fetched in one GET batch; then a ``t``-subset whose
    plaintext SHA-1 equals the chunk id is decoded.  When none does,
    the ``spare`` holders of indices not yet fetched are fetched once
    and the search runs again.
    """
    shares = dict(have or {})
    sharer = get_sharer(key, chunk.t, chunk.n)

    def fetch(batch) -> int:
        todo = [(index, csp) for index, csp in batch if index not in shares]
        if todo:
            results = engine.execute([
                TransferOp(kind=OpKind.GET, csp_id=csp,
                           name=chunk_share_object_name(index, chunk.chunk_id),
                           size=max(1, -(-chunk.size // chunk.t)),
                           chunk_id=chunk.chunk_id)
                for index, csp in todo
            ])
            for (index, _csp), result in zip(todo, results):
                if result.ok:
                    shares[index] = result.data
        return len(todo)

    def decode() -> bytes | None:
        try:
            return sharer.join_verified(
                [Share(index=i, data=blob, t=chunk.t, n=chunk.n,
                       chunk_size=chunk.size)
                 for i, blob in sorted(shares.items())],
                verify=lambda plaintext: sha1_hex(plaintext) == chunk.chunk_id,
            )
        except CyrusError:
            return None

    gets = fetch(holders)
    plaintext = decode()
    if plaintext is None and spare:
        gets += fetch(spare)
        plaintext = decode()
    return Regenerated(plaintext=plaintext, shares=shares, gets=gets)


def redisperse(
    engine: TransferEngine,
    key: str,
    chunk,
    plaintext: bytes,
    moves: Sequence[tuple[int, str]],
    chunk_table: GlobalChunkTable,
    journal=None,
) -> list[bool]:
    """Write share ``index`` to ``csp`` for each move; one flag per move.

    With a :class:`repro.recovery.IntentJournal` the writes are
    bracketed as a ``migrate`` intent, so a crash between a share
    landing and the chunk table learning of it is reconciled on
    restart (the share is adopted, not orphaned).  Every landed share
    is added to the chunk table.
    """
    if not moves:
        return []
    names = [chunk_share_object_name(index, chunk.chunk_id)
             for index, _csp in moves]
    intent_id = None
    if journal is not None:
        intent_id = journal.begin("migrate", chunk=chunk.chunk_id, moves=[
            [index, csp, name] for (index, csp), name in zip(moves, names)
        ])
    sharer = get_sharer(key, chunk.t, chunk.n)
    shares = sharer.split_indices(plaintext, [index for index, _ in moves])
    results = engine.execute([
        TransferOp(kind=OpKind.PUT, csp_id=csp, name=name, data=share.data,
                   chunk_id=chunk.chunk_id)
        for (_index, csp), name, share in zip(moves, names, shares)
    ])
    for (index, csp), name, result in zip(moves, names, results):
        if not result.ok:
            continue
        chunk_table.add_placement(chunk.chunk_id, index, csp)
        if intent_id is not None:
            journal.record(intent_id, "share-uploaded", chunk=chunk.chunk_id,
                           index=index, csp=csp, object=name)
    if intent_id is not None:
        journal.commit(intent_id)
    return [result.ok for result in results]


def plan_chunk_migrations(
    location: ChunkLocation, cloud: CyrusCloud
) -> list[tuple[int, str, str]]:
    """(index, old_csp, new_csp) restoring the chunk to n live shares.

    A chunk should have shares of ``n`` distinct indices on ``n``
    distinct *active* CSPs.  Any index that is not live — its CSP was
    removed, failed, or the share never landed — is regenerated onto an
    active CSP that holds nothing of this chunk, while such CSPs exist.
    """

    def usable(csp: str) -> bool:
        try:
            return cloud.status_of(csp) is CSPStatus.ACTIVE
        except KeyError:
            return False  # a CSP this client has never heard of

    live_indices: set[int] = set()
    holding: set[str] = set()
    stale_owner: dict[int, str] = {}
    for index, csp in location.placements:
        if usable(csp):
            live_indices.add(index)
            holding.add(csp)
        else:
            stale_owner.setdefault(index, csp)
    moves: list[tuple[int, str, str]] = []
    for index in range(location.n):
        if index in live_indices:
            continue
        if len(holding) >= location.n:
            break  # reliability restored; extra indices are unnecessary
        replacement = cloud.replacement_csp(location.chunk_id, holding)
        if replacement is None:
            break  # no independent CSP left; stays degraded for now
        moves.append((index, stale_owner.get(index, "(missing)"), replacement))
        holding.add(replacement)
    return moves


def migrate_chunk_shares(
    chunk_data: bytes,
    location: ChunkLocation,
    cloud: CyrusCloud,
    chunk_table: GlobalChunkTable,
    engine: TransferEngine,
    key: str,
    journal=None,
) -> list[ShareMigration]:
    """Regenerate and upload the planned shares for one decoded chunk.

    Called from the download path (Figure 9): the chunk bytes are
    already in hand, so only the lost indices are re-encoded.  A
    target that refuses its share is marked failed.
    """
    moves = plan_chunk_migrations(location, cloud)
    landed = redisperse(
        engine, key, location, chunk_data,
        [(index, new_csp) for index, _old, new_csp in moves],
        chunk_table, journal,
    )
    migrated: list[ShareMigration] = []
    for (index, old_csp, new_csp), ok in zip(moves, landed):
        if not ok:
            cloud.mark_failed(new_csp)
            continue
        migrated.append(ShareMigration(
            chunk_id=location.chunk_id, index=index,
            old_csp=old_csp, new_csp=new_csp,
        ))
    return migrated


def migrate_metadata(
    store: MetadataStore,
    tree: MetadataTree,
    engine: TransferEngine,
) -> int:
    """Eagerly restore missing metadata shares (Section 5.5).

    For every known node and every *reachable* metadata slot, upload the
    slot's share if the provider does not already hold it.  Returns the
    number of shares written.  Metadata is tiny, so unlike chunk shares
    this is cheap enough to do on demand.
    """
    written = 0
    for node in tree:
        for provider, obj_name, blob, _index in store.frames_for(node):
            try:
                existing = {info.name for info in provider.list(
                    prefix=obj_name
                )}
            except CSPError:
                continue  # slot down; nothing to do
            if obj_name in existing:
                continue
            results = engine.execute(
                [
                    TransferOp(
                        kind=OpKind.PUT_META,
                        csp_id=provider.csp_id,
                        name=obj_name,
                        data=blob,
                    )
                ]
            )
            if results[0].ok:
                written += 1
    return written
