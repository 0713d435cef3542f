"""Property: parallelism is an implementation detail, not a behaviour.

For any workload, running the client on the serial reference engine
(:class:`DirectEngine`) and on the default concurrent engine at
parallelism 1, 2 and 8 must leave the cloud in the same state —
identical object names on every CSP, identical share bytes, identical
chunk tables — and read back identical data.  Concurrency reorders
*when* ops run, never *what* runs or *where* it lands.

Share objects (40-hex chunk-share names) are compared by content hash;
metadata objects by name only, since their payload embeds wall-clock
timestamps that legitimately differ between runs of the same level.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.core.client import CyrusClient  # noqa: E402
from repro.core.config import CyrusConfig  # noqa: E402
from repro.core.transfer import DirectEngine  # noqa: E402
from repro.csp.memory import InMemoryCSP  # noqa: E402
from repro.recovery.scrub import _SHARE_NAME  # noqa: E402
from repro.util.hashing import sha1_hex  # noqa: E402

from tests.conftest import SMALL_CHUNKS  # noqa: E402

LEVELS = (1, 2, 8)


def _run_workload(files: list[bytes], parallelism: int, reference=False):
    """Fresh fleet + client; put every file, read every file back.

    ``reference`` runs on a plain :class:`DirectEngine` instead of the
    engine ``CyrusClient.create`` builds.

    Returns (reads, per-CSP object maps, chunk table) — everything
    that describes the externally observable outcome.
    """
    csps = [InMemoryCSP(f"csp{i}") for i in range(4)]
    config = CyrusConfig(
        key="prop-key", t=2, n=3,
        parallelism=parallelism,
        max_inflight_per_csp=2 if parallelism > 1 else None,
        **SMALL_CHUNKS,
    )
    engine = (DirectEngine({c.csp_id: c for c in csps}) if reference
              else None)
    client = CyrusClient.create(csps, config, client_id="alice",
                                engine=engine)
    try:
        for i, data in enumerate(files):
            client.put(f"file-{i}.bin", data)
        reads = tuple(
            client.get(f"file-{i}.bin").data for i in range(len(files))
        )
    finally:
        client.close()
    objects = {}
    for csp in csps:
        inventory = {}
        for info in csp.list(prefix=""):
            if _SHARE_NAME.match(info.name):
                inventory[info.name] = sha1_hex(csp.download(info.name))
            else:  # metadata: name identity only (payload has timestamps)
                inventory[info.name] = "<meta>"
        objects[csp.csp_id] = inventory
    table = {}
    for chunk_id in client.chunk_table.all_chunk_ids():
        loc = client.chunk_table.get(chunk_id)
        table[chunk_id] = (
            loc.t, loc.n, loc.size, tuple(sorted(loc.placements)),
        )
    return reads, objects, table


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    files=st.lists(
        st.binary(min_size=0, max_size=4096), min_size=1, max_size=3
    )
)
def test_outcome_is_identical_across_parallelism_levels(files):
    baseline = _run_workload(files, parallelism=1)
    base_reads, base_objects, base_table = baseline
    assert base_reads == tuple(files)  # serial round-trip is the oracle
    for level in LEVELS[1:]:
        reads, objects, table = _run_workload(files, parallelism=level)
        assert reads == base_reads, f"parallelism={level} read differs"
        assert table == base_table, f"parallelism={level} chunk table differs"
        assert objects == base_objects, (
            f"parallelism={level} left different objects in the cloud"
        )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    files=st.lists(
        st.binary(min_size=0, max_size=4096), min_size=1, max_size=3
    )
)
def test_async_backend_outcome_matches_serial_reference(files):
    """The concurrent engine is outcome-identical to the serial engine.

    At parallelism=1 this is the bit-for-bit anchor: the engine
    short-circuits to the inherited serial path, so provider state,
    chunk tables and share hashes must match a plain
    :class:`DirectEngine` run exactly.  Higher levels then pin the
    event-loop dispatch path to the same outcome.
    """
    baseline = _run_workload(files, parallelism=1, reference=True)
    base_reads, base_objects, base_table = baseline
    assert base_reads == tuple(files)
    for level in LEVELS:
        reads, objects, table = _run_workload(files, parallelism=level)
        assert reads == base_reads, f"parallelism={level} read differs"
        assert table == base_table, (
            f"parallelism={level} chunk table differs"
        )
        assert objects == base_objects, (
            f"parallelism={level} left different objects in the cloud"
        )
