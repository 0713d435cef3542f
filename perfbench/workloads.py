"""The three benchmark workloads, driven only through the public API.

Each workload builds a *pass*: fresh providers, clients and generated
inputs (the timed set-up), then a fixed, seed-determined list of
operations whose wall time is measured one by one, then an untimed
audit of the final state.  The runner repeats passes until its time is
up, giving each pass its own seed derived from the run's seed and the
pass index.

* ``bulk`` — one client, four ``InMemoryCSP``s, unique random files put
  then read back (closed loop, one caller).
* ``edit-sync`` — a writer and a reader device on the paper testbed
  (``build_paper_testbed``: 4 fast + 3 slow simulated clouds), t=2,
  n=4, each with an fsync'd ``IntentJournal`` and a ``DebtLedger``; the
  writer applies small seeded inserts to ~2 MiB documents and puts
  them, the reader gets every new head (closed loop, two callers).
* ``fleet`` — a seeded Zipf/Poisson ``generate_fleet_workload`` plan
  replayed open-loop in arrival order on one ``SimClock`` over six
  shared netsim CSPs, per-tenant ``NamespacedCSP`` views, two
  ``ShardedMetadataStore`` groups and one ``FleetQuota``.

No workload uses ``ParallelEngine``, ``transfer_backend`` or encode
worker processes: every client runs ``parallelism=1`` on one thread.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import (
    CyrusClient,
    CyrusConfig,
    CyrusError,
    DirectEngine,
    FleetQuota,
    FleetWorkloadSpec,
    SimulatedEngine,
    generate_fleet_workload,
)
from repro.bench.testbed import build_paper_testbed
from repro.csp import InMemoryCSP, NamespacedCSP
from repro.csp.namespaced import namespace_prefix
from repro.csp.simulated import SimulatedCSP
from repro.metadata import ShardedMetadataStore
from repro.netsim.link import Link
from repro.recovery import IntentJournal
from repro.redundancy import DebtLedger
from repro.util.clock import SimClock

from perfbench.hostspeed import HostSpeed
from perfbench.tracing import ProviderProxy, Recorder

MiB = 1024 * 1024
#: Client access link of the Section 7.2 testbed: 1 Gbps ethernet.
GIGABIT = 1e9 / 8


def derive_rng(seed: int, *scope: object) -> random.Random:
    """A ``random.Random`` keyed by ``(seed, *scope)`` (SHA-1 derived)."""
    text = ":".join([str(seed), *map(str, scope)]).encode("utf-8")
    digest = hashlib.sha1(text).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sha1_hex(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


@dataclass
class Sample:
    """One timed operation."""

    kind: str  # "put" | "get"
    wall_s: float
    user_bytes: int
    #: ``time.perf_counter()`` when the op started
    start: float = 0.0
    #: ``wall_s`` rescaled to the reference host speed (``hostspeed.py``)
    time_s: float = 0.0
    #: simulated seconds: get = download time (the optimizer's target);
    #: put = from the op's due time until dispersed and published
    sim_s: float | None = None


@dataclass
class PassResult:
    """Everything one pass measured (timings, counts, audit outcome)."""

    setup_s: float = 0.0
    setup_start: float = 0.0
    #: ``setup_s`` rescaled to the reference host speed
    setup_time_s: float = 0.0
    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    stored_bytes: int = 0
    stored_objects: int = 0
    live_bytes: int = 0
    new_chunks: int = 0
    dedup_chunks: int = 0
    bytes_up: int = 0
    put_bytes: int = 0
    #: per get: selector-predicted bottleneck time / simulated get time
    plan_ratios: list[float] = field(default_factory=list)
    #: open loop only: how late an op started after its due time
    lag_max_s: float = 0.0
    spans: list[list] | None = None


class Pass:
    """One set-up plus one run of a workload's operation list."""

    def __init__(self, recorder: Recorder | None, corrupt: bool):
        self.recorder = recorder
        self.corrupt = corrupt
        self.result = PassResult()
        self._next_op = 0
        self._workdir: Path | None = None
        #: set by the runner: takes host speed slices between ops
        self.host: HostSpeed | None = None

    # -- building blocks ----------------------------------------------------

    def wrap_providers(self, raw: list, corrupt_count: int = 0) -> list:
        """Proxies over ``raw`` when tracing or planting a fault.

        With a planted fault the first ``corrupt_count`` providers flip
        a byte of every chunk share they return.
        """
        if self.recorder is None and not self.corrupt:
            return list(raw)
        return [
            ProviderProxy(p, self.recorder,
                          corrupt=self.corrupt and i < corrupt_count)
            for i, p in enumerate(raw)
        ]

    def scratch_dir(self, root: Path) -> Path:
        root.mkdir(parents=True, exist_ok=True)
        self._workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=root))
        return self._workdir

    def timed(self, kind: str, user_bytes: int, fn):
        """Run one op; returns its result, or None when it raised."""
        self.result.attempted += 1
        op_id = self._next_op
        self._next_op += 1
        if self.host is not None:
            self.host.maybe_tick()
        t0 = time.perf_counter()
        try:
            if self.recorder is None:
                out = fn()
            else:
                with self.recorder.op(kind, op_id):
                    out = fn()
        except CyrusError as exc:
            self.fail(f"{kind} #{op_id}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        self.result.samples.append(Sample(kind, wall, user_bytes, t0))
        return out

    def fail(self, message: str) -> None:
        self.result.failures.append(message)

    def note_upload(self, report, size: int) -> None:
        self.result.new_chunks += report.new_chunks
        self.result.dedup_chunks += report.dedup_chunks
        self.result.bytes_up += report.bytes_uploaded
        self.result.put_bytes += size

    def note_plan(self, report) -> None:
        predicted = sum(plan.bottleneck_time for plan in report.plans)
        if report.duration > 0 and predicted > 0:
            self.result.plan_ratios.append(predicted / report.duration)

    def close(self) -> None:
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None


# ---------------------------------------------------------------------------
# bulk


class BulkPass(Pass):
    """Unique random multi-MiB files through one client, no network model."""

    SHAPE = {"files": 12, "file_mib": 2}
    WARMUP = {"files": 2, "file_mib": 1}
    CSPS = 4

    def __init__(self, seed, shape, recorder, corrupt, workroot):
        super().__init__(recorder, corrupt)
        rng = derive_rng(seed, "bulk")
        size = shape["file_mib"] * MiB
        self.files = [
            (f"bulk/{i:03d}.bin", rng.randbytes(size))
            for i in range(shape["files"])
        ]
        self.raw = [InMemoryCSP(f"mem{i}") for i in range(self.CSPS)]
        config = CyrusConfig(key=f"bulk-{seed}", t=2, n=3)
        # corrupting CSPS - t + 1 of the providers leaves every chunk
        # with fewer than t clean shares: more than n - t bad shares
        providers = self.wrap_providers(
            self.raw, corrupt_count=self.CSPS - config.t + 1)
        engine = DirectEngine({p.csp_id: p for p in providers},
                              clock=SimClock())
        self.client = CyrusClient.create(providers, config,
                                         client_id="bulk", engine=engine)

    def run(self) -> None:
        client = self.client
        for name, data in self.files:
            report = self.timed(
                "put", len(data),
                lambda: client.put(name, data, sync_first=False))
            if report is not None:
                self.note_upload(report, len(data))
        for name, data in self.files:
            report = self.timed(
                "get", len(data),
                lambda: client.get(name, sync_first=False))
            if report is not None and report.data != data:
                self.fail(f"get {name}: bytes differ from what was put")

    def audit(self) -> None:
        res = self.result
        res.stored_bytes = sum(p.stored_bytes for p in self.raw)
        res.stored_objects = sum(p.object_count for p in self.raw)
        res.live_bytes = sum(
            e.size for e in self.client.list_files(sync_first=False))

    def close(self) -> None:
        self.client.close()
        super().close()


# ---------------------------------------------------------------------------
# edit-sync


class EditSyncPass(Pass):
    """A writer editing documents and a reader following every head."""

    SHAPE = {"docs": 8, "doc_mib": 2, "rounds": 3}
    WARMUP = {"docs": 1, "doc_mib": 1, "rounds": 1}

    def __init__(self, seed, shape, recorder, corrupt, workroot):
        super().__init__(recorder, corrupt)
        rng = derive_rng(seed, "edit-sync")
        self.docs: dict[str, bytes] = {}
        for i in range(shape["docs"]):
            size = shape["doc_mib"] * MiB + rng.randrange(-64 * 1024, 64 * 1024)
            self.docs[f"docs/{i:02d}.txt"] = rng.randbytes(size)
        # edit script: per round, per doc, one small insert
        self.edits: list[list[tuple[str, float, bytes]]] = [
            [
                (name, rng.random(), rng.randbytes(rng.randrange(16, 512)))
                for name in self.docs
            ]
            for _ in range(shape["rounds"])
        ]
        self.env = build_paper_testbed()
        raw = [self.env.csps[c] for c in sorted(self.env.csps)]
        config = CyrusConfig(key=f"edit-sync-{seed}", t=2, n=4,
                             chunk_min=16 * 1024, chunk_avg=64 * 1024,
                             chunk_max=256 * 1024)
        # the 3 slow + 4 fast clouds hold n=4 shares per chunk; faults
        # on every provider but t - 1 leave each chunk short of t clean
        providers = self.wrap_providers(
            raw, corrupt_count=len(raw) - config.t + 1)
        work = self.scratch_dir(workroot)
        self.clients = {}
        for device in ("writer", "reader"):
            engine = SimulatedEngine(
                {p.csp_id: p for p in providers}, self.env.links,
                self.env.clock, client_up=GIGABIT, client_down=GIGABIT,
            )
            self.clients[device] = CyrusClient.create(
                providers, config, client_id=device, engine=engine,
                journal=IntentJournal(work / device / "journal.jsonl"),
                debt_ledger=DebtLedger(work / device / "debts.jsonl"),
            )

        # the documents' first versions are the store the edits start
        # from: uploading them is part of the set-up, not a timed op
        for name, data in self.docs.items():
            self.clients["writer"].put(name, data)

    def _put(self, name: str, data: bytes) -> None:
        clock = self.env.clock
        t0 = clock.now()
        report = self.timed(
            "put", len(data), lambda: self.clients["writer"].put(name, data))
        if report is not None:
            self.result.samples[-1].sim_s = clock.now() - t0
            self.note_upload(report, len(data))

    def _get(self, name: str, data: bytes) -> None:
        report = self.timed(
            "get", len(data), lambda: self.clients["reader"].get(name))
        if report is None:
            return
        self.result.samples[-1].sim_s = report.duration
        self.note_plan(report)
        if report.node.file_id != sha1_hex(data):
            self.fail(f"get {name}: head is not the writer's latest version")
        elif report.data != data:
            self.fail(f"get {name}: bytes differ from the writer's buffer")

    def run(self) -> None:
        for round_edits in self.edits:
            for name, where, insert in round_edits:
                old = self.docs[name]
                at = int(where * len(old))
                self.docs[name] = old[:at] + insert + old[at:]
                self._put(name, self.docs[name])
            for name, data in self.docs.items():
                self._get(name, data)

    def audit(self) -> None:
        res = self.result
        res.stored_bytes = sum(p.stored_bytes for p in self.env.csps.values())
        res.stored_objects = sum(
            p.object_count for p in self.env.csps.values())
        try:
            heads = self.clients["reader"].list_files()
        except CyrusError as exc:
            self.fail(f"reader list: {type(exc).__name__}: {exc}")
            return
        res.live_bytes = sum(e.size for e in heads)
        if {e.name: e.node.file_id for e in heads} != {
            name: sha1_hex(data) for name, data in self.docs.items()
        }:
            self.fail("reader's heads differ from the writer's documents")

    def close(self) -> None:
        for client in self.clients.values():
            client.close()
        super().close()


# ---------------------------------------------------------------------------
# fleet


class FleetPass(Pass):
    """Many tenants sharing six netsim CSPs, replayed open-loop."""

    SHAPE = {"tenants": 48, "ops_per_tenant": 24}
    WARMUP = {"tenants": 4, "ops_per_tenant": 6}
    CSPS = 6
    META_GROUPS = 2
    LINK_RATE = 4e6
    RTT_S = 0.02
    CLIENT_RATE = 12.5e6

    def __init__(self, seed, shape, recorder, corrupt, workroot):
        super().__init__(recorder, corrupt)
        spec = FleetWorkloadSpec(tenants=shape["tenants"],
                                 ops_per_tenant=shape["ops_per_tenant"])
        self.workload = generate_fleet_workload(spec, seed=seed)
        self.ops = self.workload.merged_ops()
        # materialise every payload now: inputs are set-up, not ops
        self.payloads = [
            op.content() if op.action == "put" else None
            for _tenant, op in self.ops
        ]
        self.clock = SimClock()
        csp_ids = [f"csp{i:02d}" for i in range(self.CSPS)]
        self.links = {
            c: Link.symmetric(c, self.LINK_RATE, rtt_s=self.RTT_S)
            for c in csp_ids
        }
        self.raw = [
            SimulatedCSP(c, self.links[c], clock=self.clock) for c in csp_ids
        ]
        t, n = 2, 3
        shared = self.wrap_providers(self.raw,
                                     corrupt_count=self.CSPS - t + 1)
        tenants = [plan.tenant_id for plan in self.workload.plans]
        quota = FleetQuota(tenants, fleet_capacity=len(tenants) * 2 ** 62)
        self.clients = {
            tid: self._client(tid, shared, quota, seed, t, n)
            for tid in tenants
        }

    def _client(self, tenant_id, shared, quota, seed, t, n) -> CyrusClient:
        providers = [NamespacedCSP(p, tenant_id) for p in shared]
        engine = SimulatedEngine(
            {p.csp_id: p for p in providers}, self.links, self.clock,
            client_up=self.CLIENT_RATE, client_down=self.CLIENT_RATE,
        )
        size = self.CSPS // self.META_GROUPS
        groups = [providers[g * size:(g + 1) * size]
                  for g in range(self.META_GROUPS)]

        def sharded_store(client: CyrusClient) -> ShardedMetadataStore:
            return ShardedMetadataStore(
                groups, key=client.config.key, t=client.config.meta_t,
                health=client.health, metrics=client.obs.metrics,
                ledger=client.debt_ledger, clock=client.engine.clock,
                route_prefix=f"{tenant_id}/",
            )

        config = CyrusConfig(key=f"fleet-{seed}:{tenant_id}", t=t, n=n)
        return CyrusClient.create(
            providers, config, client_id=tenant_id, engine=engine,
            admission=quota, store_factory=sharded_store,
        )

    def run(self) -> None:
        clock = self.clock
        latest: dict[tuple[str, str], bytes] = {}
        for (tenant, op), payload in zip(self.ops, self.payloads):
            client = self.clients[tenant]
            if op.at > clock.now():
                clock.advance_to(op.at)
            self.result.lag_max_s = max(self.result.lag_max_s,
                                        clock.now() - op.at)
            if op.action == "put":
                def do(client=client, op=op, payload=payload):
                    client.sync()
                    return client.put(op.name, payload, sync_first=False)
                size = len(payload)
            else:
                def do(client=client, op=op):
                    client.sync()
                    return client.get(op.name, sync_first=False)
                expected = latest.get((tenant, op.name))
                size = len(expected) if expected is not None else 0
            report = self.timed(op.action, size, do)
            if report is None:
                continue
            # open loop: latency counts from when the op was due
            self.result.samples[-1].sim_s = clock.now() - op.at
            if op.action == "put":
                latest[(tenant, op.name)] = payload
                self.note_upload(report, size)
            else:
                self.note_plan(report)
                if report.data != expected:
                    self.fail(f"{tenant} get {op.name}: wrong bytes")

    def audit(self) -> None:
        res = self.result
        res.stored_bytes = sum(p.stored_bytes for p in self.raw)
        res.stored_objects = sum(p.object_count for p in self.raw)
        for plan in self.workload.plans:
            client = self.clients[plan.tenant_id]
            try:
                entries = {e.name: e.node for e in client.list_files()}
            except CyrusError as exc:
                self.fail(f"{plan.tenant_id} list: {type(exc).__name__}")
                continue
            expected = plan.expected_files()
            res.live_bytes += sum(node.size for node in entries.values())
            if set(entries) != set(expected) or any(
                entries[name].size != op.size
                or entries[name].file_id != sha1_hex(op.content())
                for name, op in expected.items()
            ):
                self.fail(f"{plan.tenant_id}: heads differ from the plan")
        prefixes = [namespace_prefix(tid) for tid in self.clients]
        for raw in self.raw:
            for info in raw.list():
                owners = sum(1 for p in prefixes if info.name.startswith(p))
                if owners != 1:
                    self.fail(f"{raw.csp_id}: {info.name!r} is in "
                              f"{owners} tenant namespaces")

    def close(self) -> None:
        for client in self.clients.values():
            client.close()
        super().close()


WORKLOADS = {
    "bulk": BulkPass,
    "edit-sync": EditSyncPass,
    "fleet": FleetPass,
}
