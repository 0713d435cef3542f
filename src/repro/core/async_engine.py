"""The concurrent transfer engine: the paper's event-driven client core.

:class:`AsyncTransferEngine` executes :class:`repro.core.transfer.TransferOp`
batches on an asyncio event loop (paper §5.3: GET/PUT/GET_META/PUT_META
events feeding share, chunk and file completion).  Ops wait in one
FIFO and start while two admission caps allow — at most
``max_inflight_per_csp`` concurrent operations per provider (ops for a
saturated CSP are skipped over, so one slow provider cannot block the
others) and at most ``max_inflight_total`` (default ``parallelism``) in
flight overall.  The loop starts ops; a dispatch thread that finishes a
sync-provider op frees its slot and claims the next startable sync op
in the same step, so back-to-back ops never wait for a loop round trip
(the FIFO, occupancy and quotas sit behind one admission lock for
that).  A thousand concurrent client sessions share one loop.

Batches support group quotas (queued ops of a satisfied group are
cancelled without dispatch — straggler cancellation) and *streaming
follow-ups*: an ``on_result`` hook sees every completion as it happens
and may enqueue replacement ops into the running batch, which is how
the retry loop fails a share over to a standby CSP without waiting for
the rest of the batch.

Native async providers (:class:`repro.csp.aio.AsyncCloudProvider`) are
awaited on the loop.  A synchronous CSP's whole op (breaker check, lazy
encode, blocking call, health and metrics) runs as one call on a
bounded engine-owned dispatch executor, so blocking I/O never stalls
the loop;
:meth:`AsyncTransferEngine.async_provider` still hands out a
:class:`repro.csp.aio.SyncProviderAdapter` for callers that want the
async face of a sync provider.

The engine presents *both* faces of the stable API:

* ``await execute_async(ops, ...)`` — the native coroutine, for async
  pipelines and :class:`repro.core.async_client.AsyncCyrusClient`;
* ``execute(ops, ...)`` — the synchronous bridge the uploader/
  downloader/retry stack calls, which submits the coroutine to the
  engine's loop (an externally bound running loop, or a lazily started
  background loop the engine owns) and blocks the calling pipeline
  thread for the result.

Correctness anchor: at ``parallelism=1`` with synchronous providers the
engine never touches the loop at all — ``execute`` takes the inherited
serial :class:`repro.core.transfer.DirectEngine` path, bit-for-bit
identical to the serial reference engine.  Both paths share one per-op
error contract: a provider's :class:`repro.errors.CSPError` becomes a
failed :class:`OpResult`; any other exception (an unregistered CSP, a
failing lazy encode) propagates out of ``execute``/``execute_async`` —
on the loop path once the batch's in-flight tasks have settled.

Occupancy is exported through the engine's observability registry:
``cyrus_pool_inflight{csp}`` / ``cyrus_pool_inflight_total`` gauges
(live), ``cyrus_pool_inflight_peak{csp}`` (high-water marks),
``cyrus_pool_queue_depth`` and the ``cyrus_pool_dispatch_total`` /
``cyrus_pool_cancelled_total`` counters — surfaced by ``cyrus stats``.
The ``on_result`` hook runs on the loop thread, one completion at a
time; result emission (metrics, tracer, receiver) also runs on dispatch
threads, so everything it touches carries its own lock (see DESIGN.md's
concurrency model).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from collections import deque
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs import Observability

from repro.core.transfer import DirectEngine, OpKind, OpResult, TransferOp
from repro.csp.aio import AsyncCloudProvider, SyncProviderAdapter
from repro.csp.base import CloudProvider
from repro.csp.resilient import HealthRegistry
from repro.errors import CSPError, TransferError, is_retryable
from repro.util.clock import Clock, WallClock, sleep_on

# Metric names (referenced by cyrus stats and the engine tests).
POOL_INFLIGHT = "cyrus_pool_inflight"              # gauge {csp}
POOL_INFLIGHT_TOTAL = "cyrus_pool_inflight_total"  # gauge
POOL_INFLIGHT_PEAK = "cyrus_pool_inflight_peak"    # gauge {csp, "*"=total}
POOL_QUEUE_DEPTH = "cyrus_pool_queue_depth"        # gauge
POOL_DISPATCH = "cyrus_pool_dispatch_total"        # counter {csp}
POOL_CANCELLED = "cyrus_pool_cancelled_total"      # counter

#: on_result may return follow-up ops to enqueue into the running batch.
ResultHook = Callable[[OpResult], "Sequence[TransferOp] | None"]

#: Upper bound on the dispatch executor; sync-adapted providers cannot
#: usefully exceed this many truly concurrent blocking calls anyway.
_MAX_DISPATCH_THREADS = 32


class _AsyncBatch:
    """State of one in-progress batch (confined to the event loop)."""

    __slots__ = ("loop", "results", "tasks", "unresolved", "quota",
                 "on_result", "done", "error")

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        group_quota: Mapping[Hashable, int] | None,
        on_result: ResultHook | None,
    ):
        self.loop = loop
        self.results: list[OpResult | None] = []
        self.tasks: list[asyncio.Task] = []  # the loop holds tasks weakly
        self.unresolved = 0
        self.quota: dict[Hashable, int] = dict(group_quota or {})
        self.on_result = on_result
        self.done = asyncio.Event()
        #: first non-provider exception; execute_async re-raises it
        self.error: BaseException | None = None


class AsyncTransferEngine(DirectEngine):
    """Event-driven engine: capped, streaming batches on one event loop.

    ``parallelism=1`` with synchronous providers short-circuits to the
    inherited serial ``DirectEngine.execute`` — identical behaviour, no
    loop or executor ever started.  ``parallelism>1`` (or any native
    async provider) routes batches through the event loop.

    Args:
        providers: Sync providers, async providers, or a mix.
        loop: An externally owned *running* loop to bind to (e.g. the
            caller's, via :func:`asyncio.get_running_loop`).  When None
            the engine lazily starts a private background loop thread
            on first parallel use and owns its lifecycle.
        executor: Dispatch executor for sync-adapted provider calls and
            lazy ``data_fn`` encodes.  When None the engine creates one
            sized ``min(max_inflight_total or parallelism, 32)`` and
            owns its shutdown.
    """

    def __init__(
        self,
        providers: Mapping[str, CloudProvider | AsyncCloudProvider],
        clock: Clock | None = None,
        receiver=None,
        health: HealthRegistry | None = None,
        obs: "Observability | None" = None,
        parallelism: int = 1,
        max_inflight_per_csp: int | None = None,
        max_inflight_total: int | None = None,
        loop: asyncio.AbstractEventLoop | None = None,
        executor: concurrent.futures.Executor | None = None,
    ):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        for bound in (max_inflight_per_csp, max_inflight_total):
            if bound is not None and bound < 1:
                raise ValueError("in-flight bounds must be >= 1")
        sync_map: dict[str, CloudProvider] = {}
        native: dict[str, AsyncCloudProvider] = {}
        for csp_id, prov in dict(providers).items():
            if isinstance(prov, AsyncCloudProvider):
                native[csp_id] = prov
            else:
                sync_map[csp_id] = prov
        super().__init__(sync_map, clock=clock, receiver=receiver,
                         health=health, obs=obs)
        self.parallelism = parallelism
        self.max_inflight_per_csp = max_inflight_per_csp
        self.max_inflight_total = (
            max_inflight_total if max_inflight_total is not None else parallelism
        )
        self._native = native
        self._adapters: dict[str, SyncProviderAdapter] = {}
        self._loop = loop
        self._owns_loop = False
        self._loop_thread: threading.Thread | None = None
        self._executor = executor
        self._owns_executor = executor is None
        self._closed = False
        # admission state shared by every batch, guarded by _admission
        # (dispatch threads claim work too): ops not yet started (FIFO),
        # occupancy (exported via the pool gauges), each batch's quota
        # and error
        self._admission = threading.Lock()
        self._waiting: deque[tuple[_AsyncBatch, int, TransferOp]] = deque()
        self._inflight: dict[str, int] = {}
        self._inflight_total = 0
        self._lifecycle = threading.Lock()

    # -- capability flags (consulted by the pipelines) ---------------------

    @property
    def parallel_enabled(self) -> bool:
        """True when batches genuinely run concurrently — the gate for
        lazy share encoding and streaming failover in the pipelines."""
        return self.parallelism > 1

    # -- providers ---------------------------------------------------------

    def register_provider(
        self, provider: CloudProvider | AsyncCloudProvider
    ) -> None:
        if isinstance(provider, AsyncCloudProvider):
            self._native[provider.csp_id] = provider
            self._providers.pop(provider.csp_id, None)
        else:
            super().register_provider(provider)
            self._native.pop(provider.csp_id, None)
        self._adapters.pop(provider.csp_id, None)

    def unregister_provider(self, csp_id: str) -> None:
        super().unregister_provider(csp_id)
        self._native.pop(csp_id, None)
        self._adapters.pop(csp_id, None)

    def provider(self, csp_id: str) -> CloudProvider:
        if csp_id in self._native and csp_id not in self._providers:
            raise TransferError(
                f"{csp_id!r} is a native async provider; "
                f"use async_provider() from async code"
            )
        return super().provider(csp_id)

    def async_provider(self, csp_id: str) -> AsyncCloudProvider:
        """The async face of one provider (adapting sync ones lazily)."""
        prov = self._native.get(csp_id)
        if prov is not None:
            return prov
        adapter = self._adapters.get(csp_id)
        if adapter is None:
            adapter = SyncProviderAdapter(
                super().provider(csp_id), executor=self._ensure_executor()
            )
            self._adapters[csp_id] = adapter
        return adapter

    def link_caps(self, direction: str) -> dict[str, float]:
        caps = super().link_caps(direction)
        for csp_id in self._native:
            caps.setdefault(csp_id, 1.0)
        return caps

    # -- loop / executor lifecycle ----------------------------------------

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Adopt an externally owned running loop (the caller keeps it
        alive; :meth:`close` will not stop it)."""
        with self._lifecycle:
            if self._owns_loop and self._loop is not None \
                    and self._loop is not loop:
                raise TransferError(
                    "engine already owns a background loop; close() first"
                )
            self._loop = loop

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._lifecycle:
            if self._closed:
                raise TransferError("async engine is closed")
            if self._loop is not None:
                return self._loop
            loop = asyncio.new_event_loop()
            thread = threading.Thread(
                target=loop.run_forever, name="cyrus-aio-loop", daemon=True
            )
            thread.start()
            self._loop = loop
            self._loop_thread = thread
            self._owns_loop = True
            return loop

    def _ensure_executor(self) -> concurrent.futures.Executor:
        with self._lifecycle:
            if self._executor is None:
                width = self.max_inflight_total or self.parallelism
                self._executor = concurrent.futures.ThreadPoolExecutor(
                    max_workers=max(1, min(width, _MAX_DISPATCH_THREADS)),
                    thread_name_prefix="cyrus-aio-dispatch",
                )
                self._owns_executor = True
            return self._executor

    def close(self) -> None:
        """Release owned resources (idempotent; a closed engine drops to
        parallelism 1 and stays usable on the serial sync path)."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            loop, owns_loop = self._loop, self._owns_loop
            thread = self._loop_thread
            executor, owns_executor = self._executor, self._owns_executor
            self._loop = None
            self._loop_thread = None
            self._owns_loop = False
            self._executor = None
            self._owns_executor = False
            self.parallelism = 1
        if owns_executor and executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        if owns_loop and loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=10)
            loop.close()
        # a closed engine can still run serial sync batches
        self._closed = False

    def run_coro(self, coro):
        """Run a coroutine on the engine's loop from a non-loop thread."""
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            coro.close()
            raise TransferError(
                "run_coro() called from an event loop; await the "
                "coroutine (or execute_async) directly instead"
            )
        loop = self._ensure_loop()
        return asyncio.run_coroutine_threadsafe(coro, loop).result()

    # -- async sleeping (retry backoff) ------------------------------------

    async def async_sleep(self, seconds: float) -> None:
        """Backoff sleep that never blocks the loop: wall clocks await
        :func:`asyncio.sleep`; fake/sim clocks advance instantly via
        :func:`repro.util.clock.sleep_on`."""
        if seconds <= 0:
            return
        if isinstance(self.clock, WallClock):
            await asyncio.sleep(seconds)
        else:
            sleep_on(self.clock, seconds)

    # -- gauges (set under _admission, so they never go stale) -------------

    def _gauge_inflight(self, csp_id: str, rising: bool) -> None:
        obs = self.obs
        if obs is None:
            return
        per_csp = self._inflight.get(csp_id, 0)
        metrics = obs.metrics
        metrics.set_gauge(POOL_INFLIGHT, per_csp, csp=csp_id)
        metrics.set_gauge(POOL_INFLIGHT_TOTAL, self._inflight_total)
        if rising:  # high-water marks can only move on a dispatch
            peak = metrics.gauge(POOL_INFLIGHT_PEAK)
            peak.set_max(per_csp, csp=csp_id)
            peak.set_max(self._inflight_total, csp="*")

    def _gauge_queue(self) -> None:
        if self.obs is not None:
            self.obs.metrics.set_gauge(POOL_QUEUE_DEPTH, len(self._waiting))

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        ops: Sequence[TransferOp],
        group_quota: Mapping[Hashable, int] | None = None,
        on_result: ResultHook | None = None,
    ) -> list[OpResult]:
        """Synchronous bridge for the thread-world pipelines."""
        needs_loop = self.parallel_enabled or any(
            op.csp_id in self._native for op in ops
        )
        if not needs_loop:
            results = super().execute(ops, group_quota)
            if on_result is not None:
                # serial streaming emulation: feed completions through
                # the hook and run follow-ups until it stops producing
                extras = [
                    extra for result in results
                    for extra in (on_result(result) or ())
                ]
                while extras:
                    batch = super().execute(extras, group_quota)
                    results.extend(batch)
                    extras = [
                        extra for result in batch
                        for extra in (on_result(result) or ())
                    ]
            return results
        return self.run_coro(
            self.execute_async(ops, group_quota=group_quota,
                               on_result=on_result)
        )

    async def execute_async(
        self,
        ops: Sequence[TransferOp],
        group_quota: Mapping[Hashable, int] | None = None,
        on_result: ResultHook | None = None,
    ) -> list[OpResult]:
        """Execute one batch natively on the running loop.

        Results come back in submission order (initial ops first, then
        ``on_result`` follow-ups in enqueue order).  A provider's
        ``CSPError`` is a failed result; any other exception raised by an
        op or by ``on_result`` stops further dispatch and is re-raised
        here once the in-flight tasks have settled.
        """
        if not ops:
            return []
        batch = _AsyncBatch(asyncio.get_running_loop(), group_quota,
                            on_result)
        self._enqueue(batch, ops)
        self._pump()
        await batch.done.wait()
        if batch.error is not None:
            raise batch.error
        return batch.results  # type: ignore[return-value]

    # -- admission and completion -----------------------------------------

    def _enqueue(self, batch: _AsyncBatch, ops: Sequence[TransferOp]) -> None:
        with self._admission:
            for op in ops:
                self._waiting.append((batch, len(batch.results), op))
                batch.results.append(None)
            batch.unresolved += len(ops)
            self._gauge_queue()

    def _claim(self, loop_side: bool):
        """Pop the next waiting op the caps admit (under ``_admission``).

        Returns ``(entry, start)`` — ``start`` False means the entry is
        settled without dispatch (its group is satisfied: straggler
        cancellation; or its batch already failed) — or None.  An op
        whose provider is at its per-CSP cap is rotated past, so one
        slow provider never blocks the others.  A dispatch thread
        (``loop_side`` False) only takes sync-provider ops to start;
        anything else at the head waits for the loop.
        """
        waiting = self._waiting
        total_cap = self.max_inflight_total or self.parallelism
        per_csp = self.max_inflight_per_csp
        skipped = 0
        while waiting and skipped < len(waiting) \
                and self._inflight_total < total_cap:
            batch, idx, op = waiting[0]
            start = (batch.error is None
                     and not self._quota_satisfied(batch, op))
            if start and per_csp is not None \
                    and self._inflight.get(op.csp_id, 0) >= per_csp:
                waiting.rotate(-1)
                skipped += 1
                continue
            if not loop_side and not (start and op.csp_id not in self._native):
                return None
            waiting.popleft()
            if start:
                self._inflight[op.csp_id] = self._inflight.get(op.csp_id, 0) + 1
                self._inflight_total += 1
                self._gauge_inflight(op.csp_id, rising=True)
                if self.obs is not None:
                    self.obs.metrics.inc(POOL_DISPATCH, csp=op.csp_id)
            self._gauge_queue()
            return (batch, idx, op), start
        return None

    def _release(self, batch: _AsyncBatch, op: TransferOp,
                 outcome: OpResult | BaseException) -> None:
        """Free a finished op's slot (under ``_admission``); a success
        spends its group's quota before anything else is claimed."""
        self._inflight[op.csp_id] -= 1
        self._inflight_total -= 1
        self._gauge_inflight(op.csp_id, rising=False)
        if isinstance(outcome, OpResult) and outcome.ok \
                and op.group is not None and op.group in batch.quota:
            batch.quota[op.group] -= 1

    def _pump(self) -> None:
        """Start (or settle) waiting ops while the caps admit them (loop)."""
        while True:
            with self._admission:
                claimed = self._claim(loop_side=True)
            if claimed is None:
                return
            (batch, idx, op), start = claimed
            try:
                if not start:
                    if batch.error is not None:
                        self._settle(batch)
                    else:
                        self._finish(batch, idx, self._cancelled(op))
                elif op.csp_id in self._native:
                    task = batch.loop.create_task(
                        self._dispatch_native(self._native[op.csp_id], op))
                    batch.tasks.append(task)
                    task.add_done_callback(
                        lambda t, b=batch, i=idx, o=op:
                        self._native_done(b, i, o, t))
                else:
                    self._ensure_executor().submit(
                        self._run_sync, batch, idx, op)
            except BaseException as exc:  # re-raised by execute_async
                if start:
                    with self._admission:
                        self._release(batch, op, exc)
                self._fail(batch, exc)

    def _run_sync(self, batch: _AsyncBatch, idx: int, op: TransferOp) -> None:
        """Dispatch-thread body: run sync ops back to back.

        Each finished op frees its slot and claims the next startable
        sync op in one step, so consecutive ops on a dispatch thread
        never wait for a loop round trip; results go to the loop, where
        the hook runs.
        """
        while True:
            try:
                outcome = self._dispatch_sync(op)
            except BaseException as exc:  # surfaced by execute_async
                outcome = exc
            with self._admission:
                self._release(batch, op, outcome)
                claimed = self._claim(loop_side=False)
            batch.loop.call_soon_threadsafe(self._done, batch, idx, outcome)
            if claimed is None:
                return
            (batch, idx, op), _start = claimed

    def _native_done(self, batch: _AsyncBatch, idx: int, op: TransferOp,
                     task: asyncio.Task) -> None:
        try:
            outcome = task.result()
        except BaseException as exc:  # surfaced by execute_async
            outcome = exc
        with self._admission:
            self._release(batch, op, outcome)
        self._done(batch, idx, outcome)

    def _done(self, batch: _AsyncBatch, idx: int,
              outcome: OpResult | BaseException) -> None:
        """A dispatched op finished (loop thread)."""
        if isinstance(outcome, BaseException):
            self._fail(batch, outcome)
        else:
            self._finish(batch, idx, outcome)
        self._pump()

    def _finish(self, batch: _AsyncBatch, idx: int, result: OpResult) -> None:
        """Record one result; the hook's follow-ups join the batch."""
        if batch.error is None:
            batch.results[idx] = result
            try:
                followups = (batch.on_result(result)
                             if batch.on_result is not None else None)
            except BaseException as exc:  # re-raised by execute_async
                self._fail(batch, exc)
                return
            if followups:
                self._enqueue(batch, followups)
        self._settle(batch)

    def _fail(self, batch: _AsyncBatch, exc: BaseException) -> None:
        with self._admission:
            if batch.error is None:
                batch.error = exc
        self._settle(batch)

    @staticmethod
    def _settle(batch: _AsyncBatch) -> None:
        batch.unresolved -= 1
        if batch.unresolved == 0:
            batch.done.set()

    def _quota_satisfied(self, batch: _AsyncBatch, op: TransferOp) -> bool:
        group = op.group
        return (group is not None and group in batch.quota
                and batch.quota[group] <= 0)

    def _cancelled(self, op: TransferOp) -> OpResult:
        if self.obs is not None:
            self.obs.metrics.inc(POOL_CANCELLED, csp=op.csp_id)
        now = self.clock.now()
        return self._emit(OpResult(op=op, ok=False, start=now, end=now,
                                   cancelled=True,
                                   error="group quota satisfied"))

    async def _dispatch_native(self, prov: AsyncCloudProvider,
                               op: TransferOp) -> OpResult:
        """One op end-to-end on the loop, awaiting a native provider.

        This and :meth:`_dispatch_sync` mirror the per-op body of
        :meth:`DirectEngine.execute`, minus group-quota handling, which
        the batch owns here.
        """
        start = self.clock.now()
        blocked = self._breaker_blocks(op, start)
        if blocked is not None:
            return self._emit(blocked)
        try:
            data = await self._apply_native(prov, op)
        except CSPError as exc:
            return self._outcome(op, start, exc=exc)
        return self._outcome(op, start, data=data)

    def _dispatch_sync(self, op: TransferOp) -> OpResult:
        start = self.clock.now()
        blocked = self._breaker_blocks(op, start)
        if blocked is not None:
            return self._emit(blocked)
        try:
            data = self._apply(op)
        except CSPError as exc:
            return self._outcome(op, start, exc=exc)
        return self._outcome(op, start, data=data)

    def _outcome(self, op: TransferOp, start: float, data: bytes | None = None,
                 exc: CSPError | None = None) -> OpResult:
        end = self.clock.now()
        self._record_health(op.csp_id, exc)
        if exc is None:
            return self._emit(OpResult(op=op, ok=True, start=start, end=end,
                                       data=data))
        return self._emit(OpResult(op=op, ok=False, start=start, end=end,
                                   error=str(exc),
                                   error_type=type(exc).__name__,
                                   retryable=is_retryable(exc)))

    async def _apply_native(self, prov: AsyncCloudProvider,
                            op: TransferOp) -> bytes | None:
        """Perform the data operation through a native async provider."""
        if op.kind in (OpKind.PUT, OpKind.PUT_META):
            data = op.data
            if data is None and op.data_fn is not None:
                # lazy encodes are CPU work: run them on the dispatch
                # executor, never the loop
                data = await asyncio.get_running_loop().run_in_executor(
                    self._ensure_executor(), op.resolve_data
                )
            if data is None:
                raise TransferError(f"PUT without data: {op.name}")
            await prov.upload(op.name, data)
            return None
        if op.kind in (OpKind.GET, OpKind.GET_META):
            return await prov.download(op.name)
        if op.kind == OpKind.DELETE:
            await prov.delete(op.name)
            return None
        raise TransferError(f"unknown op kind {op.kind}")  # pragma: no cover
