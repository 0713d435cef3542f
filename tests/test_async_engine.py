"""Deterministic unit tests for the asyncio transfer core.

Mirrors test_parallel_engine.py's philosophy: concurrency claims
are proven with counters and cooperative yields on the event loop, not
timing luck.  The native fake provider yields control inside each
operation so overlapping admissions genuinely interleave, making the
in-flight high-water marks exact.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.async_engine import AsyncTransferEngine
from repro.core.retry import AsyncShareRetryLoop, ShareRetryLoop
from repro.core.transfer import OpKind, TransferOp
from repro.csp.aio import AsyncCloudProvider, SyncProviderAdapter
from repro.csp.base import ObjectInfo
from repro.csp.memory import InMemoryCSP
from repro.csp.resilient import RetryPolicy
from repro.errors import (
    CSPAuthError,
    CSPUnavailableError,
    ObjectNotFoundError,
    TransferError,
)


class NativeMemCSP(AsyncCloudProvider):
    """Dict-backed native async provider with concurrency accounting.

    Every operation yields to the loop twice while "in flight", so any
    other admitted coroutine gets a chance to overlap — the recorded
    high-water mark is therefore the true admission concurrency.
    """

    def __init__(self, csp_id: str, probe: dict | None = None):
        super().__init__(csp_id)
        self.store: dict[str, bytes] = {}
        #: shared mutable {"current": int, "peak": int} counter
        self.probe = probe if probe is not None else {"current": 0, "peak": 0}

    async def _occupy(self):
        self.probe["current"] += 1
        self.probe["peak"] = max(self.probe["peak"], self.probe["current"])
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        self.probe["current"] -= 1

    async def authenticate(self, credentials):
        raise NotImplementedError

    async def list(self, *, prefix: str = "") -> list[ObjectInfo]:
        await self._occupy()
        return [ObjectInfo(name=n, size=len(b))
                for n, b in sorted(self.store.items())
                if n.startswith(prefix)]

    async def upload(self, name: str, data) -> None:
        await self._occupy()
        self.store[name] = bytes(data)

    async def download(self, name: str) -> bytes:
        await self._occupy()
        try:
            return self.store[name]
        except KeyError:
            raise ObjectNotFoundError(name, csp_id=self.csp_id) from None

    async def delete(self, name: str) -> None:
        await self._occupy()
        self.store.pop(name, None)


def _put_ops(csp_id: str, n: int, group=None) -> list[TransferOp]:
    return [TransferOp(kind=OpKind.PUT, csp_id=csp_id, name=f"obj-{i}",
                       data=bytes([i]) * 16, group=group)
            for i in range(n)]


# ---------------------------------------------------------------------------
# serial short-circuit: parallelism=1 + sync providers never touch asyncio


def test_serial_sync_path_never_starts_loop_or_executor():
    engine = AsyncTransferEngine({"m": InMemoryCSP("m")}, parallelism=1)
    results = engine.execute(_put_ops("m", 3))
    assert all(r.ok for r in results)
    assert engine._loop is None
    assert engine._executor is None
    engine.close()


def test_serial_streaming_emulation_runs_followups():
    engine = AsyncTransferEngine({"m": InMemoryCSP("m")}, parallelism=1)
    fired = []

    def on_result(result):
        fired.append(result.op.name)
        if result.op.name == "obj-0":
            return [TransferOp(kind=OpKind.PUT, csp_id="m",
                               name="followup", data=b"f")]
        return []

    results = engine.execute(_put_ops("m", 2), on_result=on_result)
    assert [r.op.name for r in results] == ["obj-0", "obj-1", "followup"]
    assert "followup" in fired  # the hook saw the follow-up's result too
    engine.close()


# ---------------------------------------------------------------------------
# admission caps


def test_per_csp_and_total_caps_bound_native_concurrency():
    probe_a = {"current": 0, "peak": 0}
    probe_b = {"current": 0, "peak": 0}
    a, b = NativeMemCSP("a", probe_a), NativeMemCSP("b", probe_b)
    engine = AsyncTransferEngine(
        {"a": a, "b": b}, parallelism=8,
        max_inflight_per_csp=2, max_inflight_total=3,
    )
    try:
        ops = _put_ops("a", 6) + [
            TransferOp(kind=OpKind.PUT, csp_id="b", name=f"b-{i}", data=b"z")
            for i in range(6)
        ]
        results = engine.execute(ops)
        assert all(r.ok for r in results)
        assert probe_a["peak"] <= 2 and probe_b["peak"] <= 2
        assert probe_a["peak"] + probe_b["peak"] >= 2  # genuinely concurrent
        assert len(a.store) == 6 and len(b.store) == 6
    finally:
        engine.close()


def test_total_cap_of_one_serialises_native_ops():
    probe = {"current": 0, "peak": 0}
    csp = NativeMemCSP("n", probe)
    engine = AsyncTransferEngine({"n": csp}, parallelism=4,
                                 max_inflight_total=1)
    try:
        results = engine.execute(_put_ops("n", 5))
        assert all(r.ok for r in results)
        assert probe["peak"] == 1
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# group quota: stragglers queued behind the cap are cancelled, not run


def test_group_quota_cancels_queued_stragglers():
    csp = NativeMemCSP("n")
    engine = AsyncTransferEngine({"n": csp}, parallelism=2,
                                 max_inflight_total=1)
    try:
        results = engine.execute(_put_ops("n", 3, group="chunk-A"),
                                 group_quota={"chunk-A": 1})
        assert sum(1 for r in results if r.ok) == 1
        cancelled = [r for r in results if r.cancelled]
        assert len(cancelled) == 2
        assert all(not r.ok and r.error_type is None for r in cancelled)
        assert len(csp.store) == 1  # the extras never reached the provider
    finally:
        engine.close()


def test_on_result_followups_join_the_same_batch():
    csp = NativeMemCSP("n")
    engine = AsyncTransferEngine({"n": csp}, parallelism=2)
    try:
        def on_result(result):
            if result.op.name == "obj-0":
                return [TransferOp(kind=OpKind.PUT, csp_id="n",
                                   name="followup", data=b"f")]
            return []

        results = engine.execute(_put_ops("n", 2), on_result=on_result)
        names = {r.op.name for r in results}
        assert names == {"obj-0", "obj-1", "followup"}
        assert all(r.ok for r in results)
        assert "followup" in csp.store
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# loop discipline


def test_run_coro_refuses_to_run_from_the_loop_thread():
    engine = AsyncTransferEngine({"m": InMemoryCSP("m")}, parallelism=2)

    async def script():
        with pytest.raises(TransferError, match="event loop"):
            engine.run_coro(engine.execute_async(_put_ops("m", 1)))

    try:
        asyncio.run(script())
    finally:
        engine.close()


def test_execute_async_awaits_directly_on_callers_loop():
    csp = NativeMemCSP("n")
    engine = AsyncTransferEngine({"n": csp}, parallelism=2)

    async def script():
        return await engine.execute_async(_put_ops("n", 3))

    try:
        results = asyncio.run(script())
        assert all(r.ok for r in results)
        assert len(csp.store) == 3
        # the engine borrowed the caller's loop; it owns nothing to stop
        assert engine._owns_loop is False
    finally:
        engine.close()


def test_native_provider_forces_loop_even_at_parallelism_one():
    csp = NativeMemCSP("n")
    engine = AsyncTransferEngine({"n": csp}, parallelism=1)
    try:
        results = engine.execute(_put_ops("n", 2))
        assert all(r.ok for r in results)
        assert engine._loop is not None  # background loop was required
    finally:
        engine.close()


def test_close_is_idempotent_and_leaves_a_serial_usable_engine():
    engine = AsyncTransferEngine({"m": InMemoryCSP("m")}, parallelism=4)
    assert all(r.ok for r in engine.execute(_put_ops("m", 2)))
    assert engine._loop is not None
    loop_thread = engine._loop_thread
    engine.close()
    engine.close()  # idempotent
    assert engine._loop is None and engine._executor is None
    assert engine.parallelism == 1
    if loop_thread is not None:
        loop_thread.join(timeout=10)
        assert not loop_thread.is_alive()
    # a closed engine still serves serial sync batches
    results = engine.execute(
        [TransferOp(kind=OpKind.GET, csp_id="m", name="obj-0", size=16)]
    )
    assert results[0].ok


# ---------------------------------------------------------------------------
# one per-op error contract at every parallelism: a provider's CSPError
# is a failed result, anything else raises out of execute


def _broken_encode() -> bytes:
    raise ValueError("encode bug")


@pytest.mark.parametrize("parallelism", [1, 4])
def test_non_provider_errors_raise_at_every_parallelism(parallelism):
    engine = AsyncTransferEngine({"m": InMemoryCSP("m")},
                                 parallelism=parallelism)
    try:
        ghost = TransferOp(kind=OpKind.PUT, csp_id="ghost", name="x",
                           data=b"x")
        with pytest.raises(TransferError, match="no provider"):
            engine.execute(_put_ops("m", 2) + [ghost])
        lazy = TransferOp(kind=OpKind.PUT, csp_id="m", name="lazy", size=1,
                          data_fn=_broken_encode)
        with pytest.raises(ValueError, match="encode bug"):
            engine.execute([lazy])
        # a provider error stays a result, and the engine stays usable
        results = engine.execute(
            [TransferOp(kind=OpKind.GET, csp_id="m", name="absent", size=1)]
        )
        assert not results[0].ok
        assert results[0].error_type == "ObjectNotFoundError"
    finally:
        engine.close()


@pytest.mark.parametrize("parallelism", [1, 4])
def test_retry_loop_surfaces_non_provider_errors_instead_of_failing_over(
        parallelism):
    alt = InMemoryCSP("alt")
    engine = AsyncTransferEngine({"m": InMemoryCSP("m"), "alt": alt},
                                 parallelism=parallelism)
    try:
        loop = ShareRetryLoop(engine, policy=RetryPolicy(max_attempts=2,
                                                         base_delay=0.0))
        with pytest.raises(ValueError, match="encode bug"):
            loop.run(
                items=[("s0", "m")],
                build_op=lambda key, csp: TransferOp(
                    kind=OpKind.PUT, csp_id=csp, name="s0", size=1,
                    data_fn=_broken_encode if csp == "m" else (lambda: b"x")),
                on_success=lambda key, csp, result: None,
                on_giveup=lambda key, csp, result: None,
                pick_alternate=lambda key, csp, tried: "alt",
            )
        assert alt.object_count == 0  # the bug was not hidden by failover
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# provider faces


def test_sync_face_refuses_native_only_providers():
    engine = AsyncTransferEngine(
        {"n": NativeMemCSP("n"), "m": InMemoryCSP("m")}
    )
    try:
        with pytest.raises(TransferError, match="native async"):
            engine.provider("n")
        assert engine.provider("m").csp_id == "m"
        adapter = engine.async_provider("m")
        assert isinstance(adapter, SyncProviderAdapter)
        assert engine.async_provider("m") is adapter  # cached
        assert isinstance(engine.async_provider("n"), NativeMemCSP)
    finally:
        engine.close()


def test_register_and_unregister_move_providers_between_faces():
    engine = AsyncTransferEngine({"m": InMemoryCSP("m")})
    try:
        engine.register_provider(NativeMemCSP("m"))  # sync -> native swap
        with pytest.raises(TransferError):
            engine.provider("m")
        engine.register_provider(InMemoryCSP("m"))  # native -> sync swap
        assert engine.provider("m").csp_id == "m"
        engine.unregister_provider("m")
        with pytest.raises(TransferError):
            engine.provider("m")
        assert "m" in engine.link_caps("up") or True  # no crash on caps
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# async retry campaign (ShareRetryLoop delegation)


class FlakyOnce(InMemoryCSP):
    def __init__(self, csp_id: str):
        super().__init__(csp_id)
        self.calls = 0

    def upload(self, name, data):
        self.calls += 1
        if self.calls == 1:
            raise CSPUnavailableError("blip", csp_id=self.csp_id)
        super().upload(name, data)


class AlwaysAuthFail(InMemoryCSP):
    def upload(self, name, data):
        raise CSPAuthError("injected permanent failure", csp_id=self.csp_id)


def test_retry_loop_transient_defers_to_next_round_on_async_engine():
    flaky = FlakyOnce("flaky")
    engine = AsyncTransferEngine({"flaky": flaky}, parallelism=2)
    try:
        loop = ShareRetryLoop(engine, policy=RetryPolicy(max_attempts=3,
                                                         base_delay=0.0))
        results, attempts = loop.run(
            items=[("s0", "flaky")],
            build_op=lambda key, csp: TransferOp(
                kind=OpKind.PUT, csp_id=csp, name="s0", data=b"y" * 16),
            on_success=lambda key, csp, result: None,
            on_giveup=lambda key, csp, result: None,
            pick_alternate=lambda key, csp, tried: None,
        )
        assert [a.ok for a in attempts["s0"]] == [False, True]
        assert [a.round_no for a in attempts["s0"]] == [0, 1]
        assert flaky.object_count == 1
    finally:
        engine.close()


def test_retry_loop_fails_over_to_alternate_on_async_engine():
    bad, alt = AlwaysAuthFail("bad"), InMemoryCSP("alt")
    engine = AsyncTransferEngine({"bad": bad, "alt": alt}, parallelism=2)
    try:
        loop = ShareRetryLoop(engine, policy=RetryPolicy(max_attempts=2,
                                                         base_delay=0.0))
        landed = {}
        results, attempts = loop.run(
            items=[("s0", "bad")],
            build_op=lambda key, csp: TransferOp(
                kind=OpKind.PUT, csp_id=csp, name="s0", data=b"x" * 16),
            on_success=lambda key, csp, result: landed.setdefault(key, csp),
            on_giveup=lambda key, csp, result: None,
            pick_alternate=lambda key, csp, tried: (
                "alt" if "alt" not in tried else None),
        )
        assert landed == {"s0": "alt"}
        assert alt.object_count == 1
        assert [a.csp_id for a in attempts["s0"]] == ["bad", "alt"]
    finally:
        engine.close()


def test_retry_loop_verify_reclassifies_as_permanent_on_async_engine():
    # a provider that "succeeds" but serves a corrupt share: verify=False
    # must fail over, never retry the same provider
    src, alt = InMemoryCSP("src"), InMemoryCSP("alt")
    src.upload("s0", b"corrupt")
    alt.upload("s0", b"genuine")
    engine = AsyncTransferEngine({"src": src, "alt": alt}, parallelism=2)
    try:
        loop = ShareRetryLoop(engine, policy=RetryPolicy(max_attempts=3,
                                                         base_delay=0.0))
        got = {}
        results, attempts = loop.run(
            items=[("s0", "src")],
            build_op=lambda key, csp: TransferOp(
                kind=OpKind.GET, csp_id=csp, name="s0", size=7),
            on_success=lambda key, csp, result: got.setdefault(
                key, (csp, result.data)),
            on_giveup=lambda key, csp, result: None,
            pick_alternate=lambda key, csp, tried: (
                "alt" if "alt" not in tried else None),
            verify=lambda key, csp, result: result.data == b"genuine",
        )
        assert got == {"s0": ("alt", b"genuine")}
        history = [(a.csp_id, a.ok) for a in attempts["s0"]]
        assert history == [("src", False), ("alt", True)]
    finally:
        engine.close()


def test_async_retry_loop_is_awaitable_on_the_callers_loop():
    # the coroutine face runs the same campaign without a thread hop:
    # a permanent failure fails over in-batch on the caller's loop
    bad, alt = AlwaysAuthFail("bad"), InMemoryCSP("alt")
    engine = AsyncTransferEngine({"bad": bad, "alt": alt}, parallelism=2)
    loop = AsyncShareRetryLoop(engine, policy=RetryPolicy(max_attempts=2,
                                                          base_delay=0.0))

    async def campaign():
        return await loop.run(
            items=[("s0", "bad")],
            build_op=lambda key, csp: TransferOp(
                kind=OpKind.PUT, csp_id=csp, name="s0", data=b"x" * 16),
            on_success=lambda key, csp, result: None,
            on_giveup=lambda key, csp, result: None,
            pick_alternate=lambda key, csp, tried: (
                "alt" if "alt" not in tried else None),
        )

    try:
        results, attempts = asyncio.run(campaign())
        assert [a.csp_id for a in attempts["s0"]] == ["bad", "alt"]
        assert [a.round_no for a in attempts["s0"]] == [0, 0]  # in-batch
        assert alt.object_count == 1
        assert engine._owns_loop is False
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# sync pipelines from multiple threads share one engine safely


def test_concurrent_sync_callers_share_the_background_loop():
    csp = NativeMemCSP("n")
    engine = AsyncTransferEngine({"n": csp}, parallelism=4)
    errors: list[BaseException] = []

    def worker(tag: int) -> None:
        try:
            ops = [TransferOp(kind=OpKind.PUT, csp_id="n",
                              name=f"t{tag}-{i}", data=b"d") for i in range(4)]
            results = engine.execute(ops)
            assert all(r.ok for r in results)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    try:
        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(csp.store) == 24
    finally:
        engine.close()
