"""Multiprocessing encode pool.

Erasure encoding is pure CPU, so the concurrent transfer engine that
overlaps *transfers* (:class:`repro.core.async_engine.AsyncTransferEngine`,
whose lazy encodes run on its dispatch threads) cannot speed it up — the
GIL serialises the table lookups.  This pool moves the GF(2^8) matrix multiply into
worker *processes*: the uploader submits every planned chunk right
after placement, the workers encode while earlier chunks' shares are
still in flight, and ``_ChunkPlan.share_data`` collects the finished
share map instead of encoding inline.

Workers rebuild their :class:`KeyedSharer` once per (key, t, n) via a
per-process cache, so the dispersal-matrix construction cost is paid
once per worker, not per chunk.  Chunks cross the process boundary as
``bytes`` (memoryviews do not pickle) and shares come back the same
way; the pool therefore trades one copy per chunk for parallel encode
— worthwhile exactly when encode, not copying, is the bottleneck,
which is why the pool is opt-in (``CyrusConfig.encode_workers > 0``).

The output is bit-identical to inline encoding: workers run the same
codec backend, and share order/content do not depend on which worker
encoded what.
"""

from __future__ import annotations

import functools
import multiprocessing
from typing import Sequence


@functools.lru_cache(maxsize=64)
def _worker_sharer(key: str, t: int, n: int, backend: str):
    """Per-process sharer cache (each worker builds its matrices once)."""
    from repro.erasure.keyed import KeyedSharer

    return KeyedSharer(key, t, n, backend=backend)


def _encode_chunk(
    key: str, t: int, n: int, backend: str, data: bytes
) -> list[bytes]:
    """Worker entry: encode one chunk, return owning per-index payloads."""
    sharer = _worker_sharer(key, t, n, backend)
    return [bytes(s.data) for s in sharer.split(data)]


class EncodePool:
    """A process pool that encodes chunks ahead of the transfer engine.

    Args:
        workers: Worker process count (>= 1).
        backend: Codec backend the workers use (resolved at submit time
            when None, so the pool honours ``CYRUS_CODEC``).
    """

    def __init__(self, workers: int, backend: str | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.backend = backend
        self._pool = multiprocessing.get_context("spawn").Pool(workers)
        self._closed = False

    def submit(self, key: str, t: int, n: int, data) -> "EncodeFuture":
        """Queue one chunk for encoding; returns a future of {index: bytes}."""
        if self._closed:
            raise RuntimeError("EncodePool is closed")
        backend = self.backend
        if backend is None:
            from repro.erasure.rs import default_backend

            backend = default_backend()
        payload = data if type(data) is bytes else bytes(data)
        async_result = self._pool.apply_async(
            _encode_chunk, (key, t, n, backend, payload)
        )
        return EncodeFuture(async_result, n)

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool.close()
        self._pool.join()

    def __enter__(self) -> "EncodePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EncodeFuture:
    """Handle to one in-flight chunk encode."""

    def __init__(self, async_result, n: int):
        self._result = async_result
        self._n = n

    def get(self, timeout: float | None = None) -> dict[int, bytes]:
        """Block for the share map {index: payload} (re-raises worker errors)."""
        payloads: Sequence[bytes] = self._result.get(timeout)
        return {i: payloads[i] for i in range(self._n)}
