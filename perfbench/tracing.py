"""Span recording for the traced benchmark run.

Every span comes from the benchmark's own files: class-level wrappers
around the public methods of each ``repro`` layer (installed only for
the duration of a traced pass and removed afterwards) and
:class:`ProviderProxy`, an instance-level proxy over the five provider
primitives.  Nothing under ``src/`` is modified.

Spans are kept in memory as ``[name, start, end, parent, op_id, info]``
lists (wall clock, ``time.perf_counter``) and written out once, when
the run ends.  A layer's *busy* time is the total length of its
outermost spans; its *self* time is each span's duration minus the part
of it that child spans cover (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.csp.base import CloudProvider

# span record fields
NAME, START, END, PARENT, OP, INFO = range(6)


class Recorder:
    """In-memory span store with an explicit parent stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    def begin(self, name: str, info=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.op_id, info]
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, info=None) -> None:
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - internal invariant
            raise RuntimeError("span stack corrupted")
        span = self.spans[index]
        span[END] = time.perf_counter()
        if info is not None:
            span[INFO] = info

    @contextmanager
    def op(self, kind: str, op_id: int):
        """The root span of one put/get/fleet op; children share its id."""
        self.op_id = op_id
        index = self.begin("op", {"kind": kind})
        try:
            yield
        finally:
            self.end(index)
            self.op_id = None


def _traced(recorder: Recorder, span: str, fn, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(span)
        info = None
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                info = measure(args, kwargs, result)
            return result
        finally:
            recorder.end(index, info)

    return wrapper


class ClassPatches:
    """Class-level method wrappers, installed and removed as a unit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[type, str, object]] = []

    def wrap(self, cls: type, method: str, span: str, measure=None) -> None:
        original = cls.__dict__[method]
        self._saved.append((cls, method, original))
        setattr(cls, method, _traced(self.recorder, span, original, measure))

    def remove(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def __enter__(self) -> "ClassPatches":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def install_layer_patches(recorder: Recorder) -> ClassPatches:
    """Wrap the public entry point of every layer the benchmark traces.

    Span names are ``<layer>.<what>``; :func:`layer_of` maps a span to
    its layer.  ``measure`` callbacks stash the bytes or counts a span
    handled in its info slot.
    """
    from repro.chunking import ContentDefinedChunker
    from repro.core.client import CyrusClient
    from repro.core.transfer import DirectEngine, SimulatedEngine
    from repro.erasure import KeyedSharer
    from repro.metadata.store import MetadataStore, NodeAssembler
    from repro.recovery import IntentJournal
    from repro.selection import CyrusSelector

    patches = ClassPatches(recorder)
    patches.wrap(ContentDefinedChunker, "chunk_bytes", "chunking.chunk",
                 lambda a, k, r: len(a[1]))
    patches.wrap(KeyedSharer, "split", "erasure.encode",
                 lambda a, k, r: len(a[1]))
    patches.wrap(KeyedSharer, "split_indices", "erasure.encode",
                 lambda a, k, r: len(a[1]))
    patches.wrap(KeyedSharer, "join", "erasure.decode",
                 lambda a, k, r: len(r))
    patches.wrap(KeyedSharer, "join_verified", "erasure.decode",
                 lambda a, k, r: len(r))
    patches.wrap(CyrusSelector, "select", "selection.select",
                 lambda a, k, r: len(a[1].chunks))
    patches.wrap(MetadataStore, "frames_for", "metadata.encode")
    patches.wrap(NodeAssembler, "finish", "metadata.decode")
    patches.wrap(CyrusClient, "sync", "sync.sync",
                 lambda a, k, r: r.new_nodes)
    for engine in (DirectEngine, SimulatedEngine):
        patches.wrap(
            engine, "execute", "transfer.execute",
            lambda a, k, r: (len(r), sum(1 for x in r if not x.ok)),
        )
    for method in ("begin", "record", "commit"):
        patches.wrap(IntentJournal, method, f"journal.{method}")
    return patches


class ProviderProxy(CloudProvider):
    """Times the five provider primitives; forwards everything else.

    ``corrupt`` makes the proxy flip one byte of every chunk share it
    downloads (metadata objects, ``md-*``, pass untouched; names may
    carry a tenant prefix) — the planted
    fault the self-test uses to prove a wrong read counts as a failure.
    """

    def __init__(self, inner: CloudProvider, recorder: Recorder | None,
                 corrupt: bool = False):
        super().__init__(inner.csp_id)
        self.inner = inner
        self.recorder = recorder
        self.corrupt = corrupt

    def _call(self, span: str, fn, *args, **kwargs):
        if self.recorder is None:
            return fn(*args, **kwargs)
        index = self.recorder.begin(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self.recorder.end(index)

    def authenticate(self, credentials):
        return self._call("csp.authenticate", self.inner.authenticate,
                          credentials)

    def list(self, *, prefix: str = ""):
        return self._call("csp.list", self.inner.list, prefix=prefix)

    def upload(self, name, data) -> None:
        self._call("csp.upload", self.inner.upload, name, data)

    def download(self, name):
        blob = self._call("csp.download", self.inner.download, name)
        is_metadata = name.rsplit("/", 1)[-1].startswith("md-")
        if self.corrupt and not is_metadata and blob:
            flipped = bytearray(blob)
            flipped[len(flipped) // 2] ^= 0xFF
            blob = bytes(flipped)
        return blob

    def delete(self, name) -> None:
        self._call("csp.delete", self.inner.delete, name)

    def is_up(self, t: float | None = None) -> bool:
        probe = getattr(self.inner, "is_up", None)
        if probe is None:
            return True
        return probe(t) if t is not None else probe()


def dump_spans(passes: list[list[list]], path: Path) -> None:
    """Write every traced pass's spans as JSON (one list per pass)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ("name", "start", "end", "parent", "op", "info")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([[dict(zip(fields, s)) for s in spans] for spans in passes],
                  handle)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict:
    """Per-layer and per-span-name totals over one traced pass.

    Returns ``{"layers": {layer: {"busy", "self"}}, "names": {span
    name: {"calls", "s", "infos", "durations"}}, "op_s",
    "unattributed_s", "spans"}``.  Layer busy time counts only spans
    with no ancestor of the same layer, so a nested call (``commit``
    calling ``record``) is not counted twice; per-name entries count
    every span.
    """
    child_cover = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            child_cover[parent] += span[END] - span[START]
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"busy": 0.0, "self": 0.0}
    )
    names: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "infos": [], "durations": []}
    )
    op_s = 0.0
    unattributed = 0.0
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        own = duration - child_cover[i]
        if span[NAME] == "op":
            op_s += duration
            unattributed += own
            continue
        layer = layer_of(span[NAME])
        stats = layers[layer]
        stats["self"] += own
        if not _has_layer_ancestor(spans, i, layer):
            stats["busy"] += duration
        entry = names[span[NAME]]
        entry["calls"] += 1
        entry["s"] += duration
        entry["durations"].append(duration)
        entry["infos"].append(span[INFO])
    return {
        "layers": dict(layers),
        "names": dict(names),
        "op_s": op_s,
        "unattributed_s": unattributed,
        "spans": len(spans),
    }


def _has_layer_ancestor(spans: list[list], index: int, layer: str) -> bool:
    parent = spans[index][PARENT]
    while parent is not None:
        if layer_of(spans[parent][NAME]) == layer:
            return True
        parent = spans[parent][PARENT]
    return False
