"""Per-layer ledger of the traced run.

Layers are timed from outside the program: :meth:`SpanRecorder.install`
replaces the attribute a caller actually looks up (``engine.
rank_candidates_many``, ``ranking.solve_transport``, a class method
such as ``MetadataManager.put_object``) with a wrapper that opens a
span around the original.  Spans are kept in memory as per-layer
totals and turned into metrics when the run ends.

Spans nest per thread.  A span's *self* time is its duration minus the
durations of the spans opened directly inside it on the same thread; a
span opened on a thread with no open span (a scan worker, a scatter
thread, a server handler thread) is *detached* and reported as busy time
only.  The ledger sums the layers' self times inside the per-operation
trees rooted at the benchmark's own ``client.*`` spans against the
loops' wall time; a root's own self time is time no layer explains and
stays out of the sum.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional

#: A ledger whose layer sum is off from the traced wall time by more
#: than this share fails its self-check (``check.ledger_sum``).
SUM_TOLERANCE = 0.05


class LayerStat:
    """Totals of one named layer."""

    __slots__ = ("count", "total", "self_total", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.samples: List[float] = []


class _Frame:
    __slots__ = ("name", "start", "child", "duration")

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = 0.0
        self.child = 0.0
        self.duration = 0.0


class SpanRecorder:
    """Thread-nested spans, aggregated per layer name."""

    def __init__(self, keep_samples=()) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._keep = set(keep_samples)
        self._installed: List[tuple] = []
        self.layers: Dict[str, LayerStat] = {}
        #: Summed self time of every wrapped span under a ``client.*``
        #: root: the time the layers explain.
        self.attributed = 0.0

    # -- spans -------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _open(self, frame: _Frame) -> None:
        self._stack().append(frame)
        frame.start = time.perf_counter()

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        frame.duration = end - frame.start
        own = frame.duration - frame.child
        root = stack[0].name if stack else frame.name
        in_tree = root.startswith("client.")
        if stack:
            stack[-1].child += frame.duration
        # Every span counts under its own name; spans inside an
        # operation tree also count under "<root>/<name>", so a layer's
        # share can be split by the operation that caused it.
        keys = [frame.name]
        if in_tree and stack:
            keys.append(f"{root}/{frame.name}")
        with self._lock:
            for key in keys:
                stat = self.layers.get(key)
                if stat is None:
                    stat = self.layers[key] = LayerStat()
                stat.count += 1
                stat.total += frame.duration
                stat.self_total += own
                if frame.name in self._keep:
                    stat.samples.append(frame.duration)
            if in_tree and stack:
                self.attributed += own

    def snapshot(self) -> Dict[str, tuple]:
        """Totals per layer key, for phase deltas (see :func:`delta`)."""
        with self._lock:
            return {
                k: (v.count, v.total, v.self_total, len(v.samples))
                for k, v in self.layers.items()
            }

    # -- wrappers ----------------------------------------------------
    def install(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Optional[Callable[[tuple, dict, object, float], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as layer ``name``.

        ``observe(args, kwargs, result, seconds)`` runs after each call,
        outside the span, to read counts off the arguments or result.
        """
        raw = inspect.getattr_static(owner, attr)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            recorder._open(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(frame)
            if observe is not None:
                observe(args, kwargs, result, frame.duration)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(
        self, *installers: Callable[["SpanRecorder"], None]
    ) -> Iterator["SpanRecorder"]:
        """Wrappers in place for the ``with`` block only: each
        ``installer(recorder)`` installs its layer's wrappers, and all of
        them are removed on exit, so the untraced half of a run is the
        unwrapped program."""
        try:
            for installer in installers:
                installer(self)
            yield self
        finally:
            self.uninstall()


class _Span:
    """Context manager form of a span (for the benchmark's own roots)."""

    __slots__ = ("_recorder", "frame")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self.frame = _Frame(name)

    def __enter__(self) -> _Frame:
        self._recorder._open(self.frame)
        return self.frame

    def __exit__(self, *exc) -> None:
        self._recorder._close(self.frame)


class PhaseView:
    """Layer totals accumulated between two :meth:`SpanRecorder.snapshot`
    calls (one measured phase)."""

    def __init__(self, recorder: SpanRecorder, before: Dict[str, tuple]) -> None:
        self._recorder = recorder
        self._before = before
        self._after = recorder.snapshot()

    def _delta(self, key: str, field: int) -> float:
        after = self._after.get(key)
        if after is None:
            return 0
        before = self._before.get(key, (0, 0.0, 0.0, 0))
        return after[field] - before[field]

    def count(self, key: str) -> int:
        return int(self._delta(key, 0))

    def total(self, key: str) -> float:
        return float(self._delta(key, 1))

    def self_time(self, key: str) -> float:
        return float(self._delta(key, 2))

    def samples(self, key: str) -> List[float]:
        stat = self._recorder.layers.get(key)
        if stat is None or key not in self._after:
            return []
        start = self._before.get(key, (0, 0.0, 0.0, 0))[3]
        return stat.samples[start : self._after[key][3]]


def per(value: float, count: float) -> float:
    """``value / count``, 0 when nothing was counted."""
    return value / count if count else 0.0


def sum_check(attributed_seconds: float, wall_seconds: float) -> Dict[str, float]:
    """Self-check: the time the layers explain must add up to the traced
    wall time within :data:`SUM_TOLERANCE`.  A shortfall is time spent
    outside every wrapped layer (the loop's bookkeeping, or a slow
    section no wrapper covers); an excess means overlapping,
    double-counted spans."""
    share = per(attributed_seconds, wall_seconds)
    return {
        "ledger.sum_share": share,
        "ledger.sum_ok": float(abs(1.0 - share) <= SUM_TOLERANCE),
    }

