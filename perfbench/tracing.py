"""Wall-clock tracing of the simulator's layers, from outside the program.

The benchmark's traced run wraps the public calls into each layer (class
methods and module-level names) with timing closures.  Nothing under
``src/`` is edited: :meth:`Tracer.wrap` swaps an attribute and records how
to put it back, and :meth:`Tracer.uninstall` restores every original.

Two kinds of boundary:

* **Fine** boundaries (per packet / per ACK: ``Host.receive``,
  ``SenderQP.on_ack``, a CC's ``on_ack``, an LB router) are aggregated as
  call count, total time and self time; keeping one span per call would
  cost more than the work it measures.
* **Coarse** boundaries (fabric build, flow launch, each ``Simulator.run``
  chunk, each fluid phase, ``SweepExecutor.map``) additionally keep a full
  span: id, name, start, end and parent id.  Every span of one traced
  batch experiment shares :attr:`Tracer.run_id`.

A boundary's *self* time is its total minus the time its wrapped children
cover, so ``Simulator.run``'s self time is the engine loop plus everything
inlined into it (the fused hop pipeline cannot be split from outside).

The wrappers never read or write simulation state, so a traced run must
reproduce the untraced run's fingerprints and work counters exactly; the
runner checks that on every traced run.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Union

_clock = time.perf_counter_ns

NameFn = Callable[[tuple, dict], str]


class Tracer:
    """Per-boundary aggregates plus coarse spans for one batch experiment."""

    def __init__(self) -> None:
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        #: boundary name -> [calls, total_ns, self_ns]
        self.agg: Dict[str, List[int]] = {}
        #: [span_id, name, start_ns, end_ns, parent_id]
        self.spans: List[list] = []
        # One frame per open boundary: [child_ns, span_id of nearest span].
        self._stack: List[list] = []
        self._undo: List[tuple] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str, span: bool) -> list:
        stack = self._stack
        parent = stack[-1][1] if stack else None
        if span:
            sid = len(self.spans)
            self.spans.append([sid, name, 0, 0, parent])
            frame = [0, sid]
        else:
            frame = [0, parent]
        stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, span: bool, t0: int, t1: int) -> None:
        stack = self._stack
        stack.pop()
        dt = t1 - t0
        rec = self.agg.get(name)
        if rec is None:
            rec = self.agg[name] = [0, 0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[0]
        if span:
            s = self.spans[frame[1]]
            s[2], s[3] = t0, t1
        if stack:
            stack[-1][0] += dt

    @contextmanager
    def span(self, name: str):
        """A coarse span around benchmark-side code (import, generation)."""
        frame = self._open(name, True)
        t0 = _clock()
        try:
            yield
        finally:
            self._close(name, frame, True, t0, _clock())

    def timed(
        self,
        name: Union[str, NameFn],
        fn: Callable,
        span: bool = False,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped as boundary ``name`` (or ``name(args, kwargs)``).

        The fine form is kept minimal: it runs once per packet."""
        if not span and isinstance(name, str) and on_result is None:
            stack = self._stack
            rec = self.agg.setdefault(name, [0, 0, 0])

            def fine(*args, **kwargs):
                frame = [0, stack[-1][1] if stack else None]
                stack.append(frame)
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _clock() - t0
                    stack.pop()
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt

            return fine

        def coarse(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            frame = self._open(label, span)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(label, frame, span, t0, _clock())
            if on_result is not None:
                on_result(out)
            return out

        return coarse

    # -- installing -----------------------------------------------------

    def wrap(self, owner: Any, attr: str, name, span: bool = False, on_result=None) -> None:
        """Replace ``owner.attr`` (a class or a module) by its timed form."""
        own = vars(owner)
        had = attr in own
        original = own[attr] if had else getattr(owner, attr)
        self._undo.append((owner, attr, had, original))
        setattr(owner, attr, self.timed(name, original, span=span, on_result=on_result))

    def wrap_factory(self, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr``, a method returning a callable, so that the
        callable it returns is timed as fine boundary ``name``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, attr in vars(owner), original))

        def factory(*args, **kwargs):
            return self.timed(name, original(*args, **kwargs))

        setattr(owner, attr, factory)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, had, original = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading --------------------------------------------------------

    def total_s(self, name: str) -> float:
        rec = self.agg.get(name)
        return rec[1] / 1e9 if rec else 0.0

    def self_s(self, name: str) -> float:
        rec = self.agg.get(name)
        return rec[2] / 1e9 if rec else 0.0

    def calls(self, name: str) -> int:
        rec = self.agg.get(name)
        return rec[0] if rec else 0

    def write(self, path: str) -> None:
        """Write the spans and aggregates out (called once, at run end)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "run_id": self.run_id,
            "spans": [
                {"id": s[0], "name": s[1], "start_ns": s[2], "end_ns": s[3], "parent": s[4]}
                for s in self.spans
            ],
            "boundaries": {
                k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]}
                for k, v in sorted(self.agg.items())
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class FirstEvent:
    """Records when the first simulated event of a run is about to be
    dispatched: the end of set-up.  Each armed method wraps itself once
    and restores the original on its first call, so it costs nothing
    afterwards."""

    def __init__(self) -> None:
        self.at: Optional[float] = None

    def arm(self, owner: Any, attr: str) -> None:
        own = vars(owner)
        had = attr in own
        original = own[attr] if had else getattr(owner, attr)

        def first(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
            return original(*args, **kwargs)

        setattr(owner, attr, first)
