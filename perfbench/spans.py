"""A span recorder that times engine calls from outside the engine.

``Recorder.install`` replaces functions and methods of the engine with
timing wrappers: module-level names at the module where they are called
(``repro.core.utree.compute_pcrs``), methods on their class.
``Recorder.uninstall`` puts the originals back, so a run can switch
tracing on and off between measurement blocks.  Each call records one
span: ``(id, name, start, end, parent id, context id, phase, extra)``.
The parent is the innermost traced call open on the same thread; the
context id names the request or batch the span belongs to (a span
declared ``new_context`` opens a new one when it is the outermost call
on its thread, and later outermost calls on that thread inherit it).
Spans stay in memory; ``dump`` writes them out once, at the end.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._targets: list[tuple] = []
        self._patches: list[tuple] = []

    def add(self, owner, attr: str, name: str, *, new_context: bool = False,
            before=None, after=None) -> None:
        """Register a call site; ``before(args)`` / ``after(args, result,
        state, start, ctx)`` may attach counters to the span's ``extra``."""
        self._targets.append((owner, attr, name, new_context, before, after))

    def install(self) -> None:
        if self._patches:
            return
        for owner, attr, name, new_context, before, after in self._targets:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, new_context, before, after))
            self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _wrap(self, original, name, new_context, before, after):
        local = self._local
        ids = self._ids
        spans = self.spans
        recorder = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if new_context and not stack:
                local.ctx = next(ids)
            parent = stack[-1] if stack else 0
            ctx = getattr(local, "ctx", 0)
            sid = next(ids)
            phase = recorder.phase
            state = before(args) if before is not None else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, name, start, time.perf_counter(), parent, ctx, phase, None))
                raise
            end = time.perf_counter()
            stack.pop()
            extra = after(args, result, state, start, ctx) if after is not None else None
            spans.append((sid, name, start, end, parent, ctx, phase, extra))
            return result

        traced.__wrapped__ = original
        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON line (the trace file of a run)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, ctx, phase, extra in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "ctx": ctx, "phase": phase, "extra": extra,
                }, separators=(",", ":")) + "\n")


class SpanIndex:
    """Durations, self times and children of recorded spans."""

    def __init__(self, spans: list[tuple]):
        self._child_time: dict[int, float] = defaultdict(float)
        self.children: dict[int, list[tuple]] = defaultdict(list)
        self._by_name: dict[str, list[tuple]] = defaultdict(list)
        for span in spans:
            self._by_name[span[1]].append(span)
            if span[4]:
                self._child_time[span[4]] += span[3] - span[2]
                self.children[span[4]].append(span)

    def select(self, name: str, phases: tuple[str, ...]) -> list[tuple]:
        return [s for s in self._by_name.get(name, ()) if s[6] in phases]

    @staticmethod
    def duration(span: tuple) -> float:
        return span[3] - span[2]

    def self_time(self, span: tuple) -> float:
        """Duration minus the part of it that its child spans cover."""
        return span[3] - span[2] - self._child_time.get(span[0], 0.0)

    def total(self, name: str, phases: tuple[str, ...], *, self_only: bool = False) -> float:
        pick = self.self_time if self_only else self.duration
        return sum(pick(s) for s in self.select(name, phases))
