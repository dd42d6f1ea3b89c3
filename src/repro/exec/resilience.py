"""Graceful degradation: run a batch down a ladder of backends.

The process executor supervises its own workers (respawn + fault-domain
retry, :mod:`repro.exec.mpexec`), and the storage layer scrubs corrupt
pages and retries flaky reads (:mod:`repro.storage.pager`).  What
neither can fix alone — a worker crash-loop past its retry budget, a
corrupt page detected inside a forked worker, a fault class nobody
anticipated — lands here: :class:`BatchSupervisor` re-runs the *whole
batch* on the next backend down a configured ladder:

    process  →  serial

Answers are bit-identical at every level (the equivalence suite pins
it), so degradation trades throughput for availability and nothing
else.  Each descent emits a :class:`~repro.faults.DegradedWarning` and
is recorded in the surviving batch's
:class:`~repro.exec.batch.BatchStats` (``degraded_to``,
``fault_events``, plus the retry/respawn/scrub counters carried over
from the failed attempts), so ``explain()``-style reporting and the
chaos tests can see exactly what the runtime absorbed.

Only :class:`~repro.faults.FaultError` triggers a descent.  Programming
errors (``ValueError``, ``KeyError``, …) propagate untouched from the
first backend that raises them — re-running a bug on a slower backend
just repeats the bug.

The taxonomy itself lives in :mod:`repro.faults` (the storage layer
needs it below the exec package); it is re-exported here because this
module is the documented resilience surface.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence

from repro.faults import (
    CorruptPageError,
    DegradedWarning,
    FaultError,
    TransientIOError,
    WorkerError,
    WorkerTimeout,
)

__all__ = [
    "BatchSupervisor",
    "CorruptPageError",
    "DegradedWarning",
    "FaultError",
    "TransientIOError",
    "WorkerError",
    "WorkerTimeout",
]


def _fault_summary(exc: BaseException) -> str:
    """One bounded line describing a fault (tracebacks can be pages)."""
    text = str(exc).strip().splitlines()
    head = text[0] if text else ""
    if len(head) > 200:
        head = head[:197] + "..."
    return f"{type(exc).__name__}: {head}"


class BatchSupervisor:
    """Run one query batch down a degradation ladder of executors.

    Args:
        ladder: ``(level_name, factory)`` pairs, most capable first.
            Factories are called lazily — a fault-free run builds only
            the first backend.  Each factory returns an object with a
            ``run(queries) -> BatchResult`` method (a
            :class:`~repro.exec.batch.BatchExecutor` or subclass).
        data_file: the method's :class:`~repro.storage.pager.DataFile`,
            when available — its integrity counters are delta'd around
            the run so scrubbed pages and absorbed transient retries
            surface in the batch stats.
    """

    def __init__(
        self,
        ladder: Sequence[tuple[str, Callable[[], object]]],
        *,
        data_file=None,
    ):
        if not ladder:
            raise ValueError("the degradation ladder needs at least one level")
        self.ladder = list(ladder)
        self.data_file = data_file

    def run(self, queries):
        """Execute ``queries``, descending the ladder on ``FaultError``.

        Returns the first surviving level's ``BatchResult``, annotated
        with everything absorbed on the way down.  Raises the last
        level's fault if even the bottom of the ladder fails.
        """
        df = self.data_file
        base = (
            (df.corrupt_pages_detected, df.pages_scrubbed, df.transient_retries)
            if df is not None
            else (0, 0, 0)
        )
        events: list[str] = []
        carried_retries = 0
        carried_respawns = 0
        for index, (level, factory) in enumerate(self.ladder):
            executor = factory()
            try:
                result = executor.run(queries)
            except FaultError as exc:
                # The failed attempt's supervision ledger still counts:
                # carry it into whichever level finally answers.
                carried_retries += getattr(executor, "_run_retries", 0)
                carried_respawns += getattr(executor, "_run_respawns", 0)
                events.append(f"{level}: {_fault_summary(exc)}")
                if index + 1 >= len(self.ladder):
                    raise
                next_level = self.ladder[index + 1][0]
                warnings.warn(
                    f"batch failed on the {level!r} backend "
                    f"({_fault_summary(exc)}); degrading to {next_level!r}",
                    DegradedWarning,
                    stacklevel=2,
                )
                continue
            batch = result.batch
            batch.fault_retries += carried_retries
            batch.worker_respawns += carried_respawns
            batch.fault_events[:0] = events
            if events:
                batch.degraded_to = level
            if df is not None:
                batch.corrupt_pages += df.corrupt_pages_detected - base[0]
                batch.pages_scrubbed += df.pages_scrubbed - base[1]
                batch.io_retries += df.transient_retries - base[2]
            return result
        raise AssertionError("unreachable: ladder exhausted without raising")
