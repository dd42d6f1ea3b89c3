"""The structured fault taxonomy of the resilient execution runtime.

Before this module the engine had exactly one failure mode: a bare
``RuntimeError`` (or a worker traceback string) that killed the whole
batch and often left the executor unusable.  Production operation needs
failures that are *classifiable* — the degradation ladder in
:mod:`repro.exec.resilience` retries transient faults, falls back across
backends on worker faults, and refuses to touch corrupt data — so every
fault the runtime can recover from gets its own exception type here.

This module sits at the very bottom of the package (standard library
only), next to :mod:`repro.env`: the storage layer raises
:class:`CorruptPageError`/:class:`TransientIOError`, the process
executor raises :class:`WorkerError`/:class:`WorkerTimeout`, and the
resilience layer catches them all as :class:`FaultError` without import
cycles.

All types subclass ``RuntimeError`` so pre-existing callers that caught
``RuntimeError`` (the seed's only contract) keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "CorruptPageError",
    "DegradedWarning",
    "FaultError",
    "TransientIOError",
    "WorkerError",
    "WorkerTimeout",
]


class FaultError(RuntimeError):
    """Base of every recoverable runtime fault.

    The degradation ladder (:class:`repro.exec.resilience.BatchSupervisor`)
    catches exactly this type: anything else — a ``ValueError`` from bad
    arguments, a ``KeyError`` from a missing method — is a programming
    error and propagates untouched, because retrying it on a different
    backend would only repeat it.
    """


class TransientIOError(FaultError):
    """A simulated disk read kept failing past the bounded retry budget.

    Attributes:
        page_id: the page whose read failed.
        attempts: total read attempts charged (initial + retries).
    """

    def __init__(self, message: str, *, page_id: int = -1, attempts: int = 0):
        super().__init__(message)
        self.page_id = page_id
        self.attempts = attempts


class CorruptPageError(FaultError):
    """A page's crc32 failed verification (``DataFile`` checksum mode).

    Attributes:
        page_id: the page whose stored and recomputed checksums differ.
    """

    def __init__(self, message: str, *, page_id: int = -1):
        super().__init__(message)
        self.page_id = page_id


class WorkerError(FaultError):
    """A worker process raised; carries its formatted traceback.

    Historically defined in :mod:`repro.exec.mpexec` as a plain
    ``RuntimeError`` subclass; it now lives in the shared taxonomy (and
    is still re-exported from its old home) so the supervisor can treat
    worker death like any other recoverable fault.
    """


class WorkerTimeout(WorkerError):
    """A worker missed its per-command deadline (hung, not dead).

    Raised after the supervisor killed and (budget permitting) respawned
    the wedged worker; distinguishable from :class:`WorkerError` so
    operators can tell a crash loop from a livelock.
    """


class DegradedWarning(RuntimeWarning):
    """The runtime absorbed a fault and continued in a degraded mode.

    Emitted once per degradation event: a scrubbed corrupt page, a
    respawned worker whose fault domain was retried, or a batch that
    fell down the process → serial ladder.  Answers are
    bit-identical in every degraded mode; the warning exists so silent
    capacity loss is visible to operators and assertable in tests.
    """
