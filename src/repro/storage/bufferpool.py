"""A scan-resistant 2Q buffer pool between the access methods and the disk.

The paper charges every page access to the (simulated) disk, which is the
right accounting for its single-query experiments.  A serving system runs
*workloads*, and workloads have locality: consecutive queries revisit the
same index nodes and data pages.  The :class:`BufferPool` models the
memory layer that exploits that locality — a fixed-capacity cache of
``(file, page)`` frames with hit/miss accounting.

Accounting contract (relied on by the experiment harness and tests):

* a **logical** read is any page request made by an access method;
* a **physical** read is a logical read that missed the pool (or any read
  when no pool is attached / capacity is 0) — only these are charged to
  :class:`repro.storage.pager.IOCounter.reads`;
* with ``capacity=0`` the pool never retains a frame, so every logical
  read is physical and all counters reproduce the uncached (paper) numbers
  exactly.

Replacement is 2Q-style, scan-resistant admission.  A flat sequential
scan touches every summary page exactly once per query; admitting those
frames into the main LRU would evict the genuinely hot working set
without ever producing a hit ("the scan floods the cache").  Readers that
know they are scanning pass ``sequential=True``: once the main LRU is
full, those misses are admitted into a small *probation* FIFO instead.
A probationary frame promotes to the main LRU on its next access (from
any reader), so pages that repeated scans actually revisit still earn
residency — but a one-pass scan can displace at most the probation
queue, never the main frames.  The probation queue holds
``max(1, capacity // 8)`` frames *in addition* to ``capacity`` main
frames (zero when ``capacity == 0``, preserving the uncached contract).

The known weakness: a scan *longer* than the probation queue cycles the
FIFO, so even a workload that repeats the identical scan every round
never earns residency for it once the main LRU is full.

Pages in this simulator are live Python objects, so the pool caches only
*identities*; hits skip the I/O charge, nothing else.  Writes are
write-through: they always cost a physical write, and the written frame is
retained (a just-written page is in memory).  All operations take an
internal lock, so one pool may be shared by the query service's
concurrent readers (an ``explain`` on a connection thread beside the
dispatcher's batch, both under the shared read lock).
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict

__all__ = [
    "BufferPool",
    "charge_page_read",
    "pool_counters",
    "pools_of",
]


def charge_page_read(
    io,
    pool: "BufferPool | None",
    file_id: int,
    page_id: int,
    *,
    sequential: bool = False,
) -> bool:
    """Charge one logical page read to ``io``, routing through ``pool``.

    The single place that encodes the accounting contract: a pool hit
    costs a cache hit, anything else a physical read.  ``sequential``
    marks scan-shaped accesses for the pool's non-polluting admission
    path.  Returns True on a pool hit.
    """
    if pool is not None and pool.access(file_id, page_id, sequential=sequential):
        io.record_cache_hit()
        return True
    io.record_read()
    return False


def pools_of(method) -> "list[BufferPool]":
    """Every distinct :class:`BufferPool` reachable from an access method.

    Covers the method's own node-store pool, its data file's pool, and —
    for sharded methods — each child's node and data pools.  Duplicates
    (shared pools) are returned once, by identity.  Used by the batch
    executor to surface pool hit/miss counters into ``BatchStats``.
    """
    pools: list[BufferPool] = []

    def _add(pool) -> None:
        if pool is not None and all(pool is not seen for seen in pools):
            pools.append(pool)

    def _visit(node) -> None:
        _add(getattr(node, "pool", None))
        data_file = getattr(node, "data_file", None)
        if data_file is not None:
            _add(getattr(data_file, "pool", None))

    _visit(method)
    for shard in getattr(method, "shards", None) or []:
        _visit(shard)
    return pools


def pool_counters(pools) -> tuple[int, int]:
    """Summed ``(hits, misses)`` across ``pools``."""
    hits = misses = 0
    for pool in pools:
        hits += pool.hits
        misses += pool.misses
    return hits, misses


class BufferPool:
    """A shared cache of ``(file_id, page_id)`` frames.

    One pool may back several page files (an index's node store plus its
    data file, or several trees in a batch harness); each backing file
    registers itself to obtain a distinct ``file_id`` namespace.

    Args:
        capacity: maximum number of main-LRU frames held.  The probation
            FIFO adds ``max(1, capacity // 8)`` frames on top.  ``0``
            disables caching (every access is a miss and nothing is
            retained), reproducing uncached I/O accounting exactly.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self.probation_capacity = max(1, self.capacity // 8) if self.capacity else 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._frames: OrderedDict[tuple[int, int], None] = OrderedDict()
        self._probation: OrderedDict[tuple[int, int], None] = OrderedDict()
        self._next_file_id = 0
        self._lock = threading.RLock()

    @classmethod
    def partition(cls, capacity: int, shards: int) -> "list[BufferPool]":
        """Slice one frame budget into ``shards`` independent pools.

        A sharded access method gives each shard its own pool so one
        shard's working set cannot evict another's — the memory-layer
        analogue of the shard's private PageStore.  The total budget is
        preserved: slice capacities are as even as possible and sum to
        ``capacity`` exactly.  Remainder frames are *interleaved
        round-robin* across the slice list (slice 0 always takes the
        first bonus frame) rather than front-loaded onto a consecutive
        prefix, so when consumers are grouped — e.g. shard 0's node
        store next to shard 0's neighbours — the bonus capacity spreads
        across the groups instead of piling onto the first one.  A
        ``capacity`` of 0 yields all-disabled pools, keeping the
        uncached accounting contract shard by shard.

        A *nonzero* budget smaller than ``shards`` cannot give every
        slice a frame: the short slices — including the trailing one —
        come out capacity 0 (fully disabled, silently uncached), which
        is almost never what a caller sizing a cache wants, so this case
        raises a ``UserWarning`` naming the disabled slice count.  Order
        the consumers so the most valuable file takes slice 0, which is
        always funded when any slice is.
        """
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        capacity = int(capacity)
        # Bresenham-style spread, anchored so slice 0 gets ceil(c/s):
        # slice i receives the budget between the (shards-i-1)-th and
        # (shards-i)-th evenly spaced cut points.
        caps = [
            (capacity * (shards - i)) // shards
            - (capacity * (shards - i - 1)) // shards
            for i in range(shards)
        ]
        if capacity and caps[-1] == 0:
            warnings.warn(
                f"buffer-pool budget {capacity} spans only "
                f"{sum(1 for c in caps if c)} of {shards} slices; "
                f"{sum(1 for c in caps if not c)} trailing/interleaved "
                "slices are capacity 0 (uncached)",
                UserWarning,
                stacklevel=2,
            )
        return [cls(c) for c in caps]

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_file(self) -> int:
        """Reserve a fresh file-id namespace for one backing page file."""
        with self._lock:
            file_id = self._next_file_id
            self._next_file_id += 1
            return file_id

    # ------------------------------------------------------------------
    # the cache protocol
    # ------------------------------------------------------------------
    def access(self, file_id: int, page_id: int, *, sequential: bool = False) -> bool:
        """Request one page; returns True on a hit, False on a miss.

        A miss loads the frame into the main LRU (evicting its
        least-recently-used frame if full).  A ``sequential`` miss is
        allowed a main slot only while main has *spare* capacity — a
        scan may use idle memory (so repeated scans over an
        under-committed pool still hit, as under plain LRU) but never
        evicts a resident frame; once main is full, sequential misses go
        to the probation FIFO.  A hit refreshes recency; a probationary
        hit additionally promotes the frame into the main LRU.
        """
        key = (file_id, page_id)
        with self._lock:
            if key in self._frames:
                self._frames.move_to_end(key)
                self.hits += 1
                return True
            if key in self._probation:
                # Re-referenced within its probation window: the frame has
                # proven reuse, so it earns a main-LRU slot.
                del self._probation[key]
                self.hits += 1
                self._load(key)
                return True
            self.misses += 1
            if sequential and len(self._frames) >= self.capacity:
                self._load_probation(key)
            else:
                self._load(key)
            return False

    def admit(self, file_id: int, page_id: int) -> None:
        """Retain a frame without charging a hit or miss.

        Used by write paths: a page just written is resident in memory, so
        the next read of it should hit.
        """
        key = (file_id, page_id)
        with self._lock:
            if key in self._frames:
                self._frames.move_to_end(key)
            else:
                self._probation.pop(key, None)
                self._load(key)

    def invalidate(self, file_id: int, page_id: int) -> None:
        """Drop a frame (page freed/deallocated); no-op when absent."""
        key = (file_id, page_id)
        with self._lock:
            self._frames.pop(key, None)
            self._probation.pop(key, None)

    def clear(self) -> None:
        """Drop every frame (counters kept)."""
        with self._lock:
            self._frames.clear()
            self._probation.clear()

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction counters (frames are kept)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _load(self, key: tuple[int, int]) -> None:
        if self.capacity == 0:
            return
        self._frames[key] = None
        if len(self._frames) > self.capacity:
            self._frames.popitem(last=False)
            self.evictions += 1

    def _load_probation(self, key: tuple[int, int]) -> None:
        if self.probation_capacity == 0:
            return
        self._probation[key] = None
        if len(self._probation) > self.probation_capacity:
            self._probation.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._frames) + len(self._probation)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._frames or key in self._probation

    @property
    def accesses(self) -> int:
        """Total logical accesses routed through the pool."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from memory (0.0 when unused)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    def resident_pages(self) -> list[tuple[int, int]]:
        """Main-LRU frames, least- to most-recently used."""
        return list(self._frames)

    def probation_pages(self) -> list[tuple[int, int]]:
        """Probationary frames, oldest first."""
        return list(self._probation)

    def __repr__(self) -> str:
        return (
            f"BufferPool(capacity={self.capacity}, resident={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
