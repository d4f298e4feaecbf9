"""Set-associative, sectored, LRU caches with residency (pinning) support.

Lines are 128 B; statistics are kept at 32 B *sector* granularity, the
way Nsight Compute reports hit rates (a one-sector index load and a
four-sector row load weigh differently, which is what produces the
paper's ~19% L1 hit rate for ``random`` even though every index load
hits).

Pinning models Ampere's L2 residency control: pinned lines live in a
dedicated set-aside map and are never evicted by normal traffic — the
``evict_last`` policy at the granularity the paper uses (whole hot rows
pinned once, before the kernel).
"""

from __future__ import annotations

from repro.config.gpu import CACHE_LINE_BYTES


class SectoredCache:
    """One cache level.  Addresses are byte addresses; lookups are by line."""

    __slots__ = (
        "name", "capacity_bytes", "assoc", "num_sets", "sets",
        "hit_sectors", "miss_sectors", "pinned", "pin_hit_sectors",
        "pin_capacity_lines",
    )

    def __init__(self, name: str, capacity_bytes: int, assoc: int,
                 pin_capacity_bytes: int = 0) -> None:
        if capacity_bytes < CACHE_LINE_BYTES * assoc:
            raise ValueError(
                f"{name}: capacity {capacity_bytes} below one set"
            )
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.assoc = assoc
        self.num_sets = max(1, capacity_bytes // (CACHE_LINE_BYTES * assoc))
        # Per-set recency order as an insertion-ordered dict: most
        # recently used at the END, victim at the front — O(1) hit
        # promotion and eviction instead of O(assoc) list surgery.
        self.sets: list[dict[int, None]] = [{} for _ in range(self.num_sets)]
        self.hit_sectors = 0
        self.miss_sectors = 0
        self.pinned: set[int] = set()
        self.pin_hit_sectors = 0
        self.pin_capacity_lines = pin_capacity_bytes // CACHE_LINE_BYTES

    def access(self, line: int, sectors: int) -> bool:
        """Probe for ``line``; returns True on hit.  On miss the line is
        allocated MRU (fill timing is tracked by the hierarchy's MSHRs)."""
        if line in self.pinned:
            self.hit_sectors += sectors
            self.pin_hit_sectors += sectors
            return True
        ways = self.sets[line % self.num_sets]
        if line in ways:
            self.hit_sectors += sectors
            del ways[line]  # promote to MRU (re-insert at the end)
            ways[line] = None
            return True
        self.miss_sectors += sectors
        ways[line] = None
        if len(ways) > self.assoc:
            del ways[next(iter(ways))]  # evict LRU (front)
        return False

    def contains(self, line: int) -> bool:
        """Non-mutating probe (no stats, no LRU update)."""
        return line in self.pinned or line in self.sets[line % self.num_sets]

    def allocate(self, line: int) -> None:
        """Insert a line without counting a demand access (store-allocate,
        prefetch fill)."""
        if line in self.pinned:
            return
        ways = self.sets[line % self.num_sets]
        if line in ways:
            del ways[line]
            ways[line] = None
            return
        ways[line] = None
        if len(ways) > self.assoc:
            del ways[next(iter(ways))]

    def pin(self, line: int) -> bool:
        """Pin a line into the set-aside region.  Returns False when the
        set-aside partition is full (the paper's 60K-row limit)."""
        if line in self.pinned:
            return True
        if len(self.pinned) >= self.pin_capacity_lines:
            return False
        self.pinned.add(line)
        # A pinned line must not also occupy a normal way.
        self.sets[line % self.num_sets].pop(line, None)
        return True

    def unpin_all(self) -> None:
        self.pinned.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hit_sectors + self.miss_sectors
        return self.hit_sectors / total if total else 0.0

    def reset_stats(self) -> None:
        self.hit_sectors = 0
        self.miss_sectors = 0
        self.pin_hit_sectors = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SectoredCache({self.name}, {self.capacity_bytes >> 10} KiB, "
            f"{self.assoc}-way, hit_rate={self.hit_rate:.2%})"
        )
