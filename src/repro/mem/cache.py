"""Set-associative write-back caches with true LRU replacement.

The asymmetric-DL1 result in the paper hinges on MRU locality (the fast way
captures the most-recently-used line of each set), so the cache model keeps
real per-set recency state rather than sampling hit rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial


@dataclass
class CacheStats:
    """Access counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over accesses; 1.0 for an untouched cache (vacuous)."""
        if self.accesses == 0:
            return 1.0
        return self.hits / self.accesses

    @property
    def miss_rate(self) -> float:
        """Misses over accesses; 0.0 for an untouched cache."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset(self) -> None:
        """Zero every counter (used between warm-up and measurement)."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def publish(self, registry, prefix: str) -> None:
        """Register lazy probes for every counter under ``prefix.`` in
        ``registry`` (a :class:`repro.obs.metrics.MetricsRegistry`); the
        hot access path keeps its plain integer attributes."""
        for name in ("accesses", "hits", "misses", "evictions", "writebacks"):
            registry.probe(f"{prefix}.{name}", partial(getattr, self, name))


#: Byte step of :meth:`Cache.access_walk`: one read per 64-byte line, the
#: granularity of functional warming.  A power of two, like line sizes.
WALK_STRIDE = 64


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class Cache:
    """A set-associative, write-back, write-allocate cache.

    Each set keeps its lines in recency order (index 0 = MRU).  Dirty state
    is tracked per line so writebacks can be counted for the energy model.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int = 64,
    ):
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if not _is_power_of_two(line_bytes):
            raise ValueError("line size must be a power of two")
        if size_bytes % (assoc * line_bytes) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} is not divisible by "
                f"assoc*line ({assoc}*{line_bytes})"
            )
        n_sets = size_bytes // (assoc * line_bytes)
        if not _is_power_of_two(n_sets):
            raise ValueError(f"{name}: set count {n_sets} must be a power of two")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.n_sets = n_sets
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = n_sets - 1
        self._tag_shift = n_sets.bit_length() - 1
        # Per set: list of tags in recency order, and a parallel dirty set.
        self._tags: list[list[int]] = [[] for _ in range(n_sets)]
        self._dirty: list[set[int]] = [set() for _ in range(n_sets)]
        self.stats = CacheStats()

    def _index_tag(self, addr: int) -> tuple[int, int]:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> self._tag_shift

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; on miss, allocate the line.  Returns hit flag.

        Evicted-dirty lines count as writebacks.  The caller is responsible
        for charging lower-level latency on a miss.  Index/tag extraction is
        inlined (vs :meth:`_index_tag`): this runs once per data access and
        several times per miss walk.
        """
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> self._tag_shift
        tags = self._tags[set_idx]
        stats = self.stats
        stats.accesses += 1
        if tag in tags:
            stats.hits += 1
            if tags[0] != tag:
                tags.remove(tag)
                tags.insert(0, tag)
            if is_write:
                self._dirty[set_idx].add(tag)
            return True
        stats.misses += 1
        self._fill(set_idx, tag, is_write)
        return False

    def access_walk(self, base: int, size_bytes: int) -> None:
        """Read ``base, base + WALK_STRIDE, ...`` below ``base + size_bytes``
        in order: the same final tags, dirty lines and statistics as calling
        :meth:`access` on each address, computed per set in closed form.

        The walk's distinct lines are an arithmetic progression, so the
        lines it maps to one set have tags ``t0, t0 + d, ...``.  Each is a
        miss; the set ends up holding the newest ``assoc`` of them (MRU
        first) followed by the old lines that still fit, and the old lines
        pushed out count as evictions (and writebacks if dirty).  A set
        that already holds one of its walk tags would hit instead, so that
        set replays its lines through :meth:`access`.
        """
        if size_bytes <= 0:
            return
        stride = WALK_STRIDE
        n_addrs = (size_bytes + stride - 1) // stride
        shift = self._line_shift
        first = base >> shift
        step = max(1, stride >> shift)
        n_lines = (((base + stride * (n_addrs - 1)) >> shift) - first) // step + 1
        stats = self.stats
        # With a stride below the line size, the accesses after a line's
        # first re-read the MRU line: hits that change nothing else.
        stats.accesses += n_addrs - n_lines
        stats.hits += n_addrs - n_lines
        # Walk position j < period is the first visit to its set; the set
        # is visited again every ``period`` positions, its tag growing by
        # ``d_tag`` each time.  So the first visits split into at most
        # three runs of sets sharing a first tag and a visit count: a cut
        # where the count drops by one (``extra``) and one where the set
        # index wraps and the tag grows by one (``wrap``).
        n_sets = self.n_sets
        period = max(1, n_sets // step)
        d_tag = max(1, step // n_sets)
        visits, extra = divmod(n_lines, period)
        firsts = min(n_lines, period)
        wrap = -(-(n_sets - (first & self._set_mask)) // step)
        cuts = sorted({0, firsts} | {c for c in (extra, wrap) if 0 < c < firsts})
        assoc = self.assoc
        tag_shift = self._tag_shift
        all_tags = self._tags
        all_dirty = self._dirty
        misses = evictions = writebacks = 0
        for j0, j1 in zip(cuts, cuts[1:]):
            line = first + j0 * step
            set0 = line & self._set_mask
            t0 = line >> tag_shift
            count = visits + (j0 < extra)
            top = t0 + (count - 1) * d_tag
            walk = range(t0, top + 1, d_tag)
            newest = walk[::-1][:assoc]
            kept = assoc - len(newest)
            filled = 0
            for set_idx in range(set0, set0 + (j1 - j0) * step, step):
                tags = all_tags[set_idx]
                if tags:
                    if (min(tags) <= top and max(tags) >= t0
                            and any(t in walk for t in tags)):
                        for t in walk:
                            self.access(((t << tag_shift) | set_idx) << shift)
                        continue
                    if len(tags) > kept:
                        dirty = all_dirty[set_idx]
                        if dirty:
                            gone = dirty.intersection(tags[kept:])
                            writebacks += len(gone)
                            dirty -= gone
                        evictions += len(tags) - kept
                        del tags[kept:]
                tags[:0] = newest
                filled += 1
            misses += filled * count
            evictions += filled * (count - len(newest))
        stats.accesses += misses
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Like :meth:`access` but does *not* allocate on a miss.

        Used where fill policy is decided elsewhere (asymmetric cache).
        """
        set_idx, tag = self._index_tag(addr)
        tags = self._tags[set_idx]
        self.stats.accesses += 1
        if tag in tags:
            self.stats.hits += 1
            if tags[0] != tag:
                tags.remove(tag)
                tags.insert(0, tag)
            if is_write:
                self._dirty[set_idx].add(tag)
            return True
        self.stats.misses += 1
        return False

    def _fill(self, set_idx: int, tag: int, is_write: bool) -> None:
        tags = self._tags[set_idx]
        if len(tags) >= self.assoc:
            victim = tags.pop()
            self.stats.evictions += 1
            if victim in self._dirty[set_idx]:
                self._dirty[set_idx].discard(victim)
                self.stats.writebacks += 1
        tags.insert(0, tag)
        if is_write:
            self._dirty[set_idx].add(tag)

    def extract(self, addr: int) -> tuple[bool, bool]:
        """Remove ``addr``'s line if present.  Returns (was_present, dirty).

        Used by the asymmetric cache to move lines between the fast and slow
        partitions without charging hits/misses.
        """
        set_idx, tag = self._index_tag(addr)
        tags = self._tags[set_idx]
        if tag not in tags:
            return False, False
        tags.remove(tag)
        dirty = tag in self._dirty[set_idx]
        self._dirty[set_idx].discard(tag)
        return True, dirty

    def insert(self, addr: int, dirty: bool = False) -> tuple[int | None, bool]:
        """Insert ``addr``'s line at MRU, evicting LRU if the set is full.

        Returns ``(victim_addr, victim_dirty)`` where ``victim_addr`` is a
        representative address of the evicted line (or None).  Statistics
        count the eviction/writeback but not a hit or miss.
        """
        set_idx, tag = self._index_tag(addr)
        tags = self._tags[set_idx]
        victim_addr: int | None = None
        victim_dirty = False
        if tag in tags:
            tags.remove(tag)
            dirty = dirty or tag in self._dirty[set_idx]
        elif len(tags) >= self.assoc:
            victim = tags.pop()
            self.stats.evictions += 1
            victim_dirty = victim in self._dirty[set_idx]
            self._dirty[set_idx].discard(victim)
            if victim_dirty:
                self.stats.writebacks += 1
            victim_line = (victim << self._tag_shift) | set_idx
            victim_addr = victim_line << self._line_shift
        tags.insert(0, tag)
        if dirty:
            self._dirty[set_idx].add(tag)
        else:
            self._dirty[set_idx].discard(tag)
        return victim_addr, victim_dirty

    def probe(self, addr: int) -> bool:
        """Check residency without touching recency or statistics."""
        set_idx, tag = self._index_tag(addr)
        return tag in self._tags[set_idx]

    def publish(self, registry, prefix: "str | None" = None) -> None:
        """Expose this cache's counters in a metrics registry (see
        :meth:`CacheStats.publish`); defaults to the cache's own name."""
        self.stats.publish(registry, prefix or self.name)

    def mru_line(self, addr: int) -> int | None:
        """The MRU tag of ``addr``'s set, or None if the set is empty."""
        set_idx, _ = self._index_tag(addr)
        tags = self._tags[set_idx]
        return tags[0] if tags else None

    def invalidate_all(self) -> None:
        """Drop every line (statistics are preserved)."""
        for s in range(self.n_sets):
            self._tags[s].clear()
            self._dirty[s].clear()

    @property
    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return sum(len(t) for t in self._tags)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name}, {self.size_bytes}B, {self.assoc}-way, "
            f"{self.n_sets} sets)"
        )
