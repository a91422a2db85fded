"""Tests for the memory hierarchy and the contention model."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.configs import cpu_config
from repro.core.simulate import _prewarm
from repro.mem.asym import AsymmetricL1
from repro.mem.cache import Cache
from repro.mem.contention import SharedResourceContention
from repro.mem.hierarchy import AccessResult, CacheLatencies, MemoryHierarchy
from repro.workloads.profiles import CPU_APPS, cpu_app


def make_hierarchy(**kw):
    return MemoryHierarchy(CacheLatencies(), **kw)


class TestLatencies:
    def test_dram_cycles_at_2ghz(self):
        assert CacheLatencies().dram_cycles(2.0) == 100

    def test_dram_cycles_at_1ghz(self):
        assert CacheLatencies().dram_cycles(1.0) == 50

    def test_tfet_round_trips(self):
        lat = CacheLatencies(dl1_rt=4, l2_rt=12, l3_rt=40)
        assert (lat.dl1_rt, lat.l2_rt, lat.l3_rt) == (4, 12, 40)


class TestAccessWalk:
    def test_cold_access_reaches_dram(self):
        h = make_hierarchy(prefetch_lines=0)
        r = h.data_access(0x10000)
        assert r.level == "dram"
        assert r.latency == 32 + 100
        assert h.dram_accesses == 1

    def test_warm_access_hits_dl1(self):
        h = make_hierarchy()
        h.data_access(0x10000)
        r = h.data_access(0x10000)
        assert r.level == "dl1"
        assert r.latency == 2

    def test_l2_hit_after_dl1_eviction(self):
        h = make_hierarchy(prefetch_lines=0)
        h.data_access(0x10000)
        # Evict from the 8-way DL1 by touching 8 conflicting lines
        # (set stride = 64 sets * 64B = 4KB).
        for i in range(1, 9):
            h.data_access(0x10000 + i * 4 * 1024)
        r = h.data_access(0x10000)
        assert r.level == "l2"
        assert r.latency == 8

    def test_fetch_through_il1(self):
        h = make_hierarchy(prefetch_lines=0)
        first = h.fetch(0x400000)
        again = h.fetch(0x400000)
        assert first.level == "dram"
        assert again.level == "il1"
        assert again.latency == 2

    def test_store_updates_state(self):
        h = make_hierarchy()
        h.data_access(0x20000, is_write=True)
        r = h.data_access(0x20000)
        assert r.level == "dl1"


class TestPrefetch:
    def test_next_lines_prefetched_into_l2(self):
        h = make_hierarchy(prefetch_lines=2)
        h.data_access(0x40000)
        # The two next lines should now hit in L2 (not DRAM).
        r = h.data_access(0x40000 + 64)
        assert r.level == "l2"
        r = h.data_access(0x40000 + 128)
        assert r.level in ("l2", "dl1")

    def test_prefetch_disabled(self):
        h = make_hierarchy(prefetch_lines=0)
        h.data_access(0x40000)
        r = h.data_access(0x40000 + 64)
        assert r.level == "dram"

    def test_negative_prefetch_rejected(self):
        with pytest.raises(ValueError):
            make_hierarchy(prefetch_lines=-1)


class TestAsymmetricIntegration:
    def test_fast_and_slow_levels_reported(self):
        h = make_hierarchy(dl1=AsymmetricL1())
        h.data_access(0x1000)
        r = h.data_access(0x1000)
        assert r.level == "dl1-fast"
        assert r.latency == 1

    def test_miss_pays_extra_probe_cycle(self):
        h = make_hierarchy(dl1=AsymmetricL1(), prefetch_lines=0)
        r = h.data_access(0x50000)
        assert r.level == "dram"
        assert r.latency == 32 + 100 + 1

    def test_has_asymmetric_flag(self):
        assert make_hierarchy(dl1=AsymmetricL1()).has_asymmetric_dl1
        assert not make_hierarchy().has_asymmetric_dl1

    def test_stats_summary_shapes(self):
        plain = make_hierarchy()
        plain.data_access(0x0)
        asym = make_hierarchy(dl1=AsymmetricL1())
        asym.data_access(0x0)
        for h in (plain, asym):
            summary = h.dl1_stats_summary()
            assert {"accesses", "hit_rate", "fast_hit_rate", "line_moves"} <= set(summary)


class TestPrewarm:
    def test_prewarm_fills_l3(self):
        h = make_hierarchy(prefetch_lines=0)
        # Larger than L2, so only the L3 retains it.
        h.prewarm_region(0x100000, 512 * 1024)
        r = h.data_access(0x100000)
        assert r.level == "l3"

    def test_prewarm_small_region_fills_l2(self):
        h = make_hierarchy(prefetch_lines=0)
        h.prewarm_region(0x100000, 16 * 1024)
        # DL1 untouched (into_l1 False) so the first access should hit L2.
        r = h.data_access(0x100000)
        assert r.level == "l2"

    def test_prewarm_into_l1(self):
        h = make_hierarchy(prefetch_lines=0)
        h.prewarm_region(0x100000, 4 * 1024, into_l1=True)
        r = h.data_access(0x100000)
        assert r.level == "dl1"

    def test_prewarm_empty_region_noop(self):
        h = make_hierarchy()
        h.prewarm_region(0x0, 0)
        assert h.l3.resident_lines == 0


def reference_prewarm(h, base, size_bytes, into_l1=False):
    """The per-line walk ``prewarm_region`` must reproduce exactly: every
    64-byte line of the region through ``access`` in address order."""
    if size_bytes <= 0:
        return
    for addr in range(base, base + size_bytes, 64):
        h.l3.access(addr)
        if size_bytes <= h.l2.size_bytes:
            h.l2.access(addr)
        if into_l1:
            h.dl1.access(addr)


def cache_state(cache):
    """Tags (recency order), dirty lines and every counter of a cache."""
    if isinstance(cache, AsymmetricL1):
        return {
            "fast": cache_state(cache.fast),
            "slow": cache_state(cache.slow),
            "asym": dataclasses.asdict(cache.stats),
        }
    return {
        "tags": cache._tags,
        "dirty": cache._dirty,
        "stats": dataclasses.asdict(cache.stats),
    }


def hierarchy_state(h):
    return {name: cache_state(getattr(h, name)) for name in ("il1", "dl1", "l2", "l3")}


def _pow2(lo, hi):
    return st.integers(lo, hi).map(lambda e: 1 << e)


@st.composite
def _geometry(draw):
    """(line_bytes, n_sets, assoc) of one cache: 16-128 B lines, so a
    64-byte walk may step over lines or re-read them."""
    return draw(_pow2(4, 7)), draw(_pow2(0, 5)), draw(st.integers(1, 6))


@st.composite
def _prewarm_case(draw):
    dl1_line, dl1_sets, dl1_assoc = draw(_geometry())
    asym = draw(st.booleans())
    if asym:
        dl1_assoc = max(dl1_assoc, 2)
    geometries = {"l2": draw(_geometry()), "l3": draw(_geometry())}
    largest = max(line * sets * assoc for line, sets, assoc in geometries.values())
    # Bases in a small window, so regions overlap each other and the
    # pre-populated lines; half are line-aligned.
    base = st.one_of(
        st.integers(0, 1 << 14), st.integers(0, 1 << 8).map(lambda b: b * 64)
    )
    size = st.one_of(
        st.just(0), st.integers(1, 63), st.integers(64, max(64, 3 * largest))
    )
    regions = draw(st.lists(st.tuples(base, size, st.booleans()), max_size=4))
    preload = draw(
        st.lists(st.tuples(st.integers(0, 1 << 15), st.booleans()), max_size=40)
    )

    def build():
        if asym:
            dl1 = AsymmetricL1(dl1_line * dl1_sets * dl1_assoc, dl1_assoc, dl1_line)
        else:
            dl1 = Cache("dl1", dl1_line * dl1_sets * dl1_assoc, dl1_assoc, dl1_line)
        caches = {
            name: Cache(name, line * sets * assoc, assoc, line)
            for name, (line, sets, assoc) in geometries.items()
        }
        h = MemoryHierarchy(CacheLatencies(), dl1=dl1, prefetch_lines=0, **caches)
        for addr, is_write in preload:
            h.dl1.access(addr, is_write)
            h.l2.access(addr, is_write)
            h.l3.access(addr, is_write)
        return h

    return build, regions


class TestPrewarmClosedForm:
    """``prewarm_region`` equals the per-line walk it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(_prewarm_case())
    def test_matches_per_line_walk(self, case):
        build, regions = case
        fast, slow = build(), build()
        assert hierarchy_state(fast) == hierarchy_state(slow)
        for base, size, into_l1 in regions:
            fast.prewarm_region(base, size, into_l1=into_l1)
            reference_prewarm(slow, base, size, into_l1=into_l1)
            assert hierarchy_state(fast) == hierarchy_state(slow)

    def test_overlapping_region_replays_and_writes_back(self):
        h = make_hierarchy(l2=Cache("l2", 4 * 1024, 4), l3=Cache("l3", 8 * 1024, 4))
        ref = make_hierarchy(l2=Cache("l2", 4 * 1024, 4), l3=Cache("l3", 8 * 1024, 4))
        for hier in (h, ref):
            hier.l3.access(0x1040, is_write=True)  # dirty, inside the walk
            hier.l3.access(0x9000, is_write=True)  # dirty, evicted by it
        h.prewarm_region(0x1000, 16 * 1024)
        reference_prewarm(ref, 0x1000, 16 * 1024)
        assert hierarchy_state(h) == hierarchy_state(ref)
        assert h.l3.stats.hits == 1 and h.l3.stats.writebacks == 2

    @pytest.mark.parametrize("config", ["BaseCMOS", "AdvHet"])
    @pytest.mark.parametrize("app", sorted(CPU_APPS))
    def test_every_app_warms_like_the_per_line_walk(self, config, app, monkeypatch):
        design = cpu_config(config)
        assert design.asym_dl1 == (config == "AdvHet")
        profile = cpu_app(app)
        fast = design.build_hierarchy(mem_intensity=profile.mem_intensity)
        _prewarm(fast, profile)
        slow = design.build_hierarchy(mem_intensity=profile.mem_intensity)
        monkeypatch.setattr(MemoryHierarchy, "prewarm_region", reference_prewarm)
        _prewarm(slow, profile)
        assert hierarchy_state(fast) == hierarchy_state(slow)


class TestResetStats:
    def test_reset_preserves_contents(self):
        h = make_hierarchy()
        h.data_access(0x0)
        h.reset_stats()
        assert h.dram_accesses == 0
        assert h.data_access(0x0).level == "dl1"


class TestContention:
    def test_single_sharer_no_uplift(self):
        c = SharedResourceContention(n_sharers=1, intensity=1.0)
        assert c.latency_multiplier() == 1.0

    def test_zero_intensity_no_uplift(self):
        c = SharedResourceContention(n_sharers=8, intensity=0.0)
        assert c.latency_multiplier() == 1.0

    def test_uplift_grows_with_sharers(self):
        m4 = SharedResourceContention(4, 0.5).latency_multiplier()
        m8 = SharedResourceContention(8, 0.5).latency_multiplier()
        assert m8 > m4 > 1.0

    def test_applied_to_l3_and_dram(self):
        quiet = make_hierarchy(prefetch_lines=0)
        loud = MemoryHierarchy(
            CacheLatencies(),
            contention=SharedResourceContention(8, 1.0),
            prefetch_lines=0,
        )
        assert loud.data_access(0x0).latency > quiet.data_access(0x0).latency

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SharedResourceContention(0, 0.5)
        with pytest.raises(ValueError):
            SharedResourceContention(2, 1.5)
        with pytest.raises(ValueError):
            SharedResourceContention(2, 0.5, alpha=-1.0)
