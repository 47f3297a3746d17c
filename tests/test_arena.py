"""Tests for the columnar SFQ arena (``repro.core.arena``).

The arena is the tentpole of the engine refactor: all per-entity SFQ
state lives in flat parallel columns indexed by a dense slot id, with a
free list recycling slots on removal.  These tests pin the two
invariants that make recycling safe — version monotonicity and
generation hygiene (no tag/weight leakage across occupants) — both at
the arena level and through the public ``mknod``/``rmnod`` churn path,
including a SCHEDSAN-sanitized run over a churned tree.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arena import SfqArena
from repro.core.sfq import SfqQueue
from repro.core.structure import SchedulingStructure
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.units import MS

from tests.conftest import Harness, compute


class Entity:
    def __init__(self, index: int, weight: int = 1) -> None:
        self.index = index
        self.weight = weight

    def __repr__(self) -> str:
        return "E%d(w=%d)" % (self.index, self.weight)


class TestArenaBasics:
    def test_alloc_grows_columns_in_step(self):
        arena = SfqArena()
        slots = [arena.alloc(Entity(i), 0, i) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]
        assert len(arena) == 5
        assert arena.capacity == 5
        for column in (arena.ent, arena.start, arena.fin, arena.run,
                       arena.ver, arena.seq):
            assert len(column) == 5

    def test_release_recycles_lifo(self):
        arena = SfqArena()
        for i in range(4):
            arena.alloc(Entity(i), 0, i)
        arena.release(1)
        arena.release(3)
        assert arena.alloc(Entity(10), 0, 10) == 3
        assert arena.alloc(Entity(11), 0, 11) == 1
        assert arena.capacity == 4  # no growth while the free list serves

    def test_version_is_monotonic_across_reuse(self):
        arena = SfqArena()
        slot = arena.alloc(Entity(0), 0, 0)
        assert arena.ver[slot] == 0
        for generation in range(1, 4):
            arena.release(slot)
            reused = arena.alloc(Entity(generation), 0, generation)
            assert reused == slot
            assert arena.ver[slot] == generation  # never resets

    def test_alloc_resets_tags_and_seq(self):
        arena = SfqArena()
        slot = arena.alloc(Entity(0), 0, 7)
        arena.start[slot] = 123
        arena.fin[slot] = 456
        arena.run[slot] = 1
        arena.release(slot)
        assert arena.ent[slot] is None
        assert arena.run[slot] == 0
        newcomer = Entity(1)
        assert arena.alloc(newcomer, 0, 42) == slot
        assert arena.start[slot] == 0
        assert arena.fin[slot] == 0
        assert arena.run[slot] == 0
        assert arena.seq[slot] == 42
        assert arena.ent[slot] is newcomer

    def test_live_slots_skips_freed(self):
        arena = SfqArena()
        for i in range(4):
            arena.alloc(Entity(i), 0, i)
        arena.release(2)
        assert list(arena.live_slots()) == [0, 1, 3]
        assert len(arena) == 3
        assert "live=3" in repr(arena) and "capacity=4" in repr(arena)


class TestQueueChurn:
    """add/remove churn through the SfqQueue facade must not leak state."""

    def test_arrival_sequence_is_per_queue(self):
        """Tie-breaks never depend on how many queues existed before."""
        SfqQueue().add(Entity(0))
        queue = SfqQueue()
        first, second = Entity(1), Entity(2)
        queue.add(first)
        queue.add(second)
        assert queue.arena.seq[queue.slot_of(first)] == 0
        assert queue.arena.seq[queue.slot_of(second)] == 1

    def test_reused_slot_starts_clean(self):
        queue = SfqQueue()
        old, stay = Entity(0, weight=2), Entity(1, weight=3)
        queue.add(old)
        queue.add(stay)
        queue.set_runnable(old)
        queue.set_runnable(stay)
        assert queue.pick() is old
        queue.charge(old, 600)  # F(old) = 300 = its new start tag
        queue.set_blocked(old)
        queue.remove(old)
        assert queue.pick() is stay
        queue.charge(stay, 900)  # F(stay) = 300
        assert queue.pick() is stay  # v jumps to stay's start tag: 300
        fresh = Entity(2, weight=5)
        queue.add(fresh)
        # generation hygiene: the newcomer's tags are the zero tag —
        # nothing of the previous occupant's S=F=300 survives slot reuse
        assert queue.start_tag(fresh) == queue.tags.zero()
        assert queue.finish_tag(fresh) == queue.tags.zero()
        assert not queue.is_runnable(fresh)
        # Rule 1 on first eligibility: S = max(v, 0) = v, so the late
        # joiner gets no catch-up credit — and no inherited tags either
        queue.set_runnable(fresh)
        assert queue.start_tag(fresh) == queue.virtual_time
        assert queue.virtual_time == 300

    def test_stale_heap_entry_never_elects_new_occupant(self):
        queue = SfqQueue()
        a, b = Entity(0), Entity(1)
        queue.add(a)
        queue.add(b)
        queue.set_runnable(a)
        queue.set_runnable(b)
        # a's heap entry is now live; block+remove a, then reuse its slot
        queue.set_blocked(a)
        queue.remove(a)
        c = Entity(2)
        queue.add(c)
        # the stale entry for a must not surface c before it is runnable
        assert queue.pick() is b
        queue.set_runnable(c)
        queue.charge(b, 100)
        assert queue.pick() in (b, c)  # sane election, no crash


#: churn script: op in {add, remove, run, block, serve}; index selects an
#: entity id deterministically; weight seeds new entities
churn_ops = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "run", "block", "serve"]),
              st.integers(0, 5), st.integers(1, 9)),
    min_size=1, max_size=80)


class TestChurnProperties:
    @settings(max_examples=60, deadline=None)
    @given(script=churn_ops)
    def test_churned_queue_matches_churn_free_oracle(self, script):
        """Random add/remove/serve churn: live-entity observables must be
        derivable from the script alone — nothing the previous slot
        occupant did may show through, whatever slot reuse happened."""
        queue = SfqQueue()
        live = {}
        expected_tags = {}
        next_id = 0
        for op, pick_index, weight in script:
            if op == "add":
                entity = Entity(next_id, weight)
                next_id += 1
                queue.add(entity)
                live[entity.index] = entity
                # add() stamps S = F = 0; Rule 1 catches the tags up to v
                # at first set_runnable, never at admission
                zero = queue.tags.zero()
                expected_tags[entity.index] = (zero, zero)
                continue
            if not live:
                continue
            key = sorted(live)[pick_index % len(live)]
            entity = live[key]
            if op == "remove":
                if queue.is_runnable(entity):
                    queue.set_blocked(entity)
                queue.remove(entity)
                del live[key]
                del expected_tags[key]
            elif op == "run":
                if not queue.is_runnable(entity):
                    # Rule 1: S = max(v, F); the finish tag is untouched
                    start = max(queue.virtual_time,
                                expected_tags[key][1])
                    queue.set_runnable(entity)
                    expected_tags[key] = (start, expected_tags[key][1])
            elif op == "block":
                if queue.is_runnable(entity):
                    queue.set_blocked(entity)
            elif op == "serve":
                if queue.is_runnable(entity):
                    length = 60 * weight
                    start = queue.start_tag(entity)
                    queue.charge(entity, length)
                    expected_tags[key] = (
                        queue.start_tag(entity), queue.finish_tag(entity))
                    assert queue.finish_tag(entity) == \
                        start + Fraction(length, entity.weight)
        for key, entity in live.items():
            start, fin = expected_tags[key]
            assert queue.start_tag(entity) == start
            assert queue.finish_tag(entity) == fin
        assert len(queue) == len(live)

    @settings(max_examples=40, deadline=None)
    @given(rounds=st.lists(st.integers(1, 6), min_size=1, max_size=12))
    def test_slot_population_is_stable_under_churn(self, rounds):
        """Repeated add-all/remove-all waves reuse slots instead of
        growing the columns without bound."""
        queue = SfqQueue()
        arena = queue.arena
        high_water = 0
        for count in rounds:
            batch = [Entity(i) for i in range(count)]
            for entity in batch:
                queue.add(entity)
            high_water = max(high_water, count)
            assert arena.capacity <= high_water
            for entity in batch:
                queue.remove(entity)
            assert len(queue) == 0
        assert arena.capacity == high_water
        assert len(arena.free) == high_water


class TestStructureChurnSanitized:
    """mknod/rmnod churn on a live machine, under SCHEDSAN."""

    def _churn(self):
        h = Harness()
        for generation in range(6):
            name = "/gen%d" % (generation % 2)
            leaf = h.structure.mknod(name, 1 + generation % 3,
                                     scheduler=SfqScheduler())
            thread = h.spawn_segments(
                "churn-%d" % generation, [compute(40_000)], leaf=leaf)
            h.machine.run_until(h.machine.engine.now + 100 * MS)
            assert thread.stats.exited_at is not None
            # the leaf is idle again: remove it, recycling its arena slot
            h.structure.rmnod(leaf)
        h.spawn_dhrystone("tail")
        h.machine.run_until(h.machine.engine.now + 20 * MS)
        return h

    def test_rmnod_churn_recycles_root_slots(self):
        h = self._churn()
        root_queue = h.structure.root.queue
        # 2 generations alternating on 2 names + the permanent leaf: the
        # arena must have recycled rather than grown a row per generation
        assert root_queue.arena.capacity <= 4

    def test_rmnod_churn_is_schedsan_clean(self, monkeypatch):
        from repro.devtools import schedsan

        monkeypatch.setenv(schedsan.ENV_ENABLE, "1")
        monkeypatch.delenv(schedsan.ENV_MODE, raising=False)
        h = self._churn()
        assert h.machine.scheduler.violations == []

    def test_weight_does_not_leak_across_generations(self):
        h = Harness()
        heavy = h.structure.mknod("/churn", 9, scheduler=SfqScheduler())
        thread = h.spawn_segments("heavy", [compute(40_000)], leaf=heavy)
        h.machine.run_until(100 * MS)
        assert thread.stats.exited_at is not None
        h.structure.rmnod(heavy)
        light = h.structure.mknod("/churn", 2, scheduler=SfqScheduler())
        root_queue = h.structure.root.queue
        slot = root_queue.slot_of(light)
        # weights are read live from the node: the slot sees 2, not 9
        assert root_queue.arena.ent[slot] is light
        assert light.weight == 2
        start = root_queue.start_tag(light)
        h.spawn_segments("light", [compute(40_000)], leaf=light)
        h.machine.run_until(h.machine.engine.now + 20 * MS)
        # F - S = length/weight with the *new* weight
        assert root_queue.finish_tag(light) > start
