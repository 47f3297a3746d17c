"""Property-based tests of the SFQ queue invariants (hypothesis)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sfq import SfqQueue
from repro.core.tags import TagMath


class Entity:
    def __init__(self, index: int, weight: int) -> None:
        self.index = index
        self.weight = weight

    def __repr__(self) -> str:
        return "E%d(w=%d)" % (self.index, self.weight)


#: an action script: (op, entity_index, amount)
actions = st.lists(
    st.tuples(st.sampled_from(["run", "block", "serve"]),
              st.integers(0, 3), st.integers(1, 50)),
    min_size=1, max_size=120)
weight_lists = st.lists(st.integers(1, 9), min_size=4, max_size=4)


def apply_script(queue, entities, script):
    """Drive the queue through a script; returns per-entity service log.

    The log records, for each completed quantum, (entity, length) plus the
    virtual time snapshot — the raw material for invariant checks.
    """
    log = []
    for op, index, amount in script:
        entity = entities[index]
        if op == "run":
            queue.set_runnable(entity)
        elif op == "block":
            if queue.is_runnable(entity):
                # never block the in-service entity mid-quantum: the
                # machine always charges first, so emulate that
                queue.set_blocked(entity)
        else:
            picked = queue.pick()
            if picked is not None:
                queue.charge(picked, amount)
                log.append((picked, amount, queue.virtual_time))
    return log


class TestQueueInvariants:
    @given(weight_lists, actions)
    @settings(max_examples=120, deadline=None)
    def test_virtual_time_never_decreases(self, weights, script):
        queue = SfqQueue()
        entities = [Entity(i, w) for i, w in enumerate(weights)]
        for e in entities:
            queue.add(e)
        last = queue.virtual_time
        for op, index, amount in script:
            entity = entities[index]
            if op == "run":
                queue.set_runnable(entity)
            elif op == "block":
                if queue.is_runnable(entity):
                    queue.set_blocked(entity)
            else:
                picked = queue.pick()
                if picked is not None:
                    queue.charge(picked, amount)
            assert queue.virtual_time >= last
            last = queue.virtual_time

    @given(weight_lists, actions)
    @settings(max_examples=120, deadline=None)
    def test_finish_tags_never_decrease(self, weights, script):
        queue = SfqQueue()
        entities = [Entity(i, w) for i, w in enumerate(weights)]
        for e in entities:
            queue.add(e)
        finishes = {id(e): Fraction(0) for e in entities}
        for op, index, amount in script:
            entity = entities[index]
            if op == "run":
                queue.set_runnable(entity)
            elif op == "block":
                if queue.is_runnable(entity):
                    queue.set_blocked(entity)
            else:
                picked = queue.pick()
                if picked is not None:
                    queue.charge(picked, amount)
                    assert queue.finish_tag(picked) >= finishes[id(picked)]
                    finishes[id(picked)] = queue.finish_tag(picked)

    @given(weight_lists, actions)
    @settings(max_examples=120, deadline=None)
    def test_start_tag_at_least_stamp_time_virtual_time(self, weights, script):
        # S = max(v, F) implies S >= v at stamping; since v is monotone,
        # every runnable entity's start tag is >= the v at its stamping.
        queue = SfqQueue()
        entities = [Entity(i, w) for i, w in enumerate(weights)]
        for e in entities:
            queue.add(e)
        for op, index, amount in script:
            entity = entities[index]
            if op == "run":
                v_before = queue.virtual_time
                queue.set_runnable(entity)
                assert queue.start_tag(entity) >= v_before
            elif op == "block":
                if queue.is_runnable(entity):
                    queue.set_blocked(entity)
            else:
                picked = queue.pick()
                if picked is not None:
                    queue.charge(picked, amount)

    @given(weight_lists, actions)
    @settings(max_examples=100, deadline=None)
    def test_picked_entity_has_minimal_start_tag(self, weights, script):
        queue = SfqQueue()
        entities = [Entity(i, w) for i, w in enumerate(weights)]
        for e in entities:
            queue.add(e)
        for op, index, amount in script:
            entity = entities[index]
            if op == "run":
                queue.set_runnable(entity)
            elif op == "block":
                if queue.is_runnable(entity):
                    queue.set_blocked(entity)
            else:
                picked = queue.pick()
                if picked is not None:
                    runnable_tags = [queue.start_tag(e) for e in entities
                                     if queue.is_runnable(e)]
                    assert queue.start_tag(picked) == min(runnable_tags)
                    queue.charge(picked, amount)

    @given(weight_lists, st.integers(1, 40), st.integers(10, 200))
    @settings(max_examples=60, deadline=None)
    def test_continuously_backlogged_fairness_theorem(self, weights,
                                                      quantum, rounds):
        """|W_f/w_f - W_m/w_m| <= l/w_f + l/w_m for backlogged entities."""
        queue = SfqQueue()
        entities = [Entity(i, w) for i, w in enumerate(weights)]
        work = {id(e): 0 for e in entities}
        for e in entities:
            queue.add(e)
            queue.set_runnable(e)
        for __ in range(rounds):
            picked = queue.pick()
            queue.charge(picked, quantum)
            work[id(picked)] += quantum
            for f in entities:
                for m in entities:
                    if f is m:
                        continue
                    gap = abs(Fraction(work[id(f)], f.weight)
                              - Fraction(work[id(m)], m.weight))
                    bound = Fraction(quantum, f.weight) + Fraction(
                        quantum, m.weight)
                    assert gap <= bound

    @given(weight_lists, actions, st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_work_conserving(self, weights, script, quantum):
        """pick() never returns None while some entity is runnable."""
        queue = SfqQueue()
        entities = [Entity(i, w) for i, w in enumerate(weights)]
        for e in entities:
            queue.add(e)
        for op, index, __ in script:
            entity = entities[index]
            if op == "run":
                queue.set_runnable(entity)
            elif op == "block":
                if queue.is_runnable(entity):
                    queue.set_blocked(entity)
            else:
                picked = queue.pick()
                if queue.has_runnable():
                    assert picked is not None
                else:
                    assert picked is None
                if picked is not None:
                    queue.charge(picked, quantum)


class ReferenceSfq:
    """The paper's SFQ rules in plain ``Fraction`` arithmetic.

    ``S = max(v, F)`` on becoming runnable, ``F = S + l/w`` on a charge
    (restamping ``S = F`` while runnable), ``v`` = the picked start tag,
    and ``v`` = the maximum finish tag once nothing is runnable.  Picks
    take the minimum ``(start, arrival)``; entities arrive in index order.
    """

    def __init__(self, weights):
        self.weights = weights
        self.start = [Fraction(0)] * len(weights)
        self.finish = [Fraction(0)] * len(weights)
        self.runnable = [False] * len(weights)
        self.v = Fraction(0)
        self.max_finish = Fraction(0)

    def run(self, index):
        if not self.runnable[index]:
            self.runnable[index] = True
            self.start[index] = max(self.v, self.finish[index])

    def block(self, index):
        self.runnable[index] = False
        if not any(self.runnable):
            self.v = self.max_finish

    def pick(self):
        ready = [i for i, runnable in enumerate(self.runnable) if runnable]
        if not ready:
            return None
        index = min(ready, key=lambda i: (self.start[i], i))
        self.v = self.start[index]
        return index

    def charge(self, index, length):
        finish = self.start[index] + Fraction(length, self.weights[index])
        self.finish[index] = finish
        self.max_finish = max(self.max_finish, finish)
        if self.runnable[index]:
            self.start[index] = finish


def assert_canonical(tag, expected):
    """``tag`` equals the ``Fraction`` ``expected``, is an ``int`` exactly
    when that value is integral, and converts to the same float."""
    assert tag == expected
    assert type(tag) is (int if expected.denominator == 1 else Fraction)
    assert float(tag) == float(expected)


tag_modes = st.sampled_from([True, False])


class TestExactTags:
    @given(weight_lists, actions)
    @settings(max_examples=120, deadline=None)
    def test_exact_tags_are_canonical_and_match_fraction_model(
            self, weights, script):
        queue = SfqQueue()
        entities = [Entity(i, w) for i, w in enumerate(weights)]
        for e in entities:
            queue.add(e)
        model = ReferenceSfq(weights)
        for op, index, amount in script:
            entity = entities[index]
            if op == "run":
                queue.set_runnable(entity)
                model.run(index)
            elif op == "block":
                if queue.is_runnable(entity):
                    queue.set_blocked(entity)
                    model.block(index)
            else:
                picked = queue.pick()
                expected = model.pick()
                assert (None if picked is None else picked.index) == expected
                if picked is not None:
                    queue.charge(picked, amount)
                    model.charge(expected, amount)
            for i, e in enumerate(entities):
                assert_canonical(queue.start_tag(e), model.start[i])
                assert_canonical(queue.finish_tag(e), model.finish[i])
            assert_canonical(queue.virtual_time, model.v)


class TestHeapAndVirtualTime:
    """The invariants behind ``v = start`` on pick and the in-place
    re-keying of the in-service heap entry on charge."""

    @given(weight_lists, actions, tag_modes)
    @settings(max_examples=120, deadline=None)
    def test_pick_sets_v_and_charge_rekeys_in_place(self, weights, script,
                                                    exact):
        queue = SfqQueue(TagMath(exact=exact))
        entities = [Entity(i, w) for i, w in enumerate(weights)]
        for e in entities:
            queue.add(e)
        heap = queue._heap
        for op, index, amount in script:
            entity = entities[index]
            if op == "run":
                queue.set_runnable(entity)
            elif op == "block":
                if queue.is_runnable(entity):
                    queue.set_blocked(entity)
            else:
                picked = queue.pick()
                if picked is not None:
                    # every runnable start tag is >= v, so v is the
                    # picked start tag itself
                    assert queue.virtual_time == queue.start_tag(picked)
                    picked_entry = heap[0]
                    slot = queue.slot_of(picked)
                    assert picked_entry[3] == slot
                    queue.charge(picked, amount)
                    if queue.is_runnable(picked):
                        # the picked entry was replaced, not left stale
                        # (older stale entries of an earlier block/run
                        # cycle may still sit deeper in the heap)
                        current = (queue.start_tag(picked),
                                   queue.arena.seq[slot],
                                   queue.arena.ver[slot], slot)
                        assert picked_entry not in heap
                        assert heap.count(current) == 1
            v = queue.virtual_time
            for e in entities:
                if queue.is_runnable(e):
                    assert queue.start_tag(e) >= v
