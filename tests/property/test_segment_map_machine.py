"""Stateful model check of ``SegmentMap``: the column never leaves the list.

A hypothesis ``RuleBasedStateMachine`` drives one map through float and
exact (``Fraction``) inserts, removes, bursts that push the mirror
buffer past its capacity (16 → 17, 32 → 33 ids), drains back to n = 0,
and pickle / ``deepcopy`` round trips.  The model is a sorted Python
list; after every step the float64 column, ``is_float()``, the scalar
and the vectorised cover query and the lengths must all agree with it.
"""

import copy
import pickle
from bisect import bisect_right
from fractions import Fraction

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)
from oracles.inputs import BELOW_ONE, unit

from repro.core.segments import SegmentMap

fractions = st.builds(Fraction, st.integers(0, 63), st.just(64)) | st.builds(
    lambda k, d: Fraction(k % d, d), st.integers(0, 40), st.integers(1, 41))


class SegmentMapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.map = SegmentMap()
        self.model = []

    def _insert(self, p):
        # one id per float64 value: Fraction(1, 2) == 0.5 is a duplicate,
        # and an exact id may not round onto a neighbour's float either
        if float(p) in {float(q) for q in self.model}:
            return
        at = self.map.insert(p)
        self.model.insert(at, p)

    # ------------------------------------------------------------- rules
    @rule(p=unit)
    def insert_float(self, p):
        self._insert(p)

    @rule(p=fractions)
    def insert_fraction(self, p):
        self._insert(p)

    @rule(base=unit, count=st.sampled_from([17, 33]))
    def insert_burst(self, base, count):
        """Enough ids at once to outgrow the buffer whatever its size."""
        for k in range(count):
            self._insert((base + k / 64) % 1.0)

    @precondition(lambda self: self.model)
    @rule(at=st.integers(min_value=0))
    def remove_by_index(self, at):
        at %= len(self.model)
        assert self.map.remove(self.map.point_at(at)) == at
        del self.model[at]

    @precondition(lambda self: self.model)
    @rule()
    def drain(self):
        while self.model:
            self.map.remove(self.model.pop())

    @rule()
    def pickle_round_trip(self):
        self.map = pickle.loads(pickle.dumps(self.map))
        assert len(self.map._buf) == len(self.model)

    @rule()
    def deep_copy(self):
        self.map = copy.deepcopy(self.map)

    # -------------------------------------------------------- invariants
    @invariant()
    def column_equals_model(self):
        assert list(self.map) == self.model
        assert all(type(a) is type(b) for a, b in zip(self.map, self.model))
        column = self.map.column
        assert column.dtype == np.float64 and not column.flags.writeable
        assert column.tolist() == [float(p) for p in self.model]
        assert np.array_equal(self.map.as_array(), column)
        assert len(self.map._buf) >= len(self.model)
        self.map.check_invariants()

    @invariant()
    def is_float_equals_the_scan(self):
        assert self.map.is_float() == all(
            isinstance(p, float) for p in self.model)

    @invariant()
    def cover_agrees_three_ways(self):
        """``cover`` ≡ bisect on the ids, ``cover_array`` ≡ bisect on their
        floats — one answer whenever every id is its own float."""
        if not self.model:
            return
        n = len(self.model)
        floats = [float(p) for p in self.model]
        ys = floats + [0.0, BELOW_ONE] + [
            float(np.nextafter(x, -1.0)) for x in floats if x > 0.0]
        exact = [(bisect_right(self.model, y) - 1) % n for y in ys]
        rounded = [(bisect_right(floats, y) - 1) % n for y in ys]
        assert [self.map.cover(y) for y in ys] == exact
        assert self.map.cover_array(ys).tolist() == rounded
        if all(x == p for x, p in zip(floats, self.model)):
            assert exact == rounded

    @invariant()
    def lengths_sum_to_one(self):
        if self.model:
            lens = self.map.lengths()
            assert lens.size == len(self.model) and (lens > 0).all()
            assert abs(float(lens.sum()) - 1.0) < 1e-9


TestSegmentMapMachine = SegmentMapMachine.TestCase
# tier-1 pins its examples; --hypothesis-profile explore takes the profile's
TestSegmentMapMachine.settings = settings(
    max_examples=(settings.default.max_examples
                  if settings.get_current_profile_name() == "explore"
                  else 60),
    stateful_step_count=40, deadline=None)
