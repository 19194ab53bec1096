"""Stateful model check of the soak: hypothesis drives the soak's phase table.

A ``RuleBasedStateMachine`` builds one small ``ScenarioEngine`` and has
one rule per kind of ``_PHASE_KINDS``, each an
``engine.run([Phase(kind, arg)])`` call, so the machine goes through
the driver the soak itself uses. A further rule pickles the engine and
goes on with the copy, the path the spine benchmark takes every pass.
After every step the engine's strict ``check_invariants`` must pass,
and the phase must book what the model expects of its kind: routed
lookups grow by the count, ``n`` by joins − leaves, the fault substrate
loses exactly the servers the wave draws.  A failing run ends with a
note of the ``python -m repro.cli soak ... --phases`` command that
replays it (``tests/sim/test_scenario.py`` shows such a replay
faithful).
"""

import copy
import pickle
from typing import NamedTuple

import numpy as np
from hypothesis import note, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.faults.models import random_failstop
from repro.sim.churn import ChurnTrace
from repro.sim.scenario import _PHASE_KINDS, Phase, ScenarioEngine

LOOKUPS = 200
CHUNK = 64
ITEMS = 4
#: the fault waves' lookups, from the budget: never from the chunk
FAILSTOP_FT = min(1 << 15, max(1, LOOKUPS // 8))
BYZANTINE_FT = min(1 << 14, max(1, LOOKUPS // 16))


class Booked(NamedTuple):
    """What one phase books and leaves behind, as the model predicts it."""

    lookups: int = 0
    cached: int = 0
    ft: int = 0
    churn_ops: int = 0
    n: int = 0
    alive: int = 0


class Before(NamedTuple):
    """The engine before a phase: its membership and copies of its streams."""

    n0: int
    n: int
    alive: frozenset
    churn_rng: np.random.Generator
    fault_rng: np.random.Generator


def _booked(before, **moved):
    """``before``'s membership, with what a phase moved."""
    return Booked(**{"n": before.n, "alive": len(before.alive), **moved})


def _churn(before, ops):
    trace = ChurnTrace.generate(before.churn_rng, steps=ops, leave_prob=0.3)
    leaves = sum(op.kind == "leave" for op in trace.ops)
    return _booked(before, churn_ops=ops, n=before.n + ops - 2 * leaves)


def _failstop(before, p):
    plan = random_failstop(sorted(before.alive), p, before.fault_rng)
    alive = before.alive - plan.failed
    return _booked(before, ft=FAILSTOP_FT if alive else 0, alive=len(alive))


def _mass(before, fraction):
    m = min(before.n, max(64, before.n0 // 8))
    leaves = int(m * fraction)
    return _booked(before, churn_ops=m + leaves, n=before.n + m - leaves)


#: Each phase kind: its argument strategy, and ``expect(before, arg)``,
#: the model's :class:`Booked` for a phase of it.
KINDS = {
    "lookups": (st.integers(0, 300), lambda b, k: _booked(b, lookups=k)),
    "churn": (st.integers(0, 24), _churn),
    "flash": (st.integers(0, 300), lambda b, k: _booked(b, cached=k)),
    "failstop": (st.floats(0, 0.99), _failstop),
    "byzantine": (
        st.floats(0, 0.99),
        lambda b, p: _booked(b, ft=BYZANTINE_FT if b.alive else 0),
    ),
    "rebalance": (
        st.integers(0, 16),
        lambda b, k: _booked(b, churn_ops=k, n=b.n + k),
    ),
    "mass": (st.floats(0, 1), _mass),
}


class SoakMachine(RuleBasedStateMachine):
    @initialize(n=st.sampled_from([16, 24, 40]), seed=st.integers(0, 1 << 16))
    def build(self, n, seed):
        self.engine = ScenarioEngine(
            n=n, lookups=LOOKUPS, chunk=CHUNK, seed=seed, items=ITEMS, invariants=False
        )
        self.command = (
            f"python -m repro.cli soak --n {n} --seed {seed} --lookups {LOOKUPS} "
            f"--chunk {CHUNK} --items {ITEMS} --phases "
        )
        self.script = []

    def phase(self, kind, arg):
        eng = self.engine
        before = Before(
            eng.n0,
            eng.net.n,
            frozenset(eng.alive),
            copy.deepcopy(eng._churn_rng),
            copy.deepcopy(eng._fault_rng),
        )
        self.script.append(f"{kind}:{arg}")
        eng.run([Phase(kind, arg)])
        stats = eng.phase_snapshots[-1][1]
        booked = Booked(
            stats.route.lookups,
            stats.cache_requests,
            stats.ft_pairs,
            stats.churn_ops,
            eng.net.n,
            len(eng.alive),
        )
        assert booked == KINDS[kind][1](before, arg)
        if not eng.alive:  # an emptied substrate's heal loses every item
            assert stats.repair.lost == (ITEMS if kind == "failstop" else 0)

    @rule()
    def pickle_round_trip(self):
        clone = pickle.loads(pickle.dumps(self.engine))
        assert clone.total.equals(self.engine.total)
        self.engine = clone

    @invariant()
    def strict_audit(self):
        self.engine.check_invariants(f"after {len(self.script)} phases")

    def teardown(self):
        if hasattr(self, "script"):
            note("replay: " + self.command + ",".join(self.script))


def _phase_rule(kind):
    def step(self, arg):
        self.phase(kind, arg)

    step.__name__ = step.__qualname__ = kind  # the name a failing run prints
    return rule(arg=KINDS[kind][0])(step)


for _kind in KINDS:
    setattr(SoakMachine, _kind, _phase_rule(_kind))


def test_one_rule_per_table_kind():
    assert list(KINDS) == list(_PHASE_KINDS)
    assert all(callable(getattr(SoakMachine, kind)) for kind in _PHASE_KINDS)


TestSoakMachine = SoakMachine.TestCase
# tier-1 pins its examples; --hypothesis-profile explore takes the profile's
TestSoakMachine.settings = settings(
    max_examples=(
        settings.default.max_examples
        if settings.get_current_profile_name() == "explore"
        else 40
    ),
    stateful_step_count=12,
    deadline=None,
)
