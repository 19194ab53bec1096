"""A NaN temperature is refused by every weighted pick, and ``inf`` is not.

``select_rows`` and ``select_index`` refused only ``temperature <= 0``,
which NaN passes: the weights became NaN, no cumulative sum beat the
draw, and every lane fell through to its last valid candidate — in
batch and scalar alike, so the parity suites agreed on the wrong pick.
Now NaN raises ``ValueError`` naming the value at the selection policy
and so at each entry point that reaches it: the core
``batch_cost_dh_lookup``, the fault-tolerant ``batch_simple_lookup``
and its scalar twin ``simple_lookup``.  ``inf`` stays legal: every
valid weight is then exactly 1.
"""

import numpy as np
import pytest
from oracles.inputs import populated

from repro.faults import FTBatchEngine, OverlappingDHNetwork, simple_lookup
from repro.peer import (CostAwareBatchRouter, CostMap, CostOracle,
                        select_index, select_rows)

NAN = pytest.raises(ValueError, match="temperature must be > 0; got nan")

_FT_NET = OverlappingDHNetwork(128, np.random.default_rng(1234))
_FT_ORACLE = CostOracle(_FT_NET.points_array,
                        CostMap.synthetic(n_isps=4,
                                          rng=np.random.default_rng(7)))


def _costs():
    rng = np.random.default_rng(3)
    return rng.random((3, 8)) * 10, rng.random(8)


class TestSelection:
    def test_rows_refuse_nan(self):
        costs, u = _costs()
        with NAN:
            select_rows(costs, None, u, "weighted", temperature=float("nan"))

    def test_index_refuses_nan(self):
        with NAN:
            select_index(np.array([1.0, 2.0]), 0.5, "weighted",
                         temperature=float("nan"))

    @pytest.mark.parametrize("bad", [0.0, -1.0, -np.inf])
    def test_non_positive_still_refused(self, bad):
        costs, u = _costs()
        with pytest.raises(ValueError, match="temperature must be > 0"):
            select_rows(costs, None, u, "weighted", temperature=bad)
        with pytest.raises(ValueError, match="temperature must be > 0"):
            select_index(costs[:, 0], 0.5, "weighted", temperature=bad)

    def test_inf_is_uniform_weights(self):
        """Weights all 1: the pick is the first row with cum > u·cnt."""
        costs, u = _costs()
        ok = np.random.default_rng(4).random(costs.shape) < 0.7
        ok[0] = True
        rows = select_rows(costs, ok, u, "weighted", temperature=np.inf)
        for b in range(costs.shape[1]):
            valid = np.flatnonzero(ok[:, b])
            pick = select_index(costs[valid, b], float(u[b]), "weighted",
                                temperature=np.inf)
            assert rows[b] == valid[pick] == valid[int(u[b] * valid.size)]


class TestEntryPoints:
    def test_core_cost_lookup(self):
        net = populated(64, 5)
        router = CostAwareBatchRouter(
            net, CostMap.synthetic(n_isps=4, rng=np.random.default_rng(6)))
        rng = np.random.default_rng(8)
        src = router.points[rng.integers(router.n, size=20)]
        with NAN:
            router.batch_cost_dh_lookup(src, rng.random(20),
                                        choices=rng.random((20, 64)),
                                        temperature=float("nan"))

    def test_fault_tolerant_batch_and_scalar(self):
        rng = np.random.default_rng(9)
        src = _FT_NET.points_array[rng.integers(_FT_NET.n, size=20)]
        tgt = rng.random(20)
        choices = rng.random((20, 32))
        with NAN:
            FTBatchEngine(_FT_NET).batch_simple_lookup(
                src, tgt, choices=choices, oracle=_FT_ORACLE,
                policy="weighted", temperature=float("nan"))
        # a lookup with at least one hop reaches the pick
        hops = FTBatchEngine(_FT_NET).batch_simple_lookup(
            src, tgt, choices=choices).parallel_time
        i = int(np.argmax(hops))
        assert hops[i] > 0
        with NAN:
            simple_lookup(_FT_NET, float(src[i]), "probe",
                          target=float(tgt[i]), choices=list(choices[i]),
                          oracle=_FT_ORACLE, policy="weighted",
                          temperature=float("nan"))
