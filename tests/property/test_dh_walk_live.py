"""Phase I of the dh walk on live lanes against the all-lanes walk it replaced.

:class:`AllLanesWalkOracle` carries the previous ``_dh_walk``, both of
its digit rules (``batch_dh_lookup``'s uniform / ``tau`` rule and
``batch_cost_dh_lookup``'s cost rule), ``_edge_cost_matrix`` (over the
previous ``pair_costs``) and the slot-by-slot ``_edge_member``
*verbatim*: every step ran the segment test, the ``np.where`` updates
and ``cover(pos)`` over all ``size`` lanes, finished ones included.
The walk now keeps phase I's state for the walking lanes only, and the
rule hands back ``(digits, next_pos, next_cover)`` for them — the cost
rule reads both off the candidates it already covered.  Driven with the
same inputs and generator state, both must agree with ``array_equal`` on
every result field and leave the generator in the same state.  The
counting tests pin what the rewrites are *for*: phase I hands ``cover``
O(Σ tᵢ) lanes, not ``size × max t``, and phase II — which replays the
image covers phase I took — hands it none, so a walk's covers after the
source's are exactly Σ (2·tᵢ + 1) (Σ ((Δ+1)·tᵢ + 1) under the cost rule).
"""

import functools
import math
from typing import List, Optional

import numpy as np
import pytest
from head_rows import rows_to_head
from test_descent_parity import parent_walk

from repro.core import DistanceHalvingNetwork
from repro.core.batch import _STALE_ROUTER_ERROR, BatchLookupResult
from repro.core.lookup import MAX_WALK_STEPS
from repro.core.segments import fold_unit
from repro.core.snapshot import StaleSnapshotError
from repro.core.walk import per_lane_matrix
from repro.peer import CostAwareBatchRouter, CostMap

FIELDS = ("source_idx", "owner_idx", "t", "hops", "phase1_hops",
          "path_servers", "path_offsets", "tau_used")


def _parent_pair_costs(isp_a, isp_b, xa, ya, xb, yb, isp_cost: np.ndarray):
    dx = xa - xb
    dy = ya - yb
    return isp_cost[isp_a, isp_b] + np.sqrt(dx * dx + dy * dy)


class AllLanesWalkOracle(CostAwareBatchRouter):
    """The parent commit's phase I, kept as the reference."""

    def _edge_member(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Vectorized ``col[i] in neighbours(row[i])`` membership test.

        One gather and one modular interval compare per slot — O(Δ) per
        lane, no search; the lanes on the seam row also test its second
        piece, the virtual column ``n``.
        """
        if self.adj_first is None:
            self._build_adjacency()
        first, count = self.adj_first, self.adj_count
        n = len(self.points)
        if first.shape[1] != n + 1:
            # columns older than the point column: a patch that died
            # half-way, a shard worker attached to a half-written export
            raise StaleSnapshotError(_STALE_ROUTER_ERROR)
        def within(col, first, count):
            # first < n, so (col - first) mod n is one add on the lanes
            # below zero: n masked by the sign bits
            gap = col - first
            gap += n & (gap >> 31)
            return gap < count

        col = col.astype(np.int32)
        hit = np.zeros(row.shape, dtype=bool)
        for k in range(len(first)):
            hit |= within(col, first[k].take(row), count[k].take(row))
        seam = np.flatnonzero(row == n - 1)
        if seam.size:
            hit[seam] |= within(col[seam], first[:, n, None],
                                count[:, n, None]).any(axis=0)
        return hit & (row != col)

    def batch_dh_lookup(
        self,
        sources,
        targets,
        rng: Optional[np.random.Generator] = None,
        tau: Optional[np.ndarray] = None,
        keep_paths: "bool | str" = False,
        max_steps: int = MAX_WALK_STEPS,
    ) -> BatchLookupResult:
        """Vectorized two-phase Distance Halving Lookup (§2.2.2)."""
        src, y = self._enter(sources, targets, keep_paths)
        if rng is None and tau is None:
            raise ValueError("batch_dh_lookup needs an rng or explicit tau")
        size = y.size
        tau_arr: Optional[np.ndarray] = None
        if tau is not None:
            tau_arr = per_lane_matrix(tau, size, np.int64, "tau")
            if tau_arr.size and (tau_arr.min() < 0
                                 or tau_arr.max() >= self.delta):
                raise ValueError(f"tau digits out of range for delta={self.delta}")

        def pick(step, lanes, pos, cur):
            if tau_arr is None:
                return rng.integers(0, self.delta, size=size)
            if step >= tau_arr.shape[1]:
                raise ValueError("supplied tau exhausted before lookup finished")
            return tau_arr[:, step]

        return self._dh_walk("dh", src, y, keep_paths, max_steps, pick)

    def _dh_walk(self, algorithm, src, y, keep_paths, max_steps,
                 pick) -> BatchLookupResult:
        """Both phases of §2.2.2 under one phase-I digit rule."""
        cover = self.cover_index.cover
        delta, size = self.delta, y.size
        cur = cover(src)
        src_idx = cur.copy()
        pos = src.copy()
        image = y.copy()
        t = np.zeros(size, dtype=np.int64)
        off = np.zeros(size, dtype=np.float64)  # Σ d_k Δ^k, exact in float64
        hops1 = np.zeros(size, dtype=np.int64)
        done = np.zeros(size, dtype=bool)
        p1_rows: List[np.ndarray] = [cur.copy()] if keep_paths else []

        # beyond ~52/log2(Δ) digits the float64 offset accumulator loses
        # exactness (the scalar engine carries exact integer offsets, so
        # it can converge on such walks — segments shorter than Δ^-52 —
        # where we must raise loudly instead of silently diverging);
        # Theorem 2.8 keeps real walks far below that
        step_cap = min(max_steps, int(52 / math.log2(delta)))
        step = 0
        while not done.all():
            if step > step_cap:  # pragma: no cover - beyond Theorem 2.8
                raise RuntimeError(
                    f"batch {algorithm} lookup phase I failed to converge")
            active = ~done
            done |= active & self._segment_test(cur)(image)
            lanes = np.flatnonzero(active & ~done)
            row = None
            if lanes.size:
                holder = cover(image[lanes])
                near = self._edge_member(cur[lanes], holder)
                via, holder = lanes[near], holder[near]
                hops1[via] += 1
                done[via] = True
                cur[via] = holder
                if keep_paths:
                    row = np.full(size, -1, dtype=np.int64)
                    row[via] = holder
                    p1_rows.append(row)
                lanes = lanes[~near]
            if lanes.size:
                cont = np.zeros(size, dtype=bool)
                cont[lanes] = True
                d = pick(step, lanes, pos, cur).astype(np.float64)
                pos = fold_unit(np.where(cont, pos / delta + d / delta, pos))
                off = np.where(cont, off + d * float(delta) ** step, off)
                # w(τ_t, y) in phase II's closed form, so the hand-off
                # tests the very point the descent starts from
                image = fold_unit(np.where(
                    cont, (y + off) / float(delta) ** (step + 1), image))
                t += cont
                c = cover(pos)
                hops1 += cont & (c != cur)
                if row is not None:
                    row[cont] = c[cont]
                cur = np.where(cont, c, cur)
            step += 1

        order = np.argsort(-t.astype(np.int16), kind="stable")
        servers, offsets = self._descend(y, off, t + 1, order,
                                         rows_to_head(p1_rows or [cur]))
        hops = np.diff(offsets) - 1
        return BatchLookupResult(
            algorithm=algorithm,
            points=self.points,
            targets=y,
            sources=src,
            source_idx=src_idx,
            owner_idx=cover(y),
            t=t,
            hops=hops if keep_paths else hops1 + hops,
            phase1_hops=hops1,
            path_servers=servers if keep_paths else None,
            path_offsets=offsets if keep_paths else None,
        )

    def _edge_cost_matrix(self, i_idx, j_idx) -> np.ndarray:
        """Network cost of edges i→j (point indices; broadcasts to (K, B))."""
        isp, cx, cy, mat = self._cost_state()
        return _parent_pair_costs(isp[i_idx], isp[j_idx], cx[i_idx], cy[i_idx],
                                  cx[j_idx], cy[j_idx], mat)

    def batch_cost_dh_lookup(
        self,
        sources,
        targets,
        choices: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        policy: str = "weighted",
        temperature: float = 1.0,
        keep_paths: "bool | str" = False,
        max_steps: int = MAX_WALK_STEPS,
    ) -> BatchLookupResult:
        """Two-phase dh lookup with cost-aware phase-I digit selection."""
        from repro.peer.policy import check_policy, select_rows

        check_policy(policy)
        src, y = self._enter(sources, targets, keep_paths)
        self._cost_state()  # fail early on a plain (cost-less) router
        cover = self.cover_index.cover
        size = y.size
        u_mat: Optional[np.ndarray] = None
        if choices is not None:
            u_mat = per_lane_matrix(choices, size, np.float64, "choices")
        elif rng is None and policy != "greedy":
            raise ValueError(
                f"policy {policy!r} needs shared uniforms: pass choices= or rng="
            )

        delta = self.delta
        digs = np.arange(delta, dtype=np.float64)
        tau_rows: List[np.ndarray] = []

        def pick(step, lanes, pos, cur):
            # candidate next position per digit — the same float
            # expression the walk's digit update applies, so the scored
            # candidate is exactly where the message goes
            cand_pos = fold_unit(
                pos[lanes][None, :] / delta + digs[:, None] / delta
            )
            cand_cov = cover(cand_pos.ravel()).reshape(delta, lanes.size)
            costs = self._edge_cost_matrix(cur[lanes], cand_cov)
            if u_mat is not None:
                if step >= u_mat.shape[1]:
                    raise ValueError(
                        "supplied choices exhausted before lookup finished"
                    )
                u_row = u_mat[lanes, step]
            elif rng is not None:
                u_row = rng.random(size)[lanes]
            else:
                u_row = None
            ok = np.ones((delta, lanes.size), dtype=bool)
            d_step = np.zeros(size, dtype=np.int64)
            d_step[lanes] = select_rows(costs, ok, u_row, policy, temperature)
            tau_rows.append(d_step)
            return d_step

        res = self._dh_walk("dh-cost", src, y, keep_paths, max_steps, pick)
        res.tau_used = (
            np.ascontiguousarray(np.vstack(tau_rows).T)
            if tau_rows else np.zeros((size, 0), dtype=np.int64)
        )
        res.policy = policy
        return res


# --------------------------------------------------------------- fixtures
@functools.lru_cache(maxsize=None)
def _pair(delta: int, n: int, with_ring: bool):
    """The live-lane router and the oracle over one network."""
    net = DistanceHalvingNetwork(delta=delta, with_ring=with_ring,
                                 rng=np.random.default_rng(7 * n + delta))
    net.populate(n)
    cost_map = CostMap.synthetic(n_isps=4, rng=np.random.default_rng(n))
    return (CostAwareBatchRouter(net, cost_map),
            AllLanesWalkOracle(net, cost_map))


def _inputs(router, size: int, seed: int):
    """Sources half on server ids, half anywhere; targets incl. the ends."""
    rng = np.random.default_rng(seed)
    src = np.where(rng.random(size) < 0.5,
                   router.points[rng.integers(router.n, size=size)],
                   rng.random(size))
    tgt = rng.random(size)
    tgt[:2] = [0.0, 1.0 - 2.0**-53]
    return src, tgt


def _route(router, rule: str, src, tgt, keep_paths, seed: int):
    """One batch under ``rule``, and the generator it drew from (or None)."""
    size = src.size
    inputs = np.random.default_rng(seed + 1)
    rng = np.random.default_rng(seed + 2)
    if rule == "dh-tau":
        res = router.batch_dh_lookup(
            src, tgt, tau=inputs.integers(0, router.delta, (size, 64)),
            keep_paths=keep_paths)
        return res, None
    if rule == "dh-tau-row":
        res = router.batch_dh_lookup(
            src, tgt, tau=inputs.integers(0, router.delta, 64),
            keep_paths=keep_paths)
        return res, None
    if rule == "dh-rng":
        return router.batch_dh_lookup(src, tgt, rng=rng,
                                      keep_paths=keep_paths), rng
    policy, source = rule.split("-")
    if source == "choices":
        res = router.batch_cost_dh_lookup(
            src, tgt, choices=inputs.random((size, 64)), policy=policy,
            temperature=0.5, keep_paths=keep_paths)
        return res, None
    res = router.batch_cost_dh_lookup(src, tgt, rng=rng, policy=policy,
                                      temperature=0.5, keep_paths=keep_paths)
    return res, rng


def _assert_same(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.algorithm == want.algorithm
    assert got.policy == want.policy


RULES = ["dh-tau", "dh-tau-row", "dh-rng",
         "uniform-choices", "uniform-rng", "greedy-choices", "greedy-rng",
         "weighted-choices", "weighted-rng"]


@pytest.mark.parametrize("with_ring", [False, True], ids=["ringless", "ring"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 64, 1024])
@pytest.mark.parametrize("delta", [2, 3, 4])
def test_equal_to_all_lanes_walk(delta, n, with_ring):
    router, oracle = _pair(delta, n, with_ring)
    size = 300 if n > 4 else 40
    src, tgt = _inputs(router, size, seed=delta * 1000 + n)
    for rule in RULES:
        for keep_paths in (False, "csr"):
            got, rng_got = _route(router, rule, src, tgt, keep_paths, seed=n)
            want, rng_want = _route(oracle, rule, src, tgt, keep_paths, seed=n)
            _assert_same(got, want)
            if rng_want is not None:
                assert (rng_got.bit_generator.state
                        == rng_want.bit_generator.state), rule


def test_empty_batch():
    router, oracle = _pair(2, 64, True)
    for rule in ("dh-rng", "weighted-rng"):
        got, rng_got = _route(router, rule, np.zeros(0), np.zeros(0), "csr", 0)
        want, rng_want = _route(oracle, rule, np.zeros(0), np.zeros(0), "csr", 0)
        _assert_same(got, want)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


# ---------------------------------------------------------------- counting
def _cover_lanes(router, monkeypatch, route):
    """Lanes handed to ``cover`` after the source cover that opens a walk."""
    sizes: List[int] = []
    real_cover = router.cover_index.cover

    def counting_cover(ys):
        sizes.append(int(np.size(ys)))
        return real_cover(ys)

    monkeypatch.setattr(router.cover_index, "cover", counting_cover)
    res = route()
    monkeypatch.undo()
    assert sizes[0] == res.size  # cover(sources) opens the walk
    return sum(sizes[1:]), res


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_phase1_covers_only_walking_lanes(delta, monkeypatch):
    """Phase I covers a walking lane twice a step (its target image and
    its next position) and its image once more at the step it stops:
    Σ (2·tᵢ + 1) exactly, and phase II covers nothing, with paths kept
    or not.  The parent walk re-covered the tᵢ + 1 images in phase II;
    the all-lanes walk covered every lane at every step, finished or
    not."""
    router, oracle = _pair(delta, 1024, True)
    size = 2000
    src, tgt = _inputs(router, size, seed=delta)
    tau = np.random.default_rng(delta).integers(0, delta, (size, 64))
    for keep_paths in (False, "csr"):
        def route(walker):
            return walker.batch_dh_lookup(src, tgt, tau=tau,
                                          keep_paths=keep_paths)

        lanes, res = _cover_lanes(router, monkeypatch, lambda: route(router))
        phase1 = int((2 * res.t + 1).sum())
        assert lanes == phase1
        # the test can tell the walks apart
        parent, _ = _cover_lanes(router, monkeypatch,
                                 lambda: parent_walk(router, route))
        assert parent == phase1 + int((res.t + 1).sum())
        oracle_lanes, _ = _cover_lanes(oracle, monkeypatch,
                                       lambda: route(oracle))
        assert oracle_lanes > parent


@pytest.mark.parametrize("policy", ["greedy", "weighted"])
def test_cost_rule_covers_only_walking_lanes(policy, monkeypatch):
    """The cost rule covers the Δ candidates of each walking lane and
    takes the next cover from them: Σ ((Δ+1)·tᵢ + 1) exactly, with
    paths kept or not."""
    delta = 2
    router, _ = _pair(delta, 1024, True)
    size = 2000
    src, tgt = _inputs(router, size, seed=5)
    u = np.random.default_rng(5).random((size, 64))
    for keep_paths in (False, "csr"):
        lanes, res = _cover_lanes(
            router, monkeypatch,
            lambda: router.batch_cost_dh_lookup(src, tgt, choices=u,
                                                policy=policy,
                                                keep_paths=keep_paths))
        assert lanes == int(((delta + 1) * res.t + 1).sum())
