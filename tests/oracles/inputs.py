"""Shared inputs: the adversarial point sets and the network builders."""

import functools

import numpy as np
from hypothesis import strategies as st

from repro.core.network import DistanceHalvingNetwork
from repro.core.segments import _ADVANCE_CAP

BELOW_ONE = float(np.nextafter(1.0, 0.0))

unit = st.floats(min_value=0.0, max_value=BELOW_ONE, allow_nan=False)


def clip_unit(values) -> np.ndarray:
    """Distinct sorted float64 values of ``values`` inside ``[0, 1)``."""
    arr = np.asarray(values, dtype=np.float64)
    return np.unique(arr[(arr >= 0.0) & (arr < 1.0)])


@st.composite
def point_sets(draw) -> np.ndarray:
    """Sorted distinct ids, biased toward what breaks a bucket grid."""
    kind = draw(st.sampled_from(
        ["tiny", "one_bucket", "edges", "adjacent", "ends", "uniform"]))
    if kind == "tiny":
        pts = draw(st.lists(unit, min_size=1, max_size=4))
    elif kind == "one_bucket":
        # many ids inside one narrow interval: the capped advance's tail
        base = draw(unit)
        width = draw(st.sampled_from([1e-3, 1e-9, 1e-15]))
        offs = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                             min_size=2, max_size=3 * _ADVANCE_CAP))
        pts = [base + width * o for o in offs]
    elif kind == "edges":
        # ids exactly on bucket edges k/G of plausible resolutions
        size = draw(st.sampled_from([2, 4, 8, 16, 64]))
        ks = draw(st.lists(st.integers(0, size - 1), min_size=1,
                           max_size=12))
        pts = [k / size for k in ks]
    elif kind == "adjacent":
        # runs of adjacent floats
        base = draw(unit)
        run = [base]
        for _ in range(draw(st.integers(1, 2 * _ADVANCE_CAP))):
            run.append(float(np.nextafter(run[-1], 2.0)))
        pts = run + draw(st.lists(unit, max_size=4))
    elif kind == "ends":
        pts = [0.0, BELOW_ONE] + draw(st.lists(unit, max_size=6))
    else:
        pts = draw(st.lists(unit, min_size=1, max_size=40))
    pts = clip_unit(pts)
    return pts if pts.size else np.array([draw(unit)])


def populated(n: int, seed, delta: int = 2, with_ring: bool = True,
              selector=None) -> DistanceHalvingNetwork:
    """``populate(n)`` on a fresh network.

    ``seed`` is an int or the generator itself (kept, not copied, so the
    caller draws on from where ``populate`` left it).
    """
    net = DistanceHalvingNetwork(delta=delta, with_ring=with_ring,
                                 rng=np.random.default_rng(seed))
    net.populate(n, selector=selector)
    return net


def joined(points, delta: int = 2, with_ring: bool = True,
           seed=None) -> DistanceHalvingNetwork:
    """One ``join`` per id of ``points``, in order (exact ids stay exact).

    ``seed`` feeds the network's generator — its item hash among others;
    ``None`` draws fresh entropy, as the network's own default does.
    """
    net = DistanceHalvingNetwork(delta=delta, with_ring=with_ring,
                                 rng=np.random.default_rng(seed))
    for p in points:
        net.join(p)
    return net


#: The networks :func:`boundary_network` builds.
KINDS = ("tiny", "clustered", "smooth")


@functools.lru_cache(maxsize=None)
def boundary_network(kind: str, delta: int, seed: int) -> DistanceHalvingNetwork:
    """A network of ``kind`` for the exact-arithmetic suites, built once.

    ``tiny``: one to five random ids; ``clustered``: half the ids inside
    one interval 1e-9 wide, for deep walks; ``smooth``: ``populated(64)``.
    """
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        return populated(64, rng, delta)
    if kind == "tiny":
        pts = rng.random(int(rng.integers(1, 6)))
    else:
        base = rng.random()
        pts = np.concatenate([rng.random(8), base + 1e-9 * rng.random(8)])
    return joined(np.unique(pts[pts < 1.0]).tolist(), delta, seed=seed)
