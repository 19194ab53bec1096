"""Shared inputs: the adversarial point sets, the network builders and
the keyed digit strings and uniforms a keyed engine call reads."""

import functools

import numpy as np
from hypothesis import strategies as st

from repro.core.network import DistanceHalvingNetwork
from repro.core.segments import _ADVANCE_CAP
from repro.core.walk import KeyedLanes

BELOW_ONE = float(np.nextafter(1.0, 0.0))

unit = st.floats(min_value=0.0, max_value=BELOW_ONE, allow_nan=False)


def clip_unit(values) -> np.ndarray:
    """Distinct sorted float64 values of ``values`` inside ``[0, 1)``."""
    arr = np.asarray(values, dtype=np.float64)
    return np.unique(arr[(arr >= 0.0) & (arr < 1.0)])


def keyed_tau(key: int, size: int, delta: int, width: int = 64) -> np.ndarray:
    """The ``(size, width)`` digit strings lanes ``0 … size − 1`` of
    ``key`` walk on: an engine's keyed draw as a pinned ``tau``."""
    return KeyedLanes(key, size, width, delta)[0:size]


def keyed_choices(key: int, size: int, width: int = 64) -> np.ndarray:
    """The ``(size, width)`` uniforms lanes ``0 … size − 1`` of ``key``
    read: an engine's keyed draw as pinned ``choices``."""
    lanes = KeyedLanes(key, size, width)
    return np.stack([lanes[:, j] for j in range(width)],
                    axis=-1).reshape(size, width)


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


class _FirstDraw:
    """A generator whose first ``random(n)`` hands out fixed ids."""

    def __init__(self, ids, seed):
        self._ids, self._rng = ids, np.random.default_rng(seed)

    def random(self, size=None):
        ids, self._ids = self._ids, None
        return self._rng.random(size) if ids is None else ids

    def __getattr__(self, name):
        return getattr(self._rng, name)


def overlapped(points, seed):
    """A §6 overlapping network on ``points`` plus 16 uniform ids.

    ``points`` snap down to the ``2^-53`` grid the network's own
    ``rng.random`` draws from (its overlap estimate reads ``log2`` of a
    gap), and the uniform ids keep ``n`` at the network's minimum of 8
    whatever :func:`point_sets` drew; ``seed`` feeds them and the item
    hash.
    """
    from repro.faults import OverlappingDHNetwork

    grid = np.floor(np.asarray(points, float) * 2.0**53) * 2.0**-53
    fill = np.random.default_rng(seed).random(16)
    ids = np.unique(np.concatenate([grid, fill]))
    return OverlappingDHNetwork(ids.size, _FirstDraw(ids, seed))


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
