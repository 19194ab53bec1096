"""Server (node) state for the discrete Distance Halving network.

A server is intentionally thin: the continuous-discrete approach keeps all
topology in the *decomposition* (the :class:`~repro.core.segments.SegmentMap`),
so a server only needs its id point and its key-value store.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["Server"]


class Server:
    """One participant of the network.

    ``point`` is the hashed id ``x_i ∈ [0, 1)`` chosen at join time (§2.1
    Algorithm Join step 1); it is immutable for the server's lifetime in
    the plain DHT (the §4 bucket balancer is the one component allowed to
    relocate servers, which it models as leave+join).  ``name`` defaults
    to ``server@{point:.6f}``, formatted on first read; ``store`` holds
    the data items the server is responsible for.

    One slotted object per server: a network of n servers holds n of
    them, so they carry no per-instance ``__dict__``.
    """

    __slots__ = ("point", "name", "store")

    def __init__(self, point: float, name: str = "") -> None:
        self.point = point
        if name:
            self.name = name
        self.store: Dict[Any, Any] = {}

    def __getattr__(self, attr: str) -> str:
        # only reached while the ``name`` slot is unset: the default name
        if attr != "name":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {attr!r}")
        self.name = name = f"server@{float(self.point):.6f}"
        return name

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.point, self.name, self.store)
                == (other.point, other.name, other.store))

    def __hash__(self) -> int:  # identity by id point (unique in a network)
        return hash(self.point)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(point={self.point!r}, "
                f"name={self.name!r}, store={self.store!r})")
