"""General graph emulation over smooth decompositions (paper §7)."""

from .emulator import GraphEmulator
from .families import (
    DeBruijnFamily,
    GraphFamily,
    RingFamily,
    ShuffleExchangeFamily,
    TorusFamily,
)

__all__ = [
    "DeBruijnFamily",
    "GraphEmulator",
    "GraphFamily",
    "RingFamily",
    "ShuffleExchangeFamily",
    "TorusFamily",
]
