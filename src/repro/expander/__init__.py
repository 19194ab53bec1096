"""Gabber–Galil dynamic expander and 2D substrate (paper §5)."""

from .expansion import (
    cheeger_bounds,
    sampled_vertex_expansion,
    spectral_gap,
    vertex_expansion_of_set,
)
from .gabber_galil import (
    GG_EXPANSION_CONSTANT,
    GabberGalilNetwork,
    gg_f,
    gg_f_inv,
    gg_g,
    gg_g_inv,
)
from .voronoi import TorusVoronoi

__all__ = [
    "GG_EXPANSION_CONSTANT",
    "GabberGalilNetwork",
    "TorusVoronoi",
    "cheeger_bounds",
    "gg_f",
    "gg_f_inv",
    "gg_g",
    "gg_g_inv",
    "sampled_vertex_expansion",
    "spectral_gap",
    "vertex_expansion_of_set",
]
