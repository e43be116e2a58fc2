"""Weighted additive spanners and emulators, with an exact stretch verifier.

The package builds sparse subgraphs (spanners) and sparse weighted graphs
(emulators) that approximately preserve shortest-path distances, where the
additive error of a pair u,v is measured in units of the heaviest edge on
the shortest u-v path.  Everything is exactly verifiable at desk scale: the
verifier recomputes all-pairs distances and certifies every claimed bound.
"""

from .graph import WeightedGraph
from .shortest import build_index
from .light import LightInit, t_light_init
from .greedy import (
    SpannerResult,
    build_6eps_spanner,
    build_poly_spanner,
    build_subsetwise_spanner,
    greedy_multiplicative,
    make_pair_order,
)
from .fast2w import LevelStructure, build_fast_2w, sample_levels
from .emulator import EmulatorResult, build_4w_emulator
from .verify import (
    StretchReport,
    Violation,
    size_scaling_fit,
    verify_additive_W,
    verify_multiplicative,
    verify_non_contracting,
    verify_subgraph,
)
from .generators import GenSpec, generate

__all__ = [
    "WeightedGraph",
    "build_index",
    "LightInit",
    "t_light_init",
    "SpannerResult",
    "make_pair_order",
    "greedy_multiplicative",
    "build_6eps_spanner",
    "build_subsetwise_spanner",
    "build_poly_spanner",
    "LevelStructure",
    "sample_levels",
    "build_fast_2w",
    "EmulatorResult",
    "build_4w_emulator",
    "StretchReport",
    "Violation",
    "verify_additive_W",
    "verify_multiplicative",
    "verify_subgraph",
    "verify_non_contracting",
    "size_scaling_fit",
    "GenSpec",
    "generate",
]
