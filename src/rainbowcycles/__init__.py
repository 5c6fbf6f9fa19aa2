"""Rainbow cycle colourings: constructions, certificates, exact solving.

A k-rainbow cycle colouring of a graph puts every k vertices on a cycle with
pairwise distinct edge colours; crx_k is the least number of colours that
allows one. The package generates the classical graph families, builds the
published colourings for them, verifies colourings exhaustively, assembles
lower-bound certificates, and computes crx_k / rx_k exactly within a node
budget.
"""

from .colouring import CycleWitness, EdgeColouring, TreeWitness, WalkWitness
from .graph import Graph
from .solver import CrxResult, crx_exact, crx_interval, crx_lower_bound_distance, rx_exact

__all__ = [
    "CrxResult",
    "CycleWitness",
    "EdgeColouring",
    "Graph",
    "TreeWitness",
    "WalkWitness",
    "crx_exact",
    "crx_interval",
    "crx_lower_bound_distance",
    "rx_exact",
]
