"""Chip-firing divisor theory on finite multigraphs.

Core objects: Multigraph and Divisor; complete linear systems, read off
the cached table of compositions of deg(D) by class key while that table
fits a fixed element budget, and otherwise found by Baker-Norine greedy
reduction to one effective representative plus a breadth-first walk over
effective subset firings (O(|D| * 2^n * n) time, memory per step bounded
by the same budget); Baker-Norine rank with
failing-removal witnesses; toric rank over a generic graph curve decided
by finite-field node-constraint matrices; and seeded experiment drivers
with reproducible reports.
"""

from . import experiments, graphs, linsys, rank as _rank, toric
from .graphs import *
from .linsys import *
from .rank import *  # binds chipfire.rank to the function, not the module
from .toric import *
from .experiments import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(name for module in (graphs, linsys, _rank, toric, experiments) for name in module.__all__),
]
