"""Coined discrete-time quantum walk search on undirected graphs.

Simulates the search walk matrix-free over directed arcs, constructs and
verifies the stationary states that marked connected components can form,
and evaluates probability ceilings for how much mass the walk can ever
place on the marked set.

The package exports every name in the ``__all__`` of ``graphs``, ``walk``,
``stationary`` and ``bounds``.
"""

from . import bounds, graphs, stationary, walk
from .bounds import *
from .graphs import *
from .stationary import *
from .walk import *

__version__ = "0.1.0"

__all__ = [*graphs.__all__, *walk.__all__, *stationary.__all__, *bounds.__all__, "__version__"]
