"""Bond percolation on periodic and aperiodic planar graphs.

The package generates finite patches of square, triangular, Penrose, and
Ammann-Beenker vertex graphs with exact integer coordinates, runs
reproducible bond percolation on them, measures pattern frequencies and
cluster statistics, assembles the integrated density of states of the
percolation-cluster Laplacian, and certifies rigorous low-energy tail
bounds against the Monte Carlo estimates.

Modules
-------
graphs      exact-coordinate patch generation and geometry checks
patterns    translation-class censuses and pattern frequencies
percolation seeded bond configurations and cluster statistics
spectral    cluster Laplacian spectra and the spectral counting table
lifshits    tail extraction, straight-line fit, bracket certification
cli         reproducible experiment front end
"""

__version__ = "0.1.0"

from .graphs import EmbeddedGraph, generate  # noqa: F401
from .percolation import PercolationParams, sample  # noqa: F401
from .spectral import IdsTable, ids_estimate  # noqa: F401
