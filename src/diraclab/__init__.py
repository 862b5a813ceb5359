"""Exact and experimental toolkit for degree thresholds and perfect matchings
in k-uniform hypergraphs.

Subpackages by theme:

- ``hypercore``: the Hypergraph type, degrees, Berge girth, k-density, and
  the .khg file format.
- ``matchpower``: perfect matchings, set-family matching conditions,
  disjoint representatives.
- ``thresholds``: exact Dirac-threshold sweeps and extremal barrier builders.
- ``absorbing``: rooted absorbers, bipartite incidence patterns, sparsity
  checks, assembly and contraction.
- ``templates``: resilient matching templates and their verification.
- ``pipeline``: end-to-end perfect matching construction on a host graph.
- ``lab``: seeded experiments, degradation schedules, CSV reports.
- ``cli``: the ``diraclab`` command line.
"""

from .hypercore import Hypergraph

__version__ = "0.1.0"

__all__ = ["Hypergraph", "__version__"]
