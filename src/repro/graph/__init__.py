"""Flow networks and maximum-flow algorithms.

The optimal retrieval schedule of replicated data (paper §III-C,
following Altiparmak & Tosun's max-flow formulation) reduces to a
bipartite feasibility question answered by maximum flow.  This package
provides the from-scratch substrate:

* :class:`~repro.graph.flownet.FlowNetwork` -- a compact adjacency-list
  flow network with residual edges,
* :func:`~repro.graph.dinic.max_flow` -- Dinic's algorithm,
* :func:`~repro.graph.matching.bounded_degree_assignment` -- the one
  Dinic assignment builder (uniform or per-bin capacity): the
  reference every other solver is checked against, and the solver for
  backlogged batches and arrays too wide for bitsets,
* :mod:`~repro.graph.kuhn` -- the capacitated augmenting-path matcher
  whose order-sensitive assignments *are* the ``maxflow_retrieval``
  schedules,
* :mod:`~repro.graph.kernels` -- vectorized bitset feasibility,
  warm-started incremental matching and memoized schedules for the
  retrieval hot path (exact, cross-checked against the solvers above).
"""

from repro.graph import kernels
from repro.graph.dinic import max_flow
from repro.graph.flownet import FlowNetwork
from repro.graph.matching import bounded_degree_assignment

__all__ = ["FlowNetwork", "kernels", "max_flow",
           "bounded_degree_assignment"]
