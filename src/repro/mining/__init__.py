"""Frequent itemset mining and FIM-based block matching (paper §IV-A).

Implements the substrate the paper takes from ``fim_apriori-lowmem``:

* :mod:`~repro.mining.transactions` -- turning a trace into
  transactions (requests within a ``T`` window form one transaction),
* :mod:`~repro.mining.apriori` / :mod:`~repro.mining.eclat` /
  :mod:`~repro.mining.fpgrowth` -- the three classic FIM algorithm
  families (§IV-A cites exactly these); they produce identical
  itemsets, which the test-suite exploits as a cross-check,
* :mod:`~repro.mining.pairs` -- the columnar pair kernel the serving
  pipelines mine with: Apriori's frequent pairs of a trace in one
  numpy pass, identical to ``apriori(..., max_size=2)``,
* :mod:`~repro.mining.streaming` -- incremental FP-growth, provably
  identical to the batch miners at every stream prefix (no serving
  path uses it; see its docstring),
* :mod:`~repro.mining.matching` -- mapping data blocks to design
  blocks so that frequently co-requested blocks land on different
  design blocks, with the ``block % n_design_blocks`` fallback.
"""

from repro.mining.apriori import apriori
from repro.mining.eclat import eclat
from repro.mining.fpgrowth import fpgrowth
from repro.mining.itemsets import ItemsetCounts
from repro.mining.matching import FIMBlockMatcher, MatchResult
from repro.mining.streaming import StreamingFPGrowth, StreamingTransactions
from repro.mining.transactions import transactions_from_trace

__all__ = [
    "FIMBlockMatcher",
    "ItemsetCounts",
    "MatchResult",
    "StreamingFPGrowth",
    "StreamingTransactions",
    "apriori",
    "eclat",
    "fpgrowth",
    "transactions_from_trace",
]
