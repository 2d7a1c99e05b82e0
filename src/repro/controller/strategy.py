"""Pluggable placement strategies for the live controller.

A strategy answers one question at every interval boundary: *given
what the miner just learned, where should data blocks live next?*  The
controller handles everything around it -- streaming the traffic,
mining each part, budgeting the migration, applying the result --
so a strategy is a single ``propose`` method:

``propose(itemsets, current) -> Optional[MatchResult]``

returning the target placement, or ``None`` for "keep what we have"
(no planning round happens at all).  Strategies must be deterministic:
the same itemsets and current placement must always produce the same
target, because the whole loop sits under the determinism probe.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mining.itemsets import ItemsetCounts
from repro.mining.matching import FIMBlockMatcher, MatchResult

__all__ = ["PlacementStrategy", "StaticPlacement", "FIMReplan"]


class PlacementStrategy:
    """Base class (and interface contract) for placement strategies."""

    def propose(self, itemsets: ItemsetCounts,
                current: MatchResult) -> Optional[MatchResult]:
        """Target placement for the next interval, or ``None`` to
        keep ``current`` unchanged."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget accumulated state (a fresh run)."""


class StaticPlacement(PlacementStrategy):
    """The baseline: never re-replicate.

    Whatever placement the array started with (usually the all-modulo
    fallback) stays in force for the whole run -- the static stand the
    adaptive loop is measured against in ``experiments/controller.py``.
    """

    def propose(self, itemsets: ItemsetCounts,
                current: MatchResult) -> Optional[MatchResult]:
        return None


class FIMReplan(PlacementStrategy):
    """The paper's loop: re-match from freshly mined patterns.

    With ``history=1`` (default) each boundary matches on the last
    interval's itemsets alone -- exactly the offline
    ``play_workload`` rule, which is what the identity contract and
    the determinism probe assert.  ``history > 1`` keeps a sliding
    window of itemset snapshots and matches on the decay-weighted
    combination (:meth:`~repro.mining.matching.FIMBlockMatcher.\
match_history`), the "longer history" variant of §V-D.
    """

    def __init__(self, matcher: FIMBlockMatcher, history: int = 1,
                 decay: float = 0.5):
        if history < 1:
            raise ValueError("history must be >= 1")
        if not 0 <= decay <= 1:
            raise ValueError("decay must be in [0, 1]")
        self.matcher = matcher
        self.history = history
        self.decay = decay
        self._snapshots: List[ItemsetCounts] = []

    def propose(self, itemsets: ItemsetCounts,
                current: MatchResult) -> Optional[MatchResult]:
        if self.history == 1:
            return self.matcher.match(itemsets)
        self._snapshots.append(itemsets)
        if len(self._snapshots) > self.history:
            self._snapshots.pop(0)
        return self.matcher.match_history(self._snapshots,
                                          decay=self.decay)

    def reset(self) -> None:
        self._snapshots = []
