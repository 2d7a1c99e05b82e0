"""Shared itemset-mining types and the result container."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["ItemsetCounts", "first_appearance"]

Itemset = FrozenSet[int]
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    out = tuple(np.array(a, dtype=np.int64) for a in arrays)
    for a in out:
        a.flags.writeable = False
    return out


def first_appearance(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``values`` in order of first appearance.

    Returns ``(first, rank)``: ``values[first]`` lists each distinct
    value once, in the order it first occurs, and ``rank[i]`` is the
    position of ``values[i]`` in that list.
    """
    _, first, inverse = np.unique(values, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank_of = np.empty_like(order)
    rank_of[order] = np.arange(order.size)
    return first[order], rank_of[inverse]


class ItemsetCounts:
    """Frequent itemsets with their support counts.

    A thin mapping ``frozenset -> count`` with convenience accessors
    used by the matcher and the cross-algorithm equivalence tests.

    Pair miners may hand over columns instead of a dict
    (:meth:`from_columns`): the mapping is then built only when a
    caller asks for it, and :meth:`pair_columns` -- all the matcher
    reads -- costs nothing.  Equality is mapping equality either way.
    """

    def __init__(self, counts: Dict[Itemset, int],
                 n_transactions: int, min_support: int):
        self._counts: Optional[Dict[Itemset, int]] = dict(counts)
        self._items: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._pairs: Optional[Columns] = None
        self.n_transactions = n_transactions
        self.min_support = min_support

    @classmethod
    def from_columns(cls, items: np.ndarray, item_support: np.ndarray,
                     a: np.ndarray, b: np.ndarray, support: np.ndarray,
                     n_transactions: int,
                     min_support: int) -> "ItemsetCounts":
        """Singletons and pairs given as columns.

        ``(a, b, support)`` must already be in :meth:`pairs` order
        (descending support, ties by ``a`` then ``b``, ``a < b``).
        The mapping built from the columns lists singletons by item,
        then pairs in that order.
        """
        out = cls.__new__(cls)
        out._counts = None
        out._items = _frozen(items, item_support)
        out._pairs = _frozen(a, b, support)
        out.n_transactions = n_transactions
        out.min_support = min_support
        return out

    def _mapping(self) -> Dict[Itemset, int]:
        if self._counts is None:
            items, item_support = self._items
            counts = {frozenset((i,)): c for i, c in
                      zip(items.tolist(), item_support.tolist())}
            a, b, s = self._pairs
            counts.update({frozenset((x, y)): c for x, y, c in
                           zip(a.tolist(), b.tolist(), s.tolist())})
            self._counts = counts
        return self._counts

    def support(self, itemset: Iterable[int]) -> int:
        """Absolute support of ``itemset`` (0 if not frequent)."""
        return self._mapping().get(frozenset(itemset), 0)

    def of_size(self, k: int) -> Dict[Itemset, int]:
        """Frequent itemsets with exactly ``k`` items."""
        return {s: c for s, c in self._mapping().items() if len(s) == k}

    def pairs(self) -> List[Tuple[int, int, int]]:
        """Size-2 itemsets as sorted ``(a, b, support)`` triples,
        ordered by descending support (ties by items)."""
        if self._pairs is not None:
            a, b, s = self._pairs
            return list(zip(a.tolist(), b.tolist(), s.tolist()))
        rows = [(min(s), max(s), c) for s, c in self.of_size(2).items()]
        rows.sort(key=lambda r: (-r[2], r[0], r[1]))
        return rows

    def pair_columns(self) -> Columns:
        """:meth:`pairs` as read-only ``int64`` columns ``(a, b, support)``."""
        if self._pairs is None:
            rows = np.array(self.pairs(), dtype=np.int64).reshape(-1, 3)
            self._pairs = _frozen(*rows.T)
        return self._pairs

    def items(self):
        return self._mapping().items()

    def as_dict(self) -> Dict[Itemset, int]:
        return dict(self._mapping())

    def __len__(self) -> int:
        if self._counts is None:
            return self._items[0].size + self._pairs[0].size
        return len(self._counts)

    def __contains__(self, itemset) -> bool:
        return frozenset(itemset) in self._mapping()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ItemsetCounts):
            return NotImplemented
        return self._mapping() == other._mapping()

    def __repr__(self) -> str:
        return (f"<ItemsetCounts {len(self)} itemsets over "
                f"{self.n_transactions} transactions "
                f"(min_support={self.min_support})>")
