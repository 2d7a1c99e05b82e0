"""FIM-based matching of data blocks to design blocks (paper §IV-A).

The design supports a limited number of design blocks (36 for the
(9,3,1) design) while the storage system has many more data blocks.
The matcher maps data blocks onto design blocks so that *frequently
co-requested* data blocks land on **different** design blocks --
maximising the chance of parallel retrieval -- using the frequent pairs
mined from the previous interval.  Data blocks not seen by FIM fall
back to ``dataBlockNumber % numberOfDesignBlocks``.

Beyond the paper's "different design blocks" rule, the matcher prefers
design blocks whose *device sets* overlap least with the neighbours'
(two distinct design blocks can still share a device; avoiding that
too further reduces serialisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.allocation.base import AllocationScheme
from repro.mining.itemsets import ItemsetCounts, first_appearance

__all__ = ["FIMBlockMatcher", "MatchResult"]


def _as_int64(data_blocks: Iterable[int]) -> np.ndarray:
    """Block ids as ``int64`` (``int()`` semantics, any iterable)."""
    if not hasattr(data_blocks, "__len__"):
        data_blocks = list(data_blocks)
    return np.asarray(data_blocks).astype(np.int64, copy=False)


def _find(keys: np.ndarray, blocks: np.ndarray):
    """Position of each block in the sorted ``keys``, and whether it
    is there."""
    if keys.size == 0:
        return np.zeros(blocks.size, dtype=np.intp), \
            np.zeros(blocks.size, dtype=bool)
    pos = np.minimum(np.searchsorted(keys, blocks), keys.size - 1)
    return pos, keys[pos] == blocks


def _bitmask(devices: Iterable[int]) -> int:
    mask = 0
    for d in devices:
        mask |= 1 << int(d)
    return mask


@dataclass
class MatchResult:
    """Outcome of one matching round.

    Attributes
    ----------
    mapping:
        Explicit data-block -> design-block assignments from FIM.
    matched_blocks:
        Data blocks that appeared in the FIM output (Figure 11 counts
        how many of the *next* interval's requests hit this set).
    n_design_blocks:
        Modulo base for the fallback rule.
    """

    mapping: Dict[int, int]
    matched_blocks: FrozenSet[int]
    n_design_blocks: int

    def design_block_of(self, data_block: int) -> int:
        """Mapped design block, falling back to the modulo rule."""
        got = self.mapping.get(int(data_block))
        if got is not None:
            return got
        return int(data_block) % self.n_design_blocks

    def map_array(self, data_blocks: Iterable[int]) -> np.ndarray:
        """:meth:`design_block_of` of every block, as an ``int64`` array.

        One ``searchsorted`` against the sorted mapping keys; blocks
        the mapping misses take the modulo fallback.
        """
        blocks = _as_int64(data_blocks)
        out = blocks % self.n_design_blocks
        keys = np.fromiter(self.mapping, dtype=np.int64,
                           count=len(self.mapping))
        order = np.argsort(keys)
        pos, hit = _find(keys[order], blocks)
        values = np.fromiter(self.mapping.values(), dtype=np.int64,
                             count=len(self.mapping))[order]
        out[hit] = values[pos[hit]]
        return out

    def map_blocks(self, data_blocks: Iterable[int]) -> List[int]:
        return self.map_array(data_blocks).tolist()

    def match_rate(self, data_blocks: Sequence[int]) -> float:
        """Fraction of ``data_blocks`` covered by the FIM mapping.

        This is the paper's Figure 11 metric: the percentage of blocks
        in the current interval that were matched by mining the
        previous one.
        """
        if len(data_blocks) == 0:
            return 0.0
        matched = np.sort(np.fromiter(self.matched_blocks, dtype=np.int64,
                                      count=len(self.matched_blocks)))
        _pos, hit = _find(matched, _as_int64(data_blocks))
        return int(np.count_nonzero(hit)) / len(data_blocks)

    @classmethod
    def empty(cls, n_design_blocks: int) -> "MatchResult":
        """The first-interval result: nothing mined yet, all modulo."""
        return cls({}, frozenset(), n_design_blocks)


class FIMBlockMatcher:
    """Greedy conflict-avoiding matcher driven by mined pairs.

    Parameters
    ----------
    allocation:
        Supplies the design-block count and, for the device-overlap
        preference, each design block's device set.
    """

    def __init__(self, allocation: AllocationScheme):
        self.allocation = allocation
        self.n_design_blocks = allocation.n_buckets
        #: each design block's device set as a bitmask, and neighbour-
        #: device mask -> _overlap_levels; both filled by match(), so
        #: building a matcher costs nothing
        self._device_masks: Optional[List[int]] = None
        self._levels: Dict[int, Tuple[int, ...]] = {}

    def match_history(self, itemset_history: Sequence[ItemsetCounts],
                      decay: float = 0.5) -> MatchResult:
        """Match using several intervals of mining history.

        The paper notes "longer history can be used for better matching
        of the design blocks to the data blocks" (§V-D).  Supports from
        older intervals are combined with exponential ``decay`` (most
        recent interval last in the sequence, weight 1; one older,
        weight ``decay``; and so on), then matched as usual.
        """
        if not itemset_history:
            return MatchResult.empty(self.n_design_blocks)
        if not 0 <= decay <= 1:
            raise ValueError("decay must be in [0, 1]")
        combined: Dict[FrozenSet[int], float] = {}
        n_txns = 0
        for age, itemsets in enumerate(reversed(list(itemset_history))):
            weight = decay ** age
            if weight == 0:
                break
            n_txns += itemsets.n_transactions
            for itemset, count in itemsets.items():
                if len(itemset) == 2:
                    combined[itemset] = combined.get(itemset, 0.0) \
                        + weight * count
        # round weighted supports up so every surviving pair stays >= 1
        weighted = ItemsetCounts(
            {s: max(1, int(round(c))) for s, c in combined.items()},
            n_transactions=n_txns, min_support=1)
        return self.match(weighted)

    def match(self, itemsets: ItemsetCounts) -> MatchResult:
        """Assign design blocks given mined pair supports.

        Pairs are processed by descending support; each data block gets
        the design block that (1) differs from every already-assigned
        neighbour's design block and (2) overlaps their device sets
        least, with a rotating tie-break to spread load.

        Blocks are assigned in order of first appearance in the pair
        list, so the ``r``-th block assigned has cursor ``r`` and its
        already-assigned neighbours are exactly those of lower rank:
        each pair is visited once, from its later block.
        """
        a, b, _support = itemsets.pair_columns()
        n = self.n_design_blocks
        flat = np.column_stack((a, b)).ravel()
        first, rank = first_appearance(flat)
        blocks = flat[first].tolist()
        rank_a, rank_b = rank[0::2], rank[1::2]
        later = np.maximum(rank_a, rank_b)
        order = np.argsort(later, kind="stable")
        earlier = np.minimum(rank_a, rank_b)[order].tolist()
        bounds = np.searchsorted(later[order],
                                 np.arange(len(blocks) + 1)).tolist()
        if self._device_masks is None:
            self._device_masks = [_bitmask(self.allocation.devices_for(db))
                                  for db in range(n)]
        masks = self._device_masks
        chosen: List[int] = []
        for r, blk in enumerate(blocks):
            taken = near = 0
            for other in earlier[bounds[r]:bounds[r + 1]]:
                db = chosen[other]
                taken |= 1 << db
                near |= masks[db]
            chosen.append(self._choose(blk, r, taken, near))
        mapping = dict(zip(blocks, chosen))
        return MatchResult(mapping, frozenset(mapping), n)

    def _choose(self, blk: int, cursor: int, taken: int,
                near: int) -> int:
        """Least-overlap free design block, scanning from ``cursor``.

        ``taken`` and ``near`` are bitmasks of the assigned
        neighbours' design blocks and devices.  The scan offset only
        grows, so the ``(overlap, offset)`` score picks the first free
        candidate, in rotation order from ``cursor``, of the least
        overlap any free candidate has; with none free, the modulo
        rule.
        """
        levels = self._levels.get(near)
        if levels is None:
            levels = self._levels[near] = self._overlap_levels(near)
        start = cursor % self.n_design_blocks
        for level in levels:
            free = level & ~taken
            if free:
                pick = (free >> start << start) or free
                return (pick & -pick).bit_length() - 1
        return blk % self.n_design_blocks

    def _overlap_levels(self, near: int) -> Tuple[int, ...]:
        """Design blocks by device overlap with ``near``: one bitmask
        per overlap value, least overlap first, empty ones left out."""
        by_overlap: Dict[int, int] = {}
        for cand, mask in enumerate(self._device_masks):
            overlap = (mask & near).bit_count()
            by_overlap[overlap] = by_overlap.get(overlap, 0) | 1 << cand
        return tuple(by_overlap[k] for k in sorted(by_overlap))
