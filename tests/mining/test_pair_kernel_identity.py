"""The columnar FIM pipeline against the per-transaction one.

* :func:`repro.mining.pairs.mine_pairs` must equal
  ``apriori(transactions_from_arrays(...), s, max_size=2)``: the same
  itemsets, supports, transaction count and pair order.
* :meth:`FIMBlockMatcher.match` must equal the frozenset greedy it
  replaced (kept below as ``reference_match``), mapping insertion
  order included, on dict- and column-backed ``ItemsetCounts``.
* ``MatchResult.map_blocks``/``map_array``/``match_rate`` and
  ``pair_support_by_block`` must equal their scalar definitions.
* ``StreamingTransactions.observe_many`` must emit what one
  ``observe`` per request emits, however the stream is chunked.
"""

from typing import Dict, List, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.design_theoretic import DesignTheoreticAllocation
from repro.controller.planner import pair_support_by_block
from repro.mining import FIMBlockMatcher, ItemsetCounts, MatchResult, \
    StreamingTransactions, apriori
from repro.mining.pairs import mine_pairs, mine_trace_pairs
from repro.mining.transactions import transactions_from_arrays, \
    transactions_from_trace
from repro.traces import Trace

WINDOW = 0.133
ALLOC = DesignTheoreticAllocation.from_parameters(9, 3)

# -- strategies -------------------------------------------------------------

#: arrivals on window edges, within 1e-9 of them, and in between
arrivals = st.builds(
    lambda k, nudge: k * WINDOW + nudge,
    st.integers(0, 12),
    st.sampled_from([0.0, 1e-10, -1e-10, 9e-10, -9e-10, 2e-9, 0.05,
                     0.1, WINDOW / 2]))
block_ids = st.one_of(
    st.integers(-4, 12),
    st.sampled_from([-(2 ** 40), 2 ** 32, 2 ** 32 + 1, 2 ** 40,
                     2 ** 62]))
reads = st.lists(st.tuples(arrivals, block_ids), max_size=60)


# -- the pair kernel --------------------------------------------------------

def assert_same_itemsets(got: ItemsetCounts, want: ItemsetCounts):
    assert got == want
    assert len(got) == len(want)
    assert got.n_transactions == want.n_transactions
    assert got.min_support == want.min_support
    assert got.pairs() == want.pairs()
    assert got.of_size(1) == want.of_size(1)


@settings(max_examples=200, deadline=None)
@given(reads, st.integers(1, 3))
def test_kernel_equals_apriori(rows, support):
    arr = [t for t, _ in rows]
    blk = [b for _, b in rows]
    want = apriori(transactions_from_arrays(arr, blk, WINDOW), support,
                   max_size=2)
    assert_same_itemsets(mine_pairs(arr, blk, WINDOW, support), want)


@pytest.mark.parametrize("arr,blk", [
    ([], []),
    ([3.0], [7]),
    ([0.0, 0.0, 0.0], [5, 5, 5]),              # one window, one item
    ([0.5, 0.0, 0.2, 0.1], [1, 2, 1, 3]),      # unsorted input
    ([0.0, WINDOW, 2 * WINDOW - 1e-10], [-1, 2 ** 33, -1]),
])
@pytest.mark.parametrize("support", [1, 2, 3])
def test_kernel_edge_cases(arr, blk, support):
    want = apriori(transactions_from_arrays(arr, blk, WINDOW), support,
                   max_size=2)
    assert_same_itemsets(mine_pairs(arr, blk, WINDOW, support), want)


def test_kernel_trace_reads_only():
    trace = Trace.from_arrays(
        [0.0, 0.01, 0.02, 0.3, 0.31], [1, 2, 3, 1, 2],
        is_read=[True, True, False, True, True])
    want = apriori(transactions_from_trace(trace, WINDOW), 1,
                   max_size=2)
    assert_same_itemsets(mine_trace_pairs(trace, WINDOW), want)


def test_kernel_validation():
    with pytest.raises(ValueError):
        mine_pairs([0.0], [1], WINDOW, min_support=0)
    with pytest.raises(ValueError):
        mine_pairs([0.0], [1], 0.0)
    with pytest.raises(ValueError):
        mine_pairs([0.0, 1.0], [1], WINDOW)


def test_column_backed_counts_read_like_a_dict():
    got = mine_pairs([0.0, 0.01, 0.2, 0.21], [4, 9, 4, 9], WINDOW)
    assert len(got) == 3
    assert got.support({4, 9}) == 2
    assert {4, 9} in got
    assert got.as_dict() == {frozenset({4}): 2, frozenset({9}): 2,
                             frozenset({4, 9}): 2}
    assert dict(got.items()) == got.as_dict()
    assert "3 itemsets" in repr(got)
    a, b, s = got.pair_columns()
    with pytest.raises(ValueError):
        a[0] = 0  # the columns are shared, so read-only


# -- the matcher ------------------------------------------------------------

def reference_match(allocation, itemsets: ItemsetCounts) -> MatchResult:
    """The frozenset greedy the bitmask matcher replaced, verbatim."""
    n = allocation.n_buckets
    device_sets = [frozenset(allocation.devices_for(b)) for b in range(n)]

    def choose(blk, neighbours, mapping, cursor):
        taken: Set[int] = set()
        neighbour_devices: Set[int] = set()
        for other in neighbours.get(blk, ()):
            db = mapping.get(other)
            if db is not None:
                taken.add(db)
                neighbour_devices |= device_sets[db]
        best, best_score = blk % n, None
        for off in range(n):
            cand = (cursor + off) % n
            if cand in taken:
                continue
            overlap = len(device_sets[cand] & neighbour_devices)
            score = (overlap, off)
            if best_score is None or score < best_score:
                best, best_score = cand, score
                if overlap == 0:
                    break
        return best

    pairs = itemsets.pairs()
    neighbours: Dict[int, Set[int]] = {}
    for a, b, _support in pairs:
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    mapping: Dict[int, int] = {}
    cursor = 0
    for a, b, _support in pairs:
        for blk in (a, b):
            if blk not in mapping:
                mapping[blk] = choose(blk, neighbours, mapping, cursor)
                cursor += 1
    return MatchResult(mapping, frozenset(mapping), n)


#: random pair lists over a small id pool, so blocks share many pairs
#: (dense neighbourhoods, every design block taken) and supports tie
pair_lists = st.lists(
    st.tuples(st.integers(-3, 60), st.integers(-3, 60),
              st.integers(1, 4)),
    max_size=150)


def dict_counts(rows) -> ItemsetCounts:
    counts = {}
    for a, b, s in rows:
        if a != b:
            counts[frozenset((a, b))] = s
    return ItemsetCounts(counts, n_transactions=len(rows), min_support=1)


def assert_same_match(got: MatchResult, want: MatchResult):
    assert list(got.mapping.items()) == list(want.mapping.items())
    assert got.matched_blocks == want.matched_blocks
    assert got.n_design_blocks == want.n_design_blocks


@settings(max_examples=150, deadline=None)
@given(pair_lists)
def test_matcher_equals_reference_on_dict_counts(rows):
    itemsets = dict_counts(rows)
    got = FIMBlockMatcher(ALLOC).match(itemsets)
    assert_same_match(got, reference_match(ALLOC, itemsets))


@settings(max_examples=100, deadline=None)
@given(reads, st.integers(1, 2))
def test_matcher_equals_reference_on_column_counts(rows, support):
    arr = [t for t, _ in rows]
    blk = [b for _, b in rows]
    mined = mine_pairs(arr, blk, WINDOW, support)
    got = FIMBlockMatcher(ALLOC).match(mined)
    assert_same_match(got, reference_match(ALLOC, mined))


def test_matcher_equals_reference_on_a_dense_clique():
    # 40 blocks, all pairwise frequent: every design block is taken
    # long before the end, so the modulo fallback of a full scan runs
    rows = [(a, b, 1 + (a * b) % 3) for a in range(40)
            for b in range(a + 1, 40)]
    itemsets = dict_counts(rows)
    got = FIMBlockMatcher(ALLOC).match(itemsets)
    assert_same_match(got, reference_match(ALLOC, itemsets))


def test_matcher_reads_each_design_block_once():
    calls: List[int] = []

    class Counting:
        n_buckets = ALLOC.n_buckets

        def devices_for(self, bucket):
            calls.append(bucket)
            return ALLOC.devices_for(bucket)

    matcher = FIMBlockMatcher(Counting())
    assert calls == []  # construction is set-up time: it reads nothing
    itemsets = dict_counts([(1, 2, 3), (2, 3, 1), (4, 5, 2)])
    for _ in range(3):
        assert_same_match(matcher.match(itemsets),
                          reference_match(ALLOC, itemsets))
    assert sorted(calls) == list(range(ALLOC.n_buckets))


# -- lookups ----------------------------------------------------------------

lookups = st.lists(st.integers(-70, 70), max_size=80)


@settings(max_examples=150, deadline=None)
@given(pair_lists, lookups)
def test_lookups_equal_scalar_definitions(rows, blocks):
    match = FIMBlockMatcher(ALLOC).match(dict_counts(rows))
    want = [match.design_block_of(b) for b in blocks]
    assert match.map_blocks(blocks) == want
    assert match.map_blocks(iter(blocks)) == want
    assert match.map_array(np.asarray(blocks, dtype=np.int64)).tolist() \
        == want
    hits = sum(1 for b in blocks if int(b) in match.matched_blocks)
    rate = hits / len(blocks) if blocks else 0.0
    assert match.match_rate(blocks) == rate
    assert match.match_rate(np.asarray(blocks, dtype=np.int64)) == rate


def test_lookups_follow_matched_blocks_not_the_mapping():
    # a planner result: deferred moves keep the old mapping, while the
    # matched set follows what the miner learned
    match = MatchResult({5: 1}, frozenset({5, 6, 7}), 36)
    assert match.map_blocks([5, 6, 41]) == [1, 6, 5]
    assert match.match_rate([5, 6, 8, 9]) == 0.5
    assert MatchResult.empty(36).match_rate([1, 2]) == 0.0


def reference_pair_support(itemsets: ItemsetCounts) -> Dict[int, int]:
    support: Dict[int, int] = {}
    for a, b, s in itemsets.pairs():
        for blk in (a, b):
            if s > support.get(blk, 0):
                support[blk] = s
    return support


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 40), st.integers(-3, 40),
                          st.integers(-1, 4)), max_size=80))
def test_pair_support_by_block_equals_scalar_definition(rows):
    itemsets = dict_counts(rows)
    got = pair_support_by_block(itemsets)
    want = reference_pair_support(itemsets)
    assert list(got.items()) == list(want.items())


# -- streaming windows ------------------------------------------------------

def emitted(stream_rows, chunks=None) -> List[frozenset]:
    out: List[frozenset] = []
    stream = StreamingTransactions(WINDOW, out.append)
    if chunks is None:
        for t, b in stream_rows:
            stream.observe(t, b)
    else:
        lo = 0
        for hi in chunks + [len(stream_rows)]:
            chunk = stream_rows[lo:hi]
            stream.observe_many([t for t, _ in chunk],
                                [b for _, b in chunk])
            lo = hi
    stream.flush()
    return out


@settings(max_examples=150, deadline=None)
@given(reads, st.lists(st.integers(0, 60), max_size=6),
       st.booleans())
def test_observe_many_equals_per_request_observe(rows, cuts, ordered):
    if ordered:
        rows = sorted(rows, key=lambda r: r[0])
    chunks = sorted(c for c in cuts if c <= len(rows))
    assert emitted(rows, chunks) == emitted(rows)


def test_observe_many_after_reset_realigns():
    out: List[frozenset] = []
    stream = StreamingTransactions(WINDOW, out.append)
    stream.observe_many([0.0, 0.01], [1, 2])
    stream.flush()
    stream.reset()
    stream.observe_many([100.0, 100.1, 100.2], [3, 4, 5])
    stream.flush()
    assert out == [frozenset({1, 2}), frozenset({3, 4}), frozenset({5})]
    with pytest.raises(ValueError):
        stream.observe_many([0.0], [])
    with pytest.raises(ValueError):
        stream.observe(float("nan"), 1)
    stream.observe_many([], [])
    assert stream.n_emitted == 3
