"""The search loops agree with the recursions they replaced.

``recursive_searches`` holds verbatim copies of the self-calling versions;
on seeded inputs each loop must return what its recursion returned, node
counts, optimal flags, budget stops and witnesses included.
"""

import gc
import random
from itertools import combinations

import pytest

import recursive_searches as old
from conftest import seeded_subgraph

from diraclab.errors import SizeError
from diraclab.hypercore import Hypergraph
from diraclab.matchpower import _max_matching, aharoni_haxell_holds, bipartite_matching
from diraclab.templates import find_independent_set, search_montgomery, verify_montgomery
from diraclab.thresholds import _perfect_matching_masks

HOSTS = [
    seeded_subgraph(n, k, p, seed=s)
    for n in (5, 7, 9)
    for k in (2, 3)
    for p in (0.2, 0.5, 0.9)
    for s in range(3)
]


# hosts on which the branch and bound takes up to a few hundred nodes
DEEP_HOSTS = [
    seeded_subgraph(n, k, p, seed=s)
    for n, k, p in ((11, 2, 0.2), (12, 2, 0.3), (11, 3, 0.3), (13, 3, 0.15))
    for s in range(4)
]


def test_max_matching_matches_the_recursion():
    for H in HOSTS + DEEP_HOSTS:
        for nv in (H.n, H.n + 2):
            for target in (None, 1, 2, 4):
                best, _, nodes = old._max_matching(H.edges, nv, target, None)
                assert _max_matching(H.edges, nv, target) == (best, nodes), (H, nv, target)


def test_independent_set_matches_the_recursion():
    for H in HOSTS:
        for t in range(0, H.n + 2):
            assert find_independent_set(H, t) == old.find_independent_set(H, t), (H, t)


def test_independent_set_rejects_negative_size():
    # no chosen set reaches a negative size, so the search used to walk every
    # include/exclude branch and return None
    with pytest.raises(SizeError, match="nonnegative"):
        find_independent_set(HOSTS[0], -1)


@pytest.mark.parametrize("n, k", [(0, 2), (2, 2), (5, 2), (6, 2), (8, 2), (3, 3), (7, 3), (9, 3), (8, 4)])
def test_perfect_matching_masks_match_the_recursion(n, k):
    edge_index = {e: i for i, e in enumerate(combinations(range(n), k))}
    got = _perfect_matching_masks(n, k, edge_index)
    assert got == old._perfect_matching_masks(n, k, edge_index)
    assert len(got) == len(set(got))


def test_bipartite_matching_matches_the_recursion():
    rng = random.Random(0)
    results = set()
    for _ in range(300):
        left, right = rng.randint(1, 6), rng.randint(1, 7)
        adj = [rng.sample(range(right), rng.randint(0, right)) for _ in range(left)]
        order = rng.sample(range(left), rng.randint(0, left))
        banned = frozenset(rng.sample(range(right), rng.randint(0, min(2, right))))
        got = bipartite_matching(adj, order, banned)
        want = old.bipartite_matching(adj, order, banned)
        assert got == want and list(got or ()) == list(want or ()), (adj, order, banned)
        results.add(got is None)
    assert results == {True, False}


def test_search_loops_leave_no_cycles_for_the_collector():
    # with the collector off, each search must be freed by reference
    # counting alone
    K7 = Hypergraph.complete(7, 3)
    edge_index = {e: i for i, e in enumerate(combinations(range(6), 3))}
    links = [Hypergraph.complete(6, 2)] * 3
    adj = [[1, 2], [0, 2], [0, 1, 3]]
    R = search_montgomery(4, 6, seed=0)
    searches = {
        "pm masks": lambda: len(_perfect_matching_masks(6, 3, edge_index)) == 10,
        "max matching": lambda: len(_max_matching(K7.edges, K7.n)[0]) == 2,
        "aharoni-haxell": lambda: aharoni_haxell_holds(links).violating == (0, 1, 2),
        "independent set": lambda: find_independent_set(K7, 2) == (0, 1),
        "bipartite matching": lambda: bipartite_matching(adj, range(3), frozenset()) is not None,
        "montgomery": lambda: verify_montgomery(R).ok,
    }
    left = {}
    for name, search in searches.items():
        gc.collect()
        gc.disable()
        try:
            assert all(search() for _ in range(20)), name
            left[name] = gc.collect()
        finally:
            gc.enable()
    assert left == dict.fromkeys(searches, 0)
