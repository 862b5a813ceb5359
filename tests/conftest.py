from __future__ import annotations

import random
from itertools import combinations

from hypothesis import settings
from hypothesis import strategies as st

from diraclab.hypercore import Hypergraph

# Every run draws the same examples, with no example database: an input that
# fails on one machine fails on every machine and in every later run.
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")


@st.composite
def small_hypergraph(draw, max_n: int = 8, min_k: int = 2, max_k: int = 4):
    """A random small hypergraph; edge set drawn as a subset of all k-sets."""
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    n = draw(st.integers(min_value=k, max_value=max_n))
    all_edges = list(combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=len(all_edges)))
    return Hypergraph.from_edges(n, k, edges)


def seeded_subgraph(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Deterministic random subgraph of the complete k-graph (test helper)."""
    rng = random.Random(seed)
    edges = [e for e in combinations(range(n), k) if rng.random() < p]
    return Hypergraph(n, k, tuple(edges))


# vertices a contracted-absorber interior needs per sparsity level, at k=3,
# pattern degree 3 (pattern edge count minus the 3 root slots)
_INTERIOR = {4: 6, 6: 18, 8: 42}
_HOSTS: dict[int, Hypergraph] = {}


def contracted_host(K: int) -> Hypergraph:
    """Smallest complete 3-graph that fits a two-interior contractible
    absorber at sparsity K; cached because the edge lists get large."""
    if K not in _HOSTS:
        n = 9 + 2 * _INTERIOR[K]
        _HOSTS[K] = Hypergraph.complete(n, 3)
    return _HOSTS[K]


def make_contracted(K: int, seed: int):
    """Build one contracted absorber at sparsity K (k=3) from two
    pattern-built interior absorbers sharing the three merged roots."""
    from diraclab.absorbing import (
        assemble_contractible,
        contract_absorber,
        find_sparse_r_absorber,
    )

    host = contracted_host(K)
    rooted = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    col1, col2 = (1, 4, 7), (2, 5, 8)
    base = set(range(9))
    sub1 = find_sparse_r_absorber(
        host, col1, K, q=3, seed=2 * seed, forbidden=base - set(col1)
    )
    sub2 = find_sparse_r_absorber(
        host, col2, K, q=3, seed=2 * seed + 1,
        forbidden=(base - set(col2)) | (sub1.vertices - set(col1)),
    )
    CA = assemble_contractible((0, 3, 6), rooted, (sub1, sub2), host)
    return contract_absorber(CA)
