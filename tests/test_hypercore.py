from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import hypercore
from diraclab.errors import DiracLabError, FormatError, ShapeError, SizeError
from diraclab.hypercore import (
    DensityResult,
    Hypergraph,
    _Dinic,
    berge_girth_of,
    dumps_khg,
    girth,
    induced,
    k_density,
    min_d_degree,
    parse_khg,
)
from diraclab.matchpower import Matching, parse_matching

from conftest import make_contracted, small_hypergraph
from recursive_searches import _density_enumerate as oracle_k_density

# ---------------------------------------------------------------------------
# Oracles. Deliberately dumb and independent of the implementations they check.
# The k-density oracle, which scores every edge subset, is imported above.
# ---------------------------------------------------------------------------


def oracle_degree(H: Hypergraph, S) -> int:
    s = set(S)
    return sum(1 for e in H.edges if s.issubset(e))


def oracle_berge_girth(edge_sets):
    """Shortest Berge cycle by exhaustive edge-sequence search."""
    edges = [frozenset(e) for e in edge_sets]
    m = len(edges)
    best = [math.inf]

    def extend(seq, used_verts, first):
        length = len(seq)
        if length >= best[0]:
            return
        if length >= 2:
            for v in edges[seq[-1]] & edges[first]:
                if v not in used_verts:
                    best[0] = length
                    return
        for j in range(first + 1, m):
            if j in seq:
                continue
            for v in edges[seq[-1]] & edges[j]:
                if v not in used_verts:
                    extend(seq + [j], used_verts | {v}, first)

    # rotate every cycle so its minimum-index edge comes first
    for i in range(m):
        extend([i], set(), i)
    return best[0]


# ---------------------------------------------------------------------------
# Construction and degrees
# ---------------------------------------------------------------------------


def test_from_edges_canonicalizes():
    H = Hypergraph.from_edges(5, 3, [(2, 1, 0), (0, 1, 2), (4, 3, 2)])
    assert H.edges == ((0, 1, 2), (2, 3, 4))


def test_graph_and_matching_fault_a_descending_edge_alike():
    for build in (lambda: Hypergraph(3, 3, ((0, 2, 1),)), lambda: Matching(((0, 2, 1),))):
        with pytest.raises(ShapeError, match=r"edge \(0, 2, 1\) is not strictly ascending$"):
            build()


def test_readers_fault_a_non_integer_id_alike():
    with pytest.raises(FormatError, match="^line 2: non-integer vertex id$"):
        parse_khg("khg 1 3 3 1\n0 x 1\n")
    with pytest.raises(FormatError, match="^line 1: non-integer vertex id$"):
        parse_matching("0 x 1\n")


def test_raw_constructor_rejects_disorder():
    with pytest.raises(ShapeError):
        Hypergraph(5, 3, ((2, 3, 4), (0, 1, 2)))
    with pytest.raises(ShapeError):
        Hypergraph(5, 3, ((0, 2, 1),))
    with pytest.raises(ShapeError, match="duplicate edge"):
        Hypergraph(5, 3, ((0, 1, 2), (0, 1, 2)))
    with pytest.raises(ShapeError):
        Hypergraph(5, 3, ((0, 1, 2), (1, 2, 3), (0, 1, 2)))
    with pytest.raises(SizeError):
        Hypergraph(3, 3, ((0, 1, 3),))
    with pytest.raises(SizeError):
        Hypergraph(5, 0, ())


# Each malformed edge list, with the exception and message naming its first
# bad edge. Checks within an edge run size, range, ascent; across edges the
# first offending edge wins, whatever fails later.
_MALFORMED = [
    (5, 3, ((0, 1, 2), (0, 1)), SizeError, "edge (0, 1) has size 2, expected 3"),
    (5, 3, ((0, 1, 2, 3),), SizeError, "edge (0, 1, 2, 3) has size 4, expected 3"),
    (5, 3, ((0, 1, 9, 7),), SizeError, "edge (0, 1, 9, 7) has size 4, expected 3"),
    (5, 3, ((0, 1, 5),), SizeError, "edge (0, 1, 5) out of range for n=5"),
    (5, 3, ((-1, 0, 1),), SizeError, "edge (-1, 0, 1) out of range for n=5"),
    (5, 3, ((3, 9, 1),), SizeError, "edge (3, 9, 1) out of range for n=5"),
    (5, 1, ((0,), (5,)), SizeError, "edge (5,) out of range for n=5"),
    (0, 2, ((0, 1),), SizeError, "edge (0, 1) out of range for n=0"),
    (5, 3, ((0, 2, 1),), ShapeError, "edge (0, 2, 1) is not strictly ascending"),
    (5, 3, ((0, 1, 1),), ShapeError, "edge (0, 1, 1) is not strictly ascending"),
    (5, 3, ((0, 1, 2), (1, 1, 3)), ShapeError, "edge (1, 1, 3) is not strictly ascending"),
    (5, 3, ((0, 1, 2), (0, 1, 2)), ShapeError, "duplicate edge (0, 1, 2)"),
    (5, 1, ((2,), (2,)), ShapeError, "duplicate edge (2,)"),
    (5, 3, ((0, 1, 3), (0, 1, 2)), ShapeError, "edge list is not in lexicographic order"),
    (5, 3, ((0, 1, 3), (0, 1, 2), (0, 1)), ShapeError, "edge list is not in lexicographic order"),
    (5, 3, ((0, 1, 2), (2, 3, 4), (0, 1, 9)), SizeError, "edge (0, 1, 9) out of range for n=5"),
    (5, 3, ((0, 1, 2), (0, 2, 1), (0, 1)), ShapeError, "edge (0, 2, 1) is not strictly ascending"),
]


@pytest.mark.parametrize("n,k,edges,exc,message", _MALFORMED)
def test_raw_constructor_names_first_bad_edge(n, k, edges, exc, message):
    with pytest.raises(exc) as info:
        Hypergraph(n, k, edges)
    assert str(info.value) == message


def constructor_outcome(n, k, edges):
    try:
        return Hypergraph(n, k, edges).edges
    except Exception as exc:
        return type(exc), str(exc)


def loop_outcome(monkeypatch, n, k, edges):
    """The outcome with the column passes off, so only the per-edge loop
    decides."""
    with monkeypatch.context() as m:
        m.setattr(hypercore, "_edges_canonical", lambda *args: False)
        return constructor_outcome(n, k, edges)


# list-typed edges, float and numpy-int vertices and a numpy-array edge; at
# n=4 the lists are dense, at n=9 sparse, so both the ordered walk and the
# column passes may accept them only where the per-edge loop does, and must
# otherwise leave the loop to decide
_ODD_EDGES = [
    [[0, 1, 2], [0, 1, 3]],
    [(0, 1, 2), [0, 1, 3]],
    [(-0.5, 1, 2)],
    [(0, 1, 2.0)],
    [(0, 1, 2.0), (0, 1, 3)],
    [(0, 1, 2), (0, 1, 2.0)],
    [(0, 0.5, 1), (0, 1, 3)],
    [(np.int64(0), np.int64(1), np.int64(2)), (0, 1, np.int64(3))],
    [(0, 1, 2), np.array([0, 1, 3])],
]


@pytest.mark.parametrize("edges", _ODD_EDGES)
@pytest.mark.parametrize("n", [4, 9])
def test_column_passes_defer_to_the_loop(monkeypatch, edges, n):
    assert constructor_outcome(n, 3, edges) == loop_outcome(monkeypatch, n, 3, edges)


def test_column_passes_agree_with_the_loop_on_random_lists(monkeypatch):
    rng = random.Random(23)
    accepted = dense = 0
    for _ in range(400):
        n, k = rng.randint(1, 8), rng.randint(1, 4)
        pool = list(combinations(range(n), k))
        edges = sorted(rng.sample(pool, rng.randint(0, len(pool) // rng.choice((1, 5)))))
        for _ in range(rng.randint(0, 2)):
            if not edges:
                break
            i = rng.randrange(len(edges))
            e = list(edges[i])
            if not e:
                continue
            j = rng.randrange(len(e))
            fault = rng.randrange(5)
            if fault == 0:
                e[j] = rng.choice((-1, n, e[j] + 1))
            elif fault == 1:
                e = e[::-1]
            elif fault == 2:
                e = e[:-1]
            elif fault == 3:
                edges.insert(i, edges[i])
                continue
            else:
                edges[i], edges[-1] = edges[-1], edges[i]
                continue
            edges[i] = tuple(e)
        got = constructor_outcome(n, k, tuple(edges))
        assert got == loop_outcome(monkeypatch, n, k, tuple(edges))
        accepted += got == tuple(edges)
        dense += math.comb(n, k) <= 4 * len(edges)
    assert 100 <= accepted <= 300
    # both sides of the dense-walk rule C(n, k) <= 4·len(edges) are covered
    assert 100 <= dense <= 300


@pytest.mark.parametrize("n,k", [(8, 3), (9, 4), (7, 2), (6, 1)])
def test_dense_walk_starts_exactly_at_the_boundary(monkeypatch, n, k):
    rng = random.Random(n * 10 + k)
    pool = list(combinations(range(n), k))
    at = -(-len(pool) // 4)  # fewest edges with C(n, k) <= 4·len
    lists = [tuple(sorted(rng.sample(pool, size))) for size in (at, at, at - 1, at - 1)]
    walks = []  # (n, k) of each combinations(range(n), k) walk started
    monkeypatch.setattr(
        hypercore, "combinations", lambda pool, r: walks.append((len(pool), r)) or combinations(pool, r)
    )
    for edges in lists:
        assert constructor_outcome(n, k, edges) == edges
    assert walks == [(n, k), (n, k)]
    for edges in lists:
        assert loop_outcome(monkeypatch, n, k, edges) == edges


def _fault(edges, i, kind):
    """``_MALFORMED``'s fault kinds, applied at edge ``i``."""
    out = list(edges)
    e = out[i]
    if kind == "duplicate":
        out.insert(i, e)
    elif kind == "swap":
        out[i], out[i + 1] = out[i + 1], out[i]
    elif kind == "out of range":
        out[i] = e[:-1] + (99,)
    elif kind == "negative":
        out[i] = (-1,) + e[1:]
    elif kind == "short":
        out[i] = e[:-1]
    elif kind == "long":
        out[i] = e + (e[-1] + 1,)
    elif kind == "descending":
        out[i] = e[::-1]
    elif kind == "repeated vertex":
        out[i] = (e[0],) + e[:-1]
    return tuple(out)


_FAULTS = ["duplicate", "swap", "out of range", "negative", "short", "long", "descending", "repeated vertex"]


@pytest.mark.parametrize("kind", _FAULTS)
@pytest.mark.parametrize("n,k", [(6, 3), (7, 4), (5, 2)])
def test_dense_lists_with_faults_agree_with_the_loop(monkeypatch, kind, n, k):
    full = tuple(combinations(range(n), k))
    rng = random.Random(len(full) + _FAULTS.index(kind))
    dense = tuple(sorted(rng.sample(full, -(-len(full) // 2))))
    for base in (full, dense):
        for i in (0, len(base) // 2, len(base) - 2):
            edges = _fault(base, i, kind)
            assert math.comb(n, k) <= 4 * len(edges)
            got = constructor_outcome(n, k, edges)
            assert got == loop_outcome(monkeypatch, n, k, edges)
            assert got != edges


@pytest.mark.parametrize(
    "n,k,message",
    [
        (5.5, 3, "vertex count n must be an integer, got 5.5"),
        (np.float64(5.0), 3, "vertex count n must be an integer, got np.float64(5.0)"),
        ("5", 3, "vertex count n must be an integer, got '5'"),
        (5, 3.0, "uniformity k must be an integer, got 3.0"),
        (5, 2.5, "uniformity k must be an integer, got 2.5"),
        (5, None, "uniformity k must be an integer, got None"),
    ],
)
def test_sizes_must_be_integers(n, k, message):
    with pytest.raises(SizeError) as info:
        Hypergraph(n, k, ((0, 1, 2),))
    assert str(info.value) == message


def test_numpy_integer_sizes_are_accepted():
    H = Hypergraph(np.int64(5), np.int32(3), ((0, 1, 2), (2, 3, 4)))
    assert H.edge_count() == 2 and H.incident[2] == (0, 1)
    assert Hypergraph(np.int64(4), np.int64(3), tuple(combinations(range(4), 3))).edge_count() == 4


def test_raw_constructor_accepts_canonical_lists():
    assert Hypergraph(5, 1, ((0,), (4,))).edge_count() == 2
    assert Hypergraph(0, 3, ()).edges == ()
    assert Hypergraph.complete(9, 4).edge_count() == 126
    assert Hypergraph(5, 3, ((0, 1, 2), (0, 1, 3), (2, 3, 4))).edge_count() == 3


def test_complete_graph_sizes():
    assert Hypergraph.complete(6, 3).edge_count() == 20
    assert Hypergraph.complete(2, 3).edges == ()


def test_complete_edges_are_every_k_subset_in_order():
    for n in range(10):
        for k in range(1, 5):
            edges = Hypergraph.complete(n, k).edges
            assert type(edges) is tuple
            assert edges == tuple(combinations(range(n), k)), (n, k)


@given(small_hypergraph())
def test_min_d_degree_is_minimum_with_lex_first_witness(H):
    for d in range(1, H.k):
        if H.n < d:
            continue
        val, witness = min_d_degree(H, d)
        all_degrees = {S: oracle_degree(H, S) for S in combinations(range(H.n), d)}
        assert val == min(all_degrees.values())
        assert all_degrees[witness] == val
        assert witness == min(S for S, v in all_degrees.items() if v == val)


def counter_min_vertex_degree(H):
    """min_d_degree at d = 1 as a Counter over every vertex of every edge,
    walking the vertices in order and stopping at the first zero."""
    counts = Counter(v for e in H.edges for v in e)
    best = best_set = None
    for v in range(H.n):
        if best is None or counts[v] < best:
            best, best_set = counts[v], (v,)
            if best == 0:
                break
    return best, best_set


def test_min_vertex_degree_matches_counter_loop():
    rng = random.Random(163)
    zeros = 0
    for seed in range(40):
        n, k = rng.randint(1, 14), rng.randint(2, 4)
        p = rng.choice((0.05, 0.2, 0.5, 0.9))
        H = Hypergraph.from_edges(
            n, k, [e for e in combinations(range(n), k) if rng.random() < p]
        )
        if seed % 2:
            gone = set(rng.sample(range(n), min(n, 2)))
            H = Hypergraph(n, k, tuple(e for e in H.edges if gone.isdisjoint(e)))
        got = min_d_degree(H, 1)
        assert got == counter_min_vertex_degree(H)
        zeros += got[0] == 0 and any(H.incident[v] for v in range(got[1][0] + 1, n))
    # isolated vertices ahead of covered ones: the first zero wins
    assert zeros >= 5
    H = Hypergraph.from_edges(8, 3, [(0, 1, 2), (0, 3, 4), (5, 6, 7)])
    assert min_d_degree(H, 1) == (1, (1,))
    assert min_d_degree(Hypergraph(8, 3, ((0, 1, 2), (5, 6, 7))), 1) == (0, (3,))


def test_min_d_degree_rejects_bad_d():
    H = Hypergraph.complete(5, 3)
    with pytest.raises(SizeError):
        min_d_degree(H, 0)
    with pytest.raises(SizeError):
        min_d_degree(H, 3)


def test_induced_keeps_ids_traceable():
    H = Hypergraph.from_edges(6, 3, [(0, 1, 2), (1, 2, 5), (3, 4, 5)])
    sub, old = induced(H, [1, 2, 5])
    assert old == (1, 2, 5)
    assert sub.edges == ((0, 1, 2),)
    assert tuple(old[v] for v in sub.edges[0]) == (1, 2, 5)


def test_induced_on_a_complete_host_is_complete():
    sub, old = induced(Hypergraph.complete(12, 3), [11, 0, 5, 3, 7, 3])
    assert old == (0, 3, 5, 7, 11)
    assert type(sub.edges) is tuple
    assert (sub.n, sub.k, sub.edges) == (5, 3, tuple(combinations(range(5), 3)))


# ---------------------------------------------------------------------------
# Girth
# ---------------------------------------------------------------------------


def test_girth_known_shapes():
    # two triples sharing a pair
    assert girth(Hypergraph.from_edges(4, 3, [(0, 1, 2), (1, 2, 3)])) == 2
    # loose triangle
    assert girth(Hypergraph.from_edges(6, 3, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])) == 3
    # loose path: acyclic
    assert girth(Hypergraph.from_edges(5, 3, [(0, 1, 2), (2, 3, 4)])) == math.inf
    # single edge and empty graph: acyclic
    assert girth(Hypergraph.from_edges(3, 3, [(0, 1, 2)])) == math.inf
    assert girth(Hypergraph(4, 3, ())) == math.inf


def test_girth_duplicate_edge_multiset():
    # duplicate edges are legal input for the raw routine and force girth 2
    assert berge_girth_of([(0, 1, 2), (0, 1, 2)]) == 2
    assert berge_girth_of([(0, 1), (0, 1)]) == 2


def test_girth_theta_shape_is_four():
    edges = [
        (0, 3, 4),
        (1, 5, 6),
        (2, 7, 8),
        (3, 5, 7),
        (4, 6, 8),
    ]
    assert girth(Hypergraph.from_edges(9, 3, edges)) == 4
    # appending the set of degree-one vertices keeps it at 4
    assert berge_girth_of(edges + [(0, 1, 2)]) == 4


@settings(max_examples=60)
@given(small_hypergraph(max_n=7, max_k=3))
def test_girth_matches_oracle(H):
    if len(H.edges) > 7:
        H = Hypergraph(H.n, H.k, H.edges[:7])
    assert girth(H) == oracle_berge_girth(H.edges)


def girth_every_node_bfs(edge_sets):
    """berge_girth_of as it ran before each BFS was limited to the nodes
    above its root, verbatim."""
    edges = [tuple(sorted(set(e))) for e in edge_sets]
    verts = sorted({v for e in edges for v in e})
    vid = {v: i for i, v in enumerate(verts)}
    nv, ne = len(verts), len(edges)
    total = nv + ne
    adj: list[list[int]] = [[] for _ in range(total)]
    for j, e in enumerate(edges):
        for v in e:
            adj[vid[v]].append(nv + j)
            adj[nv + j].append(vid[v])

    best = math.inf
    # Every cycle in the incidence graph passes through an edge-node, so
    # rooting BFS at edge-nodes only is enough for exactness.
    dist = [0] * total
    parent = [0] * total
    for root in range(nv, total):
        if best == 4:
            break
        for i in range(total):
            dist[i] = -1
        dist[root] = 0
        parent[root] = -1
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return math.inf if best == math.inf else best // 2


def girth_set_systems():
    """Seeded set systems of four kinds: mixed member sizes, members
    repeated (girth 2), forests of loose trees (acyclic) and graphs."""
    rng = random.Random(7)
    systems = []
    for _ in range(150):
        n = rng.randint(3, 30)
        systems.append([rng.sample(range(n), rng.randint(1, min(n, 5)))
                        for _ in range(rng.randint(0, 14))])
    for sets in systems[:40]:
        if sets:
            systems.append(sets + [list(reversed(rng.choice(sets)))])
    for _ in range(40):
        # each new member meets the earlier ones in at most one vertex
        sets, top = [], 0
        for _ in range(rng.randint(1, 12)):
            size = rng.randint(2, 4)
            old = [rng.randrange(top)] if top and rng.random() < 0.8 else []
            sets.append(old + list(range(top, top + size - len(old))))
            top += size - len(old)
        systems.append(sets)
    for _ in range(80):
        n = rng.randint(3, 40)
        pool = list(combinations(range(n), 2))
        systems.append(rng.sample(pool, min(len(pool), rng.randint(1, 2 * n))))
    return systems


def test_girth_lowest_node_bfs_matches_every_node_bfs():
    seen = set()
    for sets in girth_set_systems():
        want = girth_every_node_bfs(sets)
        assert berge_girth_of(sets) == want, sets
        seen.add(want if want in (2, 3, 4, math.inf) else 5)
    # girth 2 (repeats), 3, 4, longer cycles and acyclic systems all came up
    assert seen == {2, 3, 4, 5, math.inf}


@given(small_hypergraph(max_n=7, max_k=3))
def test_acyclic_graphs_are_vertex_rich(H):
    if girth(H) == math.inf and H.edges:
        assert len(H.support()) >= (H.k - 1) * len(H.edges) + 1


# ---------------------------------------------------------------------------
# k-density
# ---------------------------------------------------------------------------


def test_k_density_few_edges_is_zero():
    assert k_density(Hypergraph(5, 3, ())).value == 0
    one = Hypergraph.from_edges(5, 3, [(0, 1, 2)])
    res = k_density(one)
    assert res.value == 0 and res.witness is None


def test_k_density_known_values():
    pair = Hypergraph.from_edges(4, 3, [(0, 1, 2), (1, 2, 3)])
    res = k_density(pair)
    assert res.value == 1
    assert res.witness == ((0, 1, 2), (1, 2, 3))

    loose = Hypergraph.from_edges(5, 3, [(0, 1, 2), (2, 3, 4)])
    assert k_density(loose).value == Fraction(1, 2)

    k4 = Hypergraph.complete(4, 3)
    assert k_density(k4).value == 3
    # the whole graph is densest, with no cap on the edge count
    assert k_density(Hypergraph.complete(7, 3)).value == Fraction(34, 4)

    theta = Hypergraph.from_edges(
        9, 3, [(0, 3, 4), (1, 5, 6), (2, 7, 8), (3, 5, 7), (4, 6, 8)]
    )
    res = k_density(theta)
    assert res.value == Fraction(2, 3)
    assert res.witness is not None and len(res.witness) == 5


def test_k_density_methods_agree_on_named_cases():
    for H in (
        Hypergraph.complete(5, 3),
        Hypergraph.from_edges(6, 2, [(0, 1), (1, 2), (2, 0), (3, 4)]),
        Hypergraph.from_edges(7, 3, [(0, 1, 2), (0, 1, 3), (0, 4, 5), (2, 3, 6)]),
    ):
        a = oracle_k_density(H)
        b = k_density(H)
        assert a.value == b.value


@settings(max_examples=60)
@given(small_hypergraph(max_n=7))
def test_k_density_routes_and_oracle_agree(H):
    if len(H.edges) > 10:
        H = Hypergraph(H.n, H.k, H.edges[:10])
    assert k_density(H).value == oracle_k_density(H).value


@given(small_hypergraph(max_n=7))
def test_k_density_witness_attains_value(H):
    res = k_density(H)
    if res.witness is not None:
        cnt = len(res.witness)
        verts = set()
        for e in res.witness:
            verts.update(e)
        assert cnt >= 2
        assert Fraction(cnt - 1, len(verts) - H.k) == res.value
        assert all(H.has_edge(e) for e in res.witness)


@given(small_hypergraph(max_n=7, max_k=3), st.integers(0, 10**6))
def test_k_density_monotone_under_edge_addition(H, pick):
    missing = [e for e in combinations(range(H.n), H.k) if not H.has_edge(e)]
    if not missing:
        return
    extra = missing[pick % len(missing)]
    bigger = Hypergraph.from_edges(H.n, H.k, H.edges + (extra,))
    assert k_density(bigger).value >= k_density(H).value


def rebuild_density(H: Hypergraph) -> tuple[DensityResult, list[int]]:
    """The parametric route with a fresh flow network per anchor, as it ran
    before the network was reused, asking every anchor from anchor 0 again
    at each ratio. Also returns the anchor of each improving step (each one
    rebuilds the network at a new ratio)."""
    k, edges, m = H.k, H.edges, len(H.edges)
    support = sorted(H.support())
    vpos = {v: i for i, v in enumerate(support)}
    nv = len(support)

    def solve(lam, anchor):
        p, q = lam.numerator, lam.denominator
        inf = q * m + p * nv + 1
        s, t = m + nv, m + nv + 1
        net = _Dinic(m + nv + 2)
        for i in range(m):
            net.add(s, i, inf if i == anchor else q)
            for v in edges[i]:
                net.add(i, m + vpos[v], inf)
        for j in range(nv):
            net.add(m + j, t, p)
        cut = net.max_flow(s, t)
        side = net.source_side()
        return q * m - cut, [i for i in range(m) if i in side]

    lam = Fraction(m - 1, len(support) - k)
    witness_idx = list(range(m))
    anchors = []
    improved = True
    while improved:
        improved = False
        for a in range(m):
            p, q = lam.numerator, lam.denominator
            value, sel = solve(lam, a)
            if value > q - p * k:
                verts = {v for i in sel for v in edges[i]}
                lam = Fraction(len(sel) - 1, len(verts) - k)
                witness_idx = sel
                anchors.append(a)
                improved = True
                break
    witness = tuple(edges[i] for i in sorted(witness_idx))
    return DensityResult(lam, witness), anchors


def density_hosts() -> list[Hypergraph]:
    """Seeded graphs with 12 to 40 edges: plain random ones, whose first
    ratio is often already optimal, dense cores with pendant edges, where
    it is not, and dense cores on the top ids, whose pendant edges come
    first in edge order and are refuted before the core improves."""
    rng = random.Random(2024)
    hosts = []
    for _ in range(24):
        k = rng.choice((2, 3, 3, 4))
        n = rng.randint(k + 5, 13)
        pool = list(combinations(range(n), k))
        hosts.append(Hypergraph.from_edges(n, k, rng.sample(pool, min(len(pool), rng.randint(12, 40)))))
    for _ in range(16):
        core = rng.randint(5, 6)
        edges = [e for e in combinations(range(core), 3) if rng.random() < 0.85]
        n = core + rng.randint(4, 10)
        while len(edges) < 12 or rng.random() < 0.6:
            e = tuple(sorted({rng.randrange(core, n), rng.randrange(n), rng.randrange(n)}))
            if len(e) == 3 and e not in edges:
                edges.append(e)
        hosts.append(Hypergraph.from_edges(n, 3, edges[:40]))
    for _ in range(8):
        n = rng.randint(10, 14)
        core = [e for e in combinations(range(n - 5, n), 3) if rng.random() < 0.9]
        pendants = set()
        while len(core) + len(pendants) < 14 or rng.random() < 0.5:
            e = tuple(sorted({rng.randrange(n - 5), rng.randrange(n - 5), rng.randrange(n)}))
            if len(e) == 3:
                pendants.add(e)
        hosts.append(Hypergraph.from_edges(n, 3, core + sorted(pendants)[:40 - len(core)]))
    return hosts


def test_k_density_reused_network_matches_rebuilt_networks():
    steps_seen, enumerated, resumed = [], [], 0
    for H in density_hosts():
        assert 12 <= len(H.edges) <= 40
        want, anchors = rebuild_density(H)
        steps = len(anchors)
        steps_seen.append(steps)
        resumed += any(anchors)
        assert k_density(H) == want
        # the oracle doubles its time per edge (about 5 s at 20 edges)
        if len(H.edges) <= 16:
            assert oracle_k_density(H).value == want.value
            enumerated.append(steps)
    # the improving branch and the rebuild at a new ratio both ran, and the
    # oracle saw graphs of both kinds
    assert sum(s == 0 for s in steps_seen) >= 5
    assert sum(s >= 1 for s in steps_seen) >= 10
    assert max(steps_seen) >= 2
    assert 0 in enumerated and max(enumerated) >= 1
    # anchors were refuted before an improving one, so the scan resumed
    # past anchor 0 on a network without them
    assert resumed >= 8


def test_k_density_matches_rebuilt_networks_on_a_gadgets_round():
    # the shapes one benchmark round contracts: 12, 12 and 6 absorbers
    for K, count in ((4, 12), (6, 12), (8, 6)):
        for seed in range(count):
            graph = make_contracted(K, seed).graph
            assert k_density(graph) == rebuild_density(graph)[0]


def test_has_edge_agrees_with_the_edge_set():
    rng = random.Random(3)
    for n, k in ((9, 3), (12, 4), (7, 2)):
        H = Hypergraph.from_edges(n, k, rng.sample(list(combinations(range(n), k)), 2 * n))
        probes = list(H.edges) + list(combinations(range(n), k))
        probes += [tuple(reversed(e)) for e in H.edges]
        probes += [e[:-1] for e in H.edges] + [e + (n,) for e in H.edges] + [(), (0,) * k]
        got = [H.has_edge(e) for e in probes]
        assert got == [tuple(sorted(e)) in set(H.edges) for e in probes]
    G = Hypergraph.complete(40, 3)
    assert G.has_edge((39, 0, 20)) and not G.has_edge((0, 1)) and not G.has_edge((0, 1, 40))


def test_k_density_contracted_absorbers_pinned():
    # values from the one-network-per-anchor route; every witness is the
    # whole contracted graph
    for K, value in ((4, Fraction(3, 4)), (6, Fraction(25, 36))):
        for seed in range(3):
            C = make_contracted(K, seed)
            res = k_density(C.graph)
            assert res == DensityResult(value, C.graph.edges)
    assert k_density(make_contracted(4, 0).graph).witness == (
        (0, 1, 11), (0, 9, 14), (1, 6, 13), (2, 4, 8), (2, 7, 13),
        (3, 4, 14), (3, 5, 7), (5, 8, 12), (6, 9, 10), (10, 11, 12),
    )


def test_k_density_failed_step_raises(monkeypatch):
    # a cut whose source side claims every edge cannot beat the whole-graph
    # ratio, so the re-check must refuse it
    H = Hypergraph.from_edges(
        9, 3, list(combinations(range(5), 3)) + [(4, 5, 6), (6, 7, 8)]
    )
    assert k_density(H).value > Fraction(len(H.edges) - 1, H.n - 3)
    monkeypatch.setattr(_Dinic, "source_side", lambda self: set(range(self.n)))
    with pytest.raises(DiracLabError, match="failed to improve"):
        k_density(H)


@given(small_hypergraph(max_n=7, max_k=3), st.randoms(use_true_random=False))
def test_girth_and_density_are_relabeling_invariant(H, rng):
    perm = list(range(H.n))
    rng.shuffle(perm)
    relabeled = Hypergraph.from_edges(
        H.n, H.k, [tuple(perm[v] for v in e) for e in H.edges]
    )
    assert girth(relabeled) == girth(H)
    assert k_density(relabeled).value == k_density(H).value


# ---------------------------------------------------------------------------
# khg format
# ---------------------------------------------------------------------------


@given(small_hypergraph())
def test_khg_round_trip(H):
    assert parse_khg(dumps_khg(H)) == H


def test_khg_comments_and_blanks():
    text = "# a comment\n\nkhg 1 3 5 2  # inline\n0 1 2\n2 3 4\n"
    H = parse_khg(text)
    assert H.n == 5 and H.k == 3
    assert H.edges == ((0, 1, 2), (2, 3, 4))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "missing header"),
        ("khg 2 3 5 0\n", "line 1"),
        ("khg 1 3 5 1\n0 1\n", "line 2"),
        ("khg 1 3 5 1\n0 2 1\n", "ascending"),
        ("khg 1 3 5 1\n0 1 9\n", "range"),
        ("khg 1 3 5 2\n0 1 2\n0 1 2\n", "duplicate"),
        ("khg 1 3 5 2\n2 3 4\n0 1 2\n", "lexicographic"),
        ("khg 1 3 5 3\n0 1 2\n", "declares 3"),
        ("khg 1 1 5 0\n", "uniformity"),
        ("khg 1 3 5 1\n0 x 2\n", "non-integer"),
    ],
)
def test_khg_rejects_malformed(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_khg(text)


@pytest.mark.parametrize(
    "header, message",
    [
        ("khg 1 3 -5 0", "vertex count must be nonnegative, got -5"),
        ("khg 1 3 5 -1", "edge count must be nonnegative, got -1"),
        ("khg 1 3 -5 -1", "vertex count must be nonnegative, got -5"),
    ],
)
def test_khg_header_rejects_negative_counts(header, message):
    # the header check names the line, before the constructor or the edge
    # count sees the value
    for before, line in (("", 1), ("# comment\n\n", 3)):
        for edges in ("", "0 1 2\n"):
            with pytest.raises(FormatError) as info:
                parse_khg(f"{before}{header}\n{edges}")
            assert str(info.value) == f"line {line}: {message}"


def first_bad_line(lines, n, k, edges):
    """The file line of the first edge whose prefix the constructor rejects."""
    for j in range(len(edges)):
        try:
            Hypergraph(n, k, tuple(edges[: j + 1]))
        except (SizeError, ShapeError):
            return lines[j]
    raise AssertionError("no bad edge")


@pytest.mark.parametrize("kind", _FAULTS)
@pytest.mark.parametrize("n,k", [(6, 3), (7, 4), (5, 2)])
def test_khg_names_the_line_and_the_constructors_reason(kind, n, k):
    full = tuple(combinations(range(n), k))
    rng = random.Random(len(full) * 31 + _FAULTS.index(kind))
    for base in (full, tuple(sorted(rng.sample(full, len(full) // 3)))):
        last = len(base) - (2 if kind == "swap" else 1)
        for i in (0, len(base) // 2, last):
            edges = _fault(base, i, kind)
            with pytest.raises((SizeError, ShapeError)) as info:
                Hypergraph(n, k, edges)
            # comments and blank lines between the edges, so a line number
            # is not an edge index
            out, lines = ["# faulty", "", f"khg 1 {k} {n} {len(edges)}"], []
            for j, e in enumerate(edges):
                if rng.random() < 0.3:
                    out.append("# between" if j % 2 else "")
                out.append(" ".join(map(str, e)) + ("  # edge" if j % 3 == 0 else ""))
                lines.append(len(out))
            text = "\n".join(out) + "\n"
            want = f"line {first_bad_line(lines, n, k, edges)}: {info.value}"
            for declared in (len(edges), len(edges) + 1):
                header = f"khg 1 {k} {n} {declared}"
                with pytest.raises(FormatError) as got:
                    parse_khg(text.replace(out[2], header, 1))
                assert str(got.value) == want


def test_khg_reports_a_fault_above_a_non_integer_line():
    text = "khg 1 3 5 3\n0 1 2\n0 2 1\n0 x 2\n"
    with pytest.raises(FormatError, match="^line 3: edge \\(0, 2, 1\\) is not strictly ascending$"):
        parse_khg(text)
    with pytest.raises(FormatError, match="^line 4: non-integer vertex id$"):
        parse_khg("khg 1 3 5 3\n0 1 2\n0 2 3\n0 x 2\n")


def test_khg_validates_a_valid_file_once(monkeypatch):
    calls = []
    real = hypercore._edges_canonical
    monkeypatch.setattr(
        hypercore, "_edges_canonical", lambda *args: calls.append(args) or real(*args)
    )
    monkeypatch.setattr(hypercore, "_first_fault", lambda *args: calls.append(args))
    H = Hypergraph.complete(7, 3)
    calls.clear()
    assert parse_khg(dumps_khg(H)) == H
    assert len(calls) == 1


def test_khg_write_read_file(tmp_path):
    from diraclab.hypercore import read_khg, write_khg

    H = Hypergraph.complete(5, 3)
    path = tmp_path / "c53.khg"
    write_khg(H, path, comment="complete graph")
    assert read_khg(path) == H
    assert path.read_text().startswith("# complete graph\nkhg 1 3 5 10\n")
