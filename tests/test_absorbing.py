"""Tests for absorbers, their search, contraction, and the pattern builders.

The ground truth for absorber validity is re-derived here from plain sets
(oracle_absorber_ok) rather than trusting the library verifier; girths of
the stock patterns are pinned to their known cage values.
"""

import gc
import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import make_contracted, seeded_subgraph

from diraclab.absorbing import (
    Absorber,
    BipartitePattern,
    absorber_record,
    assemble_contractible,
    complete_bipartite_pattern,
    contract_absorber,
    dumps_absorber,
    find_rooted_absorber,
    find_sparse_r_absorber,
    generalized_quadrangle_pattern,
    is_k_sparse,
    parse_absorber,
    pattern_for,
    peel_matchings,
    projective_plane_pattern,
    verify_absorber,
)
from diraclab import absorbing
from diraclab.errors import DiracLabError, FormatError, NotFound, ShapeError, SizeError
from diraclab.cli import main
from diraclab.hypercore import Hypergraph, berge_girth_of, k_density, write_khg
from diraclab.matchpower import Matching, _pm_within, find_perfect_matching


def oracle_absorber_ok(roots, covering, noncovering, host_edges=None):
    """Absorber validity recomputed from scratch with plain sets."""
    cov = [tuple(sorted(e)) for e in covering]
    non = [tuple(sorted(e)) for e in noncovering]
    if host_edges is not None:
        if any(e not in host_edges for e in cov + non):
            return False
    flat_cov = [v for e in cov for v in e]
    flat_non = [v for e in non for v in e]
    if len(set(flat_cov)) != len(flat_cov) or len(set(flat_non)) != len(flat_non):
        return False
    if set(cov) & set(non):
        return False
    if len(set(roots)) != len(roots):
        return False
    V = set(flat_cov) | set(flat_non)
    return set(flat_cov) == V and set(flat_non) == V - set(roots) and set(roots) <= V


def mk(roots, covering, noncovering):
    return Absorber(tuple(roots), Matching.from_edges(covering), Matching.from_edges(noncovering))


K6 = Hypergraph.complete(6, 3)


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

def test_complete_bipartite_pattern():
    P = complete_bipartite_pattern(3)
    assert (P.left, P.right, P.degree, P.girth) == (3, 3, 3, 4)
    assert len(P.edges) == 9


def test_projective_plane_patterns():
    P2 = projective_plane_pattern(2)
    assert (P2.left, P2.degree, P2.girth, len(P2.edges)) == (7, 3, 6, 21)
    P3 = projective_plane_pattern(3)
    assert (P3.left, P3.degree, P3.girth, len(P3.edges)) == (13, 4, 6, 52)


def test_quadrangle_patterns():
    G2 = generalized_quadrangle_pattern(2)
    assert (G2.left, G2.right, G2.degree, G2.girth) == (15, 15, 3, 8)
    assert len(G2.edges) == 45
    G3 = generalized_quadrangle_pattern(3)
    assert (G3.left, G3.right, G3.degree, G3.girth) == (40, 40, 4, 8)


def test_peel_matchings_lowers_degree_keeps_girth():
    base = projective_plane_pattern(3)
    P = peel_matchings(base, 1, seed=5)
    assert P.degree == 3
    assert P.girth >= 6
    assert len(P.edges) == 39
    with pytest.raises(SizeError):
        peel_matchings(base, 4)


def test_peel_matchings_pinned_edges():
    # pinned edges: any change to the shared augmenting-path matcher's
    # neighbour order or to the seeded vertex order shows up here
    P = peel_matchings(projective_plane_pattern(3), 2, seed=5)
    assert sorted(P.edges) == [
        (0, 4), (0, 10), (1, 0), (1, 5), (2, 3), (2, 11), (3, 4), (3, 8), (4, 1),
        (4, 3), (5, 6), (5, 9), (6, 1), (6, 11), (7, 0), (7, 12), (8, 6), (8, 10),
        (9, 2), (9, 5), (10, 8), (10, 9), (11, 2), (11, 7), (12, 7), (12, 12),
    ]


def test_pattern_for_dispatch():
    assert pattern_for(4, 3).provenance.startswith("complete")
    assert pattern_for(6, 3).girth >= 6
    assert pattern_for(5, 3).girth >= 6  # odd bound rounds up
    assert pattern_for(8, 3).girth == 8
    assert pattern_for(6, 4).degree == 4
    with pytest.raises(SizeError):
        pattern_for(10, 3)
    with pytest.raises(SizeError):
        pattern_for(6, 15)


def test_pattern_constructor_rejects_irregular_edges():
    P = complete_bipartite_pattern(2)
    with pytest.raises(ShapeError, match="not regular"):
        BipartitePattern(P.left, P.right, P.edges[1:], "irregular")


@pytest.mark.parametrize("K, calls", [(4, 0), (6, 1), (8, 1)])
def test_stock_patterns_compute_girth_at_most_once(monkeypatch, K, calls):
    # the plane and quadrangle check their girth once; the complete
    # pattern's is never read
    seen = []

    def counting(edges):
        seen.append(len(edges))
        return berge_girth_of(edges)

    monkeypatch.setattr(absorbing, "berge_girth_of", counting)
    P = pattern_for(K, 3)
    assert len(seen) == calls
    assert P.girth == K
    assert len(seen) == 1


# ---------------------------------------------------------------------------
# Absorber verification
# ---------------------------------------------------------------------------

def test_trivial_absorber_accepts():
    A = mk((0, 1, 2), [(0, 1, 2)], [])
    ok, reason = verify_absorber(A, K6)
    assert ok and reason is None
    assert A.order == 0
    assert oracle_absorber_ok(A.roots, A.covering.edges, A.noncovering.edges)


def test_two_edge_absorber_accepts():
    # roots may share a covering edge; the dark edge covers the non-roots
    A = mk((0, 1, 2), [(0, 1, 3), (2, 4, 5)], [(3, 4, 5)])
    ok, reason = verify_absorber(A, K6)
    assert ok and reason is None
    assert A.order == 3
    assert oracle_absorber_ok(A.roots, A.covering.edges, A.noncovering.edges)


@pytest.mark.parametrize(
    "roots,cov,non",
    [
        # noncovering matching dropped
        ((0, 1, 2), [(0, 1, 3), (2, 4, 5)], []),
        # noncovering hits a root
        ((0, 1, 2), [(0, 1, 3), (2, 4, 5)], [(2, 3, 4)]),
        # a root never covered
        ((0, 1, 5), [(0, 1, 3), (2, 4, 5)], [(3, 4, 5)]),
        # same edge in both matchings
        ((0, 1, 2), [(0, 1, 2), (3, 4, 5)], [(3, 4, 5)]),
        # repeated root
        ((0, 0, 1), [(0, 1, 3), (2, 4, 5)], [(3, 4, 5)]),
        # wrong root count
        ((0, 1), [(0, 1, 3), (2, 4, 5)], [(3, 4, 5)]),
    ],
)
def test_broken_absorbers_reject(roots, cov, non):
    A = Absorber(tuple(roots), Matching.from_edges(cov), Matching.from_edges(non))
    ok, reason = verify_absorber(A, K6)
    assert not ok and isinstance(reason, str)
    assert not oracle_absorber_ok(roots, cov, non)


def test_absorber_edge_must_live_in_host():
    sparse_host = Hypergraph.from_edges(6, 3, [(0, 1, 3), (2, 4, 5)])
    A = mk((0, 1, 2), [(0, 1, 3), (2, 4, 5)], [(3, 4, 5)])
    ok, reason = verify_absorber(A, sparse_host)
    assert not ok and "host" in reason


def test_r_absorber_reduces_and_composes():
    A = mk((0, 1, 2), [(0, 1, 3), (2, 4, 5)], [(3, 4, 5)])
    assert verify_absorber(A, K6) == (True, None)

    host = Hypergraph.complete(12, 3)
    two = mk(
        (0, 1, 2, 6, 7, 8),
        [(0, 1, 3), (2, 4, 5), (6, 7, 9), (8, 10, 11)],
        [(3, 4, 5), (9, 10, 11)],
    )
    ok, reason = verify_absorber(two, host)
    assert ok, reason
    assert two.order == 6


def test_verify_absorber_without_host_reads_k_from_the_edges():
    # six roots at k=3 make a 2-absorber without a host too; an empty root
    # tuple is no positive multiple of k
    two = mk(
        (0, 1, 2, 6, 7, 8),
        [(0, 1, 3), (2, 4, 5), (6, 7, 9), (8, 10, 11)],
        [(3, 4, 5), (9, 10, 11)],
    )
    assert two.r == 2 and verify_absorber(two) == (True, None)
    ok, reason = verify_absorber(mk((), [(0, 1, 2)], [(0, 1, 2)]))
    assert not ok and reason == "root count 0 is not a positive multiple of 3"


def test_r_absorber_overlap_unrepresentable():
    # a vertex shared between the two blocks always collides inside one of
    # the matchings (the covering matchings both touch it), so the broken
    # union cannot even be constructed
    with pytest.raises(ShapeError):
        mk(
            (0, 1, 2, 6, 7, 8),
            [(0, 1, 3), (2, 4, 5), (6, 7, 9), (8, 10, 11)],
            [(3, 4, 5), (5, 9, 10)],
        )


def test_r_absorber_root_count_must_be_multiple():
    A = mk((0, 1, 2, 3), [(0, 1, 3), (2, 4, 5)], [(4, 5)])
    ok, reason = verify_absorber(A, K6)
    assert not ok and "multiple" in reason


# ---------------------------------------------------------------------------
# Sparsity
# ---------------------------------------------------------------------------

def test_two_edge_absorber_is_not_3_sparse():
    A = mk((0, 1, 2), [(0, 1, 3), (2, 4, 5)], [(3, 4, 5)])
    # covering edge (2,4,5) and noncovering edge (3,4,5) share two vertices
    assert berge_girth_of(list(A.edges) + [(0, 1, 2)]) == 2
    assert not is_k_sparse(A, 3)


def test_trivial_absorber_is_not_3_sparse():
    A = mk((0, 1, 2), [(0, 1, 2)], [])
    assert not is_k_sparse(A, 3)
    assert is_k_sparse(A, 2)


def test_theta_shaped_absorber_is_4_sparse():
    A = mk(
        (0, 1, 2),
        [(0, 3, 4), (1, 5, 6), (2, 7, 8)],
        [(3, 5, 7), (4, 6, 8)],
    )
    assert is_k_sparse(A, 4)
    assert not is_k_sparse(A, 5)
    assert berge_girth_of(list(A.edges) + [(0, 1, 2)]) == 4


def test_is_k_sparse_rejects_repeated_roots():
    A = Absorber((0, 0, 1), Matching.from_edges([(0, 1, 2)]), Matching.from_edges([]))
    with pytest.raises(SizeError):
        is_k_sparse(A, 3)


# ---------------------------------------------------------------------------
# Rooted search
# ---------------------------------------------------------------------------

def test_find_rooted_absorber_trivial_first():
    A = find_rooted_absorber(K6, (0, 1, 2), Q=6)
    assert A.order == 0
    assert A.covering.edges == ((0, 1, 2),)


def test_find_rooted_absorber_min_order():
    A = find_rooted_absorber(K6, (0, 1, 2), Q=6, min_order=3)
    assert A.order == 3
    assert verify_absorber(A, K6) == (True, None)
    assert len(A.covering.edges) == 2 and len(A.noncovering.edges) == 1


def test_negative_min_order_is_a_size_error(tmp_path, capsys):
    # it used to be clamped to 0, so the search returned the order-0 edge
    with pytest.raises(SizeError, match="^min_order must be nonnegative, got -3$"):
        find_rooted_absorber(Hypergraph.complete(9, 3), (0, 1, 2), min_order=-3)
    k9 = tmp_path / "K9.khg"
    write_khg(Hypergraph.complete(9, 3), k9)
    argv = ["absorber", "find", "--in", str(k9), "--roots", "0 1 2", "--min-order", "-3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--min-order: must be nonnegative, got -3" in err


def test_find_rooted_absorber_single_edge_host():
    H = Hypergraph.from_edges(4, 3, [(0, 1, 2)])
    A = find_rooted_absorber(H, (0, 1, 2), Q=0)
    assert A.order == 0


def test_find_rooted_absorber_empty_graph():
    H = Hypergraph(6, 3, ())
    with pytest.raises(NotFound) as exc:
        find_rooted_absorber(H, (0, 1, 2), Q=6)
    assert exc.value.reason == "exhausted"


def test_find_rooted_absorber_budget():
    H = Hypergraph.complete(9, 3)
    with pytest.raises(NotFound) as exc:
        find_rooted_absorber(H, (0, 1, 2), Q=6, min_order=6, budget=3)
    assert exc.value.reason == "budget"


def test_find_rooted_absorber_forbidden():
    A = find_rooted_absorber(
        Hypergraph.complete(7, 3), (0, 1, 2), Q=3, forbidden={3}, min_order=3
    )
    assert 3 not in A.vertices
    with pytest.raises(NotFound):
        # only two usable extra vertices remain, order 3 needs three
        find_rooted_absorber(K6, (0, 1, 2), Q=3, forbidden={3}, min_order=3)
    with pytest.raises(SizeError):
        find_rooted_absorber(K6, (0, 1, 2), Q=3, forbidden={2})


def test_find_rooted_absorber_validation():
    with pytest.raises(SizeError):
        find_rooted_absorber(K6, (0, 1), Q=3)
    with pytest.raises(SizeError):
        find_rooted_absorber(K6, (0, 1, 1), Q=3)
    with pytest.raises(SizeError):
        find_rooted_absorber(K6, (0, 1, 9), Q=3)
    with pytest.raises(SizeError, match="order cap must be nonnegative, got -3"):
        find_rooted_absorber(K6, (0, 1, 2), Q=-3)


def test_found_absorbers_verify_on_random_hosts():
    hits = 0
    for seed in range(24):
        H = seeded_subgraph(8, 3, 0.65, seed=seed)
        try:
            A = find_rooted_absorber(H, (0, 1, 2), Q=6)
        except NotFound:
            continue
        hits += 1
        ok, reason = verify_absorber(A, H)
        assert ok, reason
        assert A.order % 3 == 0 and A.order <= 6
    assert hits >= 10


def test_searches_leave_no_cycles_for_the_collector():
    # with the collector off, every kernel search, rooted walk and budget
    # stop must be freed by reference counting alone
    H = Hypergraph.complete(12, 3)
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            assert _pm_within(H, range(3, 9))[0] == "perfect"
        for _ in range(1000):
            assert find_rooted_absorber(H, (0, 1, 2), 3, min_order=3).order == 3
        for _ in range(100):
            assert find_perfect_matching(H, budget=2).status == "partial"
        assert gc.collect() == 0
    finally:
        gc.enable()


ROOTED_HOSTS = [Hypergraph.complete(6, 3), Hypergraph.complete(8, 3)] + [
    seeded_subgraph(9, 3, 0.7, seed=s) for s in range(12)
]
ROOT_TUPLES = ((0, 1, 2), (0, 4, 8), (5, 1, 3))


def rooted_cases():
    for H in ROOTED_HOSTS:
        for roots in ROOT_TUPLES:
            if max(roots) < H.n:
                yield H, roots, H.has_edge(roots)


def test_rooted_order0_is_the_root_edge():
    hits = 0
    for H, roots, present in rooted_cases():
        if not present:
            continue
        hits += 1
        A = find_rooted_absorber(H, roots, Q=6)
        assert A.roots == roots and A.order == 0
        assert A.covering.edges == (tuple(sorted(roots)),)
        assert A.noncovering.edges == ()
        # order 0 is a single lookup, charged one node
        assert find_rooted_absorber(H, roots, Q=0, budget=1) == A
        with pytest.raises(NotFound) as exc:
            find_rooted_absorber(H, roots, Q=0, budget=0)
        assert exc.value.reason == "budget"
    assert hits >= 10


def test_rooted_search_falls_through_to_order_k():
    cases = absent = 0
    for H, roots, present in rooted_cases():
        runs = [find_rooted_absorber(H, roots, Q=3, min_order=3)]
        cases += 1
        if not present:
            absent += 1
            runs.append(find_rooted_absorber(H, roots, Q=6))
        for A in runs:
            assert A.order == 3
            assert verify_absorber(A, H) == (True, None)
            assert oracle_absorber_ok(roots, A.covering.edges, A.noncovering.edges, set(H.edges))
        if not present:
            assert runs[0] == runs[1]
    assert cases >= 20 and absent >= 5


@pytest.mark.parametrize("k,n", [(3, 9), (4, 12)])
def test_rooted_search_caps_the_order_at_2k_by_default(k, n):
    H = Hypergraph.complete(n, k)
    A = find_rooted_absorber(H, range(k), min_order=k + 1)
    assert A.order == 2 * k
    assert A == find_rooted_absorber(H, range(k), Q=2 * k, min_order=k + 1)
    with pytest.raises(NotFound):
        find_rooted_absorber(H, range(k), Q=2 * k - 1, min_order=k + 1)


def test_rooted_search_avoids_forbidden_edges():
    for H, roots, _ in rooted_cases():
        for forbidden in ({6}, {3, 7}):
            if forbidden & set(roots):
                continue
            try:
                A = find_rooted_absorber(H, roots, Q=6, forbidden=forbidden, min_order=3)
            except NotFound:
                continue
            assert all(forbidden.isdisjoint(e) for e in A.edges)
            # same search as on the host with the forbidden vertices' edges gone
            kept = tuple(e for e in H.edges if forbidden.isdisjoint(e))
            assert A == find_rooted_absorber(Hypergraph(H.n, H.k, kept), roots, Q=6, min_order=3)


@pytest.mark.parametrize(
    "H, roots, kwargs, covering, noncovering",
    [
        (Hypergraph.complete(7, 3), (0, 1, 2), {"min_order": 3},
         ((0, 1, 3), (2, 4, 5)), ((3, 4, 5),)),
        (Hypergraph.complete(8, 3), (0, 1, 2), {"forbidden": {3, 4}, "min_order": 3},
         ((0, 1, 5), (2, 6, 7)), ((5, 6, 7),)),
        (seeded_subgraph(9, 3, 0.7, seed=0), (0, 4, 8), {},
         ((0, 1, 4), (2, 7, 8)), ((1, 2, 7),)),
        (seeded_subgraph(9, 3, 0.7, seed=9), (0, 4, 8), {},
         ((0, 1, 2), (3, 4, 8)), ((1, 2, 3),)),
        (seeded_subgraph(9, 3, 0.7, seed=3), (1, 2, 3), {"forbidden": {0}},
         ((1, 2, 7), (3, 4, 5)), ((4, 5, 7),)),
    ],
)
def test_rooted_search_pinned_results(H, roots, kwargs, covering, noncovering):
    A = find_rooted_absorber(H, roots, Q=6, **kwargs)
    assert (A.roots, A.covering.edges, A.noncovering.edges) == (roots, covering, noncovering)


# Budgeted outcomes of the lowest-id subset search that the non-root step
# used before it moved onto the shared fail-first kernel, one string per
# host: for each root tuple, (Q, min_order) = (6, 0) then (9, 6), each at
# budgets 10, 100 and 1000. A digit is the order found, "b" a budget stop
# and "e" an exhausted search.
BUDGET_GRID_HOSTS = [
    seeded_subgraph(n, 3, p, seed=s) for n in (9, 12) for p in (0.3, 0.5) for s in range(6)
]
BUDGET_GRID_OUTCOMES = [
    "333beeb66666", "000bbe333666", "333bee000bee", "000b66000bee", "000666b33bbe", "333bbe000666",
    "333bbe333b66", "000666333666", "333bbe000666", "000666000666", "000666b33666", "333bbe000b66",
    "333666b33b66", "000b66000666", "333666333666", "000666b33666", "000666b33666", "333666333b66",
    "333666000666", "000666000666", "333666000666", "000666333666", "000666000666", "333666333666",
]
# The one probe that moved: seeded_subgraph(12, 3, 0.3, seed=1), roots
# (0, 1, 2), Q=9, min_order=6, budget 10. The fail-first search finishes the
# order-6 absorber within 10 edges tried; the lowest-id search needed more.
BUDGET_GRID_MOVED = {(13, 3): "6"}


def test_rooted_search_budget_outcomes_pinned():
    for h, H in enumerate(BUDGET_GRID_HOSTS):
        got = ""
        for roots in ((0, 1, 2), (0, 4, 8)):
            for Q, min_order in ((6, 0), (9, 6)):
                for budget in (10, 100, 1000):
                    try:
                        A = find_rooted_absorber(H, roots, Q, budget=budget, min_order=min_order)
                    except NotFound as exc:
                        got += exc.reason[0]
                    else:
                        got += str(A.order)
        want = "".join(
            BUDGET_GRID_MOVED.get((h, i), c) for i, c in enumerate(BUDGET_GRID_OUTCOMES[h])
        )
        assert got == want, h


# The least budget at which each search settles; one node less is a budget
# stop. An off-by-one in the node charge moves these, where the coarse
# 10/100/1000 grid above would not notice.
@pytest.mark.parametrize(
    "H, roots, kwargs, result, least",
    [
        (Hypergraph.complete(12, 3), (0, 1, 2), {"min_order": 3}, 3, 88),
        (seeded_subgraph(9, 3, 0.2, seed=4), (0, 4, 8), {}, "exhausted", 42),
    ],
)
def test_rooted_search_least_budget_pinned(H, roots, kwargs, result, least):
    def outcome(budget):
        try:
            return find_rooted_absorber(H, roots, Q=6, budget=budget, **kwargs).order
        except NotFound as exc:
            return exc.reason

    assert outcome(None) == result
    assert outcome(least) == result
    assert outcome(least - 1) == "budget"


# Every outcome of a grid of rooted searches, hashed: the absorber's two
# matchings, or the NotFound reason and message. The walk's branching order,
# node charges and budget stops all show in it.
PIN_HOSTS = [
    seeded_subgraph(n, 3, p, seed=s)
    for n, p in ((9, 0.2), (9, 0.4), (9, 0.7), (12, 0.1), (12, 0.25))
    for s in range(4)
]


def test_rooted_search_outcomes_pinned():
    outcomes = []
    for H in PIN_HOSTS:
        for roots in ROOT_TUPLES:
            for Q in (0, 3, 6):
                for budget in (None, 3, 20, 150, 1000):
                    for kwargs in ({}, {"forbidden": (6, 7)}):
                        try:
                            A = find_rooted_absorber(H, roots, Q, budget=budget, **kwargs)
                            outcomes.append(f"{A.covering.edges}|{A.noncovering.edges}")
                        except NotFound as exc:
                            outcomes.append(f"{exc.reason}|{exc}")
    assert len(outcomes) == 1800
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "c648dd1d4038ac8a27c973464b7c0657668c8e718a6ad47eacca200de63d9605"


def test_rooted_search_raises_on_failed_verification(monkeypatch):
    # the re-verification is an explicit raise, so it also runs under python -O
    monkeypatch.setattr(absorbing, "verify_absorber", lambda A, host=None: (False, "forged"))
    with pytest.raises(DiracLabError, match="forged"):
        find_rooted_absorber(K6, (0, 1, 2), Q=6)
    with pytest.raises(DiracLabError, match="forged"):
        find_rooted_absorber(K6, (0, 1, 2), Q=6, min_order=3)


# ---------------------------------------------------------------------------
# Contractible absorbers and contraction
# ---------------------------------------------------------------------------

def theta_sub(roots, base):
    """Order-6 interior absorber on explicit ids base..base+5."""
    a, b, c = roots
    i = list(range(base, base + 6))
    return mk(
        roots,
        [(a, i[0], i[1]), (b, i[2], i[3]), (c, i[4], i[5])],
        [(i[0], i[2], i[4]), (i[1], i[3], i[5])],
    )


def small_sub(roots, base):
    """Order-3 interior absorber: two covering edges, one dark edge."""
    a, b, c = roots
    i = list(range(base, base + 3))
    return mk(roots, [(a, b, i[0]), (c, i[1], i[2])], [(i[0], i[1], i[2])])


ROOTED = ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_assemble_and_contract_order_18():
    sub1 = theta_sub((1, 4, 7), 9)
    sub2 = theta_sub((2, 5, 8), 15)
    CA = assemble_contractible((0, 3, 6), ROOTED, (sub1, sub2))
    A = CA.assembled
    assert len(A.vertices) == 21
    assert A.order == 18
    assert len(A.edges) == 13
    assert verify_absorber(A) == (True, None)

    C = contract_absorber(CA)
    assert C.graph.n == 21 - 3 * 2  # each rooted edge loses k-1 vertices
    assert C.graph.edge_count() == 10
    assert C.roots == (12, 13, 14)
    for img in C.sub_images:
        assert verify_absorber(img, C.graph) == (True, None)
        assert img.roots == C.roots
    # the contracted graph is exactly the union of the two interior images
    union = {e for img in C.sub_images for e in img.edges}
    assert union == set(C.graph.edges)
    assert berge_girth_of(C.graph.edges) == 4


def test_assemble_and_contract_order_12():
    sub1 = small_sub((1, 4, 7), 9)
    sub2 = small_sub((2, 5, 8), 12)
    CA = assemble_contractible((0, 3, 6), ROOTED, (sub1, sub2))
    assert CA.assembled.order == 12
    assert len(CA.assembled.vertices) == 15
    C = contract_absorber(CA)
    assert C.graph.n == 9
    assert C.graph.edge_count() == 6
    for img in C.sub_images:
        assert verify_absorber(img, C.graph) == (True, None)


def test_contracted_absorber_edge_excess_is_k_minus_2():
    # the contracted object carries k-2 edges more than a matching covering
    # its support plus one missing only the roots: one at k=3, none at k=2
    C = contract_absorber(
        assemble_contractible(
            (0, 3, 6), ROOTED, (theta_sub((1, 4, 7), 9), theta_sub((2, 5, 8), 15))
        )
    )
    v = len(C.graph.support())
    assert C.graph.edge_count() == (2 * v - 3) // 3 + 1

    sub = mk((1, 3), [(1, 4), (3, 5)], [(4, 5)])
    CA2 = assemble_contractible((0, 2), ((0, 1), (2, 3)), (sub,))
    C2 = contract_absorber(CA2)
    assert C2.graph.edge_count() == (2 * len(C2.graph.support()) - 2) // 2
    for img in C2.sub_images:
        assert verify_absorber(img, C2.graph) == (True, None)


def test_assemble_shape_errors():
    sub1 = theta_sub((1, 4, 7), 9)
    sub2 = theta_sub((2, 5, 8), 15)
    with pytest.raises(ShapeError):  # overlapping rooted edges
        assemble_contractible((0, 3, 6), ((0, 1, 2), (3, 4, 5), (6, 7, 2)), (sub1, sub2))
    with pytest.raises(ShapeError):  # rooted edge must start with its root
        assemble_contractible((0, 3, 6), ((1, 0, 2), (3, 4, 5), (6, 7, 8)), (sub1, sub2))
    with pytest.raises(ShapeError):  # wrong interior count
        assemble_contractible((0, 3, 6), ROOTED, (sub1,))
    with pytest.raises(ShapeError):  # interior rooted on the wrong column
        assemble_contractible((0, 3, 6), ROOTED, (sub2, sub1))
    with pytest.raises(ShapeError):  # interiors reuse vertices
        assemble_contractible(
            (0, 3, 6), ROOTED, (theta_sub((1, 4, 7), 9), theta_sub((2, 5, 8), 9))
        )


def test_contract_rejects_identified_edges():
    # both interiors are single edges, so both collapse to the root triple
    t1 = mk((1, 4, 7), [(1, 4, 7)], [])
    t2 = mk((2, 5, 8), [(2, 5, 8)], [])
    CA = assemble_contractible((0, 3, 6), ROOTED, (t1, t2))
    with pytest.raises(ShapeError):
        contract_absorber(CA)


def test_contracted_interior_check_raises(monkeypatch):
    # the post-hoc interior check is an explicit raise, so it also runs
    # under python -O; here the verifier is made to reject every interior
    CA = assemble_contractible((0, 3, 6), ROOTED, (small_sub((1, 4, 7), 9), small_sub((2, 5, 8), 12)))
    monkeypatch.setattr(absorbing, "verify_absorber", lambda A, host=None: (False, "forced"))
    with pytest.raises(DiracLabError, match="contracted interior lost the absorber property: forced"):
        contract_absorber(CA)


def test_assemble_with_host_checks_membership():
    host = Hypergraph.complete(21, 3)
    CA = assemble_contractible(
        (0, 3, 6), ROOTED, (theta_sub((1, 4, 7), 9), theta_sub((2, 5, 8), 15)), host
    )
    assert verify_absorber(CA.assembled, host) == (True, None)


# ---------------------------------------------------------------------------
# Pattern-built sparse r-absorbers
# ---------------------------------------------------------------------------

def test_sparse_absorber_girth_4():
    H = Hypergraph.complete(30, 3)
    A = find_sparse_r_absorber(H, (0, 1, 2), K=4, q=3, seed=0)
    assert verify_absorber(A, H) == (True, None)
    assert is_k_sparse(A, 4)
    assert A.order == 6 and A.r == 1


def test_sparse_absorber_girth_6_and_8():
    H = Hypergraph.complete(60, 3)
    A6 = find_sparse_r_absorber(H, (0, 1, 2), K=6, q=3, seed=1)
    assert verify_absorber(A6, H) == (True, None)
    assert is_k_sparse(A6, 6)
    assert A6.order == 18

    A8 = find_sparse_r_absorber(H, (0, 1, 2), K=8, q=3, seed=1)
    assert is_k_sparse(A8, 8)
    assert A8.order == 42


def test_sparse_absorber_r2():
    H = Hypergraph.complete(60, 3)
    roots = (0, 1, 2, 3, 4, 5)
    A = find_sparse_r_absorber(H, roots, K=4, q=6, seed=3)
    assert A.r == 2
    assert verify_absorber(A, H) == (True, None)
    assert is_k_sparse(A, 4)
    assert A.noncovering.covered == A.vertices - set(roots)


def test_sparse_absorber_respects_forbidden():
    H = Hypergraph.complete(40, 3)
    A = find_sparse_r_absorber(H, (0, 1, 2), K=4, q=3, seed=0, forbidden=range(3, 20))
    assert A.vertices.isdisjoint(range(3, 20))


def test_sparse_absorber_validation():
    H = Hypergraph.complete(30, 3)
    with pytest.raises(SizeError):
        find_sparse_r_absorber(H, (0, 1, 2), K=4, q=4)
    with pytest.raises(SizeError):
        find_sparse_r_absorber(H, (0, 1), K=4, q=3)
    with pytest.raises(SizeError):
        find_sparse_r_absorber(H, (0, 1, 2, 3, 4, 5), K=4, q=3)
    with pytest.raises(SizeError):
        find_sparse_r_absorber(Hypergraph.complete(8, 3), (0, 1, 2), K=4, q=3)


def test_sparse_absorber_empty_host_diagnostics():
    H = Hypergraph(30, 3, ())
    with pytest.raises(NotFound) as exc:
        find_sparse_r_absorber(H, (0, 1, 2), K=4, q=3, trials=5)
    assert exc.value.reason == "trials"
    failures = exc.value.details["failures"]
    assert len(failures) == 5
    assert all(f["star"] is not None for f in failures)


def test_sparse_absorber_builds_no_host_edge_set():
    # the K=8 host of a benchmark round has 129,766 edges; the finder and
    # its verification only look up a few dozen of them
    H = Hypergraph.complete(93, 3)
    A = find_sparse_r_absorber(H, (1, 4, 7), K=8, q=3, seed=2, forbidden=(0, 2, 3, 5, 6, 8))
    assert verify_absorber(A, H) == (True, None)


def test_sparse_absorber_deterministic():
    H = Hypergraph.complete(30, 3)
    A = find_sparse_r_absorber(H, (0, 1, 2), K=4, q=3, seed=7)
    B = find_sparse_r_absorber(H, (0, 1, 2), K=4, q=3, seed=7)
    assert A == B


# ---------------------------------------------------------------------------
# Density of contracted absorbers
# ---------------------------------------------------------------------------

def density_ceiling(k: int, K: int) -> Fraction:
    return (Fraction(k * (k + 1), K * (k - 1) - k) + 2) / k


def test_contracted_density_under_ceiling():
    for K in (4, 6):
        C = make_contracted(K, seed=0)
        g = berge_girth_of(C.graph.edges)
        assert g >= K
        val = k_density(C.graph).value
        assert val <= density_ceiling(3, K)


def test_acyclic_subsets_obey_forest_bound():
    # every cycle-free edge subset of an absorber satisfies
    # (e-1)/(v-k) <= 1/(k-1)
    A = theta_sub((0, 1, 2), 3)
    edges = list(A.edges)
    for size in (2, 3, 4):
        for combo in combinations(edges, size):
            if berge_girth_of(combo) != float("inf"):
                continue
            v = len({u for e in combo for u in e})
            assert Fraction(size - 1, v - 3) <= Fraction(1, 2)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def test_absorber_record_round_trip():
    A = mk((0, 1, 2), [(0, 1, 3), (2, 4, 5)], [(3, 4, 5)])
    line = dumps_absorber(A)
    back = parse_absorber(line)
    assert back.roots == A.roots
    assert back.covering == A.covering and back.noncovering == A.noncovering

    R = mk((0, 1, 2, 6, 7, 8),
           [(0, 1, 3), (2, 4, 5), (6, 7, 9), (8, 10, 11)],
           [(3, 4, 5), (9, 10, 11)])
    back2 = parse_absorber(dumps_absorber(R))
    assert back2 == R and back2.r == 2


def test_absorber_record_errors():
    with pytest.raises(FormatError):
        parse_absorber("not json")
    with pytest.raises(FormatError):
        parse_absorber('{"roots": [0]}')
    rec = absorber_record(mk((0, 1, 2), [(0, 1, 2)], []))
    rec["order"] = 5
    with pytest.raises(FormatError):
        parse_absorber(json.dumps(rec))


@pytest.mark.parametrize(
    "field, value, what",
    [
        ("roots", [0.9, 1, 2], "root"),
        ("roots", [True, "2", 3], "root"),
        ("covering", [[0, 1, 2.0]], "edge vertex"),
        ("covering", [[True, 1, 2]], "edge vertex"),
        ("noncovering", [[3, 4.0, 5]], "edge vertex"),
    ],
)
def test_absorber_record_rejects_non_integer_ids(field, value, what):
    # int() read [0.9, 1, 2] as (0, 1, 2) and [true, "2", 3] as (1, 2, 3),
    # and the edge reader took 2.0 and true as vertices 2 and 1
    rec = absorber_record(mk((0, 1, 2), [(0, 1, 3), (2, 4, 5)], [(3, 4, 5)]))
    rec[field] = value
    with pytest.raises(FormatError, match=f"bad absorber record: {what} must be an integer"):
        parse_absorber(json.dumps(rec))


def test_absorber_record_writes_no_r_and_checks_a_stored_one():
    # r is derived from the roots; a stored "r" that disagrees with them is
    # a corrupted record, rejected by the reader rather than after parsing
    rec = absorber_record(mk((0, 1, 2), [(0, 1, 3), (2, 4, 5)], [(3, 4, 5)]))
    assert "r" not in rec and rec["sparsity_k"] is None
    assert parse_absorber(json.dumps(dict(rec, r=1))).r == 1
    with pytest.raises(FormatError, match="bad absorber record: r=2 disagrees with 3 roots"):
        parse_absorber(json.dumps(dict(rec, r=2)))


@pytest.mark.parametrize("r", ["x", 2.7, True])
def test_absorber_record_rejects_malformed_r(r):
    # int() would raise a ValueError on "x" and truncate 2.7 and True
    rec = absorber_record(mk((0, 1, 2), [(0, 1, 2)], []))
    rec["r"] = r
    with pytest.raises(FormatError, match="r must be an integer"):
        parse_absorber(json.dumps(rec))
