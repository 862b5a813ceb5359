"""Tests for the exact threshold sweep and the barrier constructions.

The oracle for the smallest case is a from-scratch brute force written
against the bare definitions (subset scan for matchings, direct degree
count). Larger sweep values were computed once by the two independent
routes in agreement and are frozen below.
"""

import random
from fractions import Fraction
from hashlib import sha256
from itertools import combinations

import pytest

from diraclab import thresholds
from diraclab.errors import DiracLabError, SizeError
from diraclab.hypercore import min_d_degree
from diraclab.matchpower import _max_matching, find_perfect_matching
from diraclab.thresholds import (
    SandwichReport,
    _incidence_masks,
    _perfect_matching_masks,
    _sweep_pruned,
    _sweep_unpruned,
    conjectured_density,
    exact_dirac_threshold,
    parity_barrier,
    parity_barrier_set,
    space_barrier,
    space_barrier_set,
    verify_threshold_sandwich,
)


def naive_pm_exists(n, k, edges):
    """Subset-scan matching oracle straight from the definition."""
    need = n // k
    for combo in combinations(edges, need):
        seen = set()
        for e in combo:
            if seen.intersection(e):
                break
            seen.update(e)
        else:
            return True
    return need == 0


def oracle_threshold(n, k, d):
    """Brute-force m_d(k,n) over all labeled graphs, no pruning, no masks.

    Only viable for the very smallest parameters; used to anchor the sweep.
    """
    all_edges = list(combinations(range(n), k))
    best = -1
    best_edges = None
    for mask in range(1 << len(all_edges)):
        edges = [all_edges[i] for i in range(len(all_edges)) if mask >> i & 1]
        if naive_pm_exists(n, k, edges):
            continue
        delta = min(
            sum(1 for e in edges if set(S).issubset(e))
            for S in combinations(range(n), d)
        )
        if delta > best:
            best = delta
            best_edges = tuple(edges)
    return best + 1, best_edges


def test_threshold_4_2_matches_bruteforce():
    m_oracle, witness_oracle = oracle_threshold(4, 2, 1)
    assert m_oracle == 2
    for route in ("pruned", "unpruned"):
        rec = exact_dirac_threshold(4, 2, 1, route=route)
        assert rec.m_value == 2
        assert rec.extremal_witness.edges == witness_oracle
        assert rec.graphs_enumerated == 64


def test_threshold_routes_produce_identical_records():
    a = exact_dirac_threshold(6, 2, 1, route="pruned")
    b = exact_dirac_threshold(6, 2, 1, route="unpruned")
    assert a.m_value == b.m_value == 3
    assert a.extremal_witness == b.extremal_witness
    assert a.graphs_enumerated == b.graphs_enumerated == 1 << 15


def test_witness_recount_disagreement_raises(monkeypatch):
    # the post-hoc recount is an explicit raise, so it also runs under
    # python -O; here the recount is made to disagree with the sweep
    real = thresholds.min_d_degree
    monkeypatch.setattr(thresholds, "min_d_degree", lambda H, d: (real(H, d)[0] + 1, None))
    with pytest.raises(DiracLabError, match="disagrees with sweep"):
        exact_dirac_threshold(4, 2, 1)


def test_threshold_6_2_witness_is_two_triangles_or_worse():
    rec = exact_dirac_threshold(6, 2, 1)
    W = rec.extremal_witness
    assert find_perfect_matching(W).status == "none"
    assert min_d_degree(W, 1)[0] == rec.m_value - 1 == 2


@pytest.mark.slow
def test_threshold_6_3_both_degree_levels_frozen():
    # frozen from the first agreeing dual-route run
    rec2p = exact_dirac_threshold(6, 3, 2, route="pruned")
    rec2u = exact_dirac_threshold(6, 3, 2, route="unpruned")
    assert rec2p.m_value == rec2u.m_value == 3
    assert rec2p.extremal_witness == rec2u.extremal_witness

    rec1p = exact_dirac_threshold(6, 3, 1, route="pruned")
    rec1u = exact_dirac_threshold(6, 3, 1, route="unpruned")
    assert rec1p.m_value == rec1u.m_value == 6
    assert rec1p.extremal_witness == rec1u.extremal_witness

    # at n = 2k the extremal graph is an intersecting family: half of all
    # triples, no two disjoint
    W = rec2p.extremal_witness
    assert W.edge_count() == 10
    for e, f in combinations(W.edges, 2):
        assert set(e).intersection(f)
    assert naive_pm_exists(6, 3, W.edges) is False


# the pruned route walks a tree of partial masks; these counts are the
# nodes that pass its degree bound, leaves included
_WALK_NODES = {(4, 2, 1): 21, (6, 2, 1): 972, (6, 3, 1): 5197, (6, 3, 2): 264}


@pytest.mark.parametrize("n,k,d", sorted(_WALK_NODES))
def test_threshold_nodes_explored_pinned(n, k, d):
    pruned = exact_dirac_threshold(n, k, d, route="pruned")
    assert pruned.nodes_explored == _WALK_NODES[(n, k, d)]
    assert pruned.graphs_enumerated == 2 ** len(list(combinations(range(n), k)))
    if (n, k) == (6, 3):
        return  # the 2^20 unpruned scan runs in the frozen test above
    unpruned = exact_dirac_threshold(n, k, d, route="unpruned")
    assert unpruned.nodes_explored == unpruned.graphs_enumerated


def scan_every_mask(total, pm_masks, inc):
    """The pruned route as it was before the branch-and-bound walk, kept
    verbatim as the reference: scan every mask in increasing order."""
    best = -1
    witness = 0
    for mask in range(total):
        for pm in pm_masks:
            if mask & pm == pm:
                break
        else:
            delta = min((mask & s).bit_count() for s in inc)
            if delta > best:
                best = delta
                witness = mask
    return best, witness


_FEASIBLE = [(4, 2, 1), (6, 2, 1), (6, 3, 1), (6, 3, 2), (3, 3, 1), (3, 3, 2)]


@pytest.mark.parametrize("n,k,d", _FEASIBLE)
def test_walk_matches_full_scan_on_every_feasible_sweep(n, k, d):
    all_edges = list(combinations(range(n), k))
    idx = {e: i for i, e in enumerate(all_edges)}
    pm_masks = _perfect_matching_masks(n, k, idx)
    inc = _incidence_masks(all_edges, n, d)
    total = 1 << len(all_edges)
    assert _sweep_pruned(total, pm_masks, inc)[:2] == scan_every_mask(total, pm_masks, inc)


def _synthetic_sweep(seed):
    """Random walk input: up to 12 edge bits, up to five nonzero matching
    masks (every tenth list empty) and degree masks drawn from a few
    shapes, often repeated, so minimum degrees tie a lot."""
    rng = random.Random(seed)
    e_total = rng.randint(0, 12)
    total = 1 << e_total
    if e_total == 0 or seed % 10 == 0:
        pm_masks = []
    else:
        pm_masks = [
            sum(1 << b for b in rng.sample(range(e_total), rng.randint(1, min(4, e_total))))
            for _ in range(rng.randint(1, 5))
        ]
    shapes = [rng.randrange(total) for _ in range(rng.randint(1, 3))]
    inc = [rng.choice(shapes) for _ in range(rng.randint(1, 6))]
    return total, pm_masks, inc


def test_walk_matches_full_scan_on_synthetic_inputs():
    kinds = set()
    for seed in range(300):
        total, pm_masks, inc = _synthetic_sweep(seed)
        kinds.add((total == 1, not pm_masks))
        assert _sweep_pruned(total, pm_masks, inc)[:2] == scan_every_mask(total, pm_masks, inc), seed
    assert kinds == {(True, True), (False, True), (False, False)}


# lane widths for the unpruned scan: one edge bit per lane up to past the
# widest input, so the same masks split into many blocks, a few or one
_LANE_WIDTHS = (1, 3, 8, thresholds._LANE_BITS, 20)


@pytest.mark.parametrize("n,k,d", [c for c in _FEASIBLE if c[:2] != (6, 3)])
def test_unpruned_scan_matches_full_scan_on_every_feasible_sweep(n, k, d, monkeypatch):
    # (6, 3) is left to the slow frozen test, which runs both routes there
    all_edges = list(combinations(range(n), k))
    idx = {e: i for i, e in enumerate(all_edges)}
    pm_masks = _perfect_matching_masks(n, k, idx)
    inc = _incidence_masks(all_edges, n, d)
    total = 1 << len(all_edges)
    expected = scan_every_mask(total, pm_masks, inc)
    for width in _LANE_WIDTHS:
        monkeypatch.setattr(thresholds, "_LANE_BITS", width)
        assert _sweep_unpruned(total, pm_masks, inc) == expected, width


def test_unpruned_scan_matches_full_scan_on_synthetic_inputs(monkeypatch):
    for seed in range(300):
        total, pm_masks, inc = _synthetic_sweep(seed)
        expected = scan_every_mask(total, pm_masks, inc)
        for width in _LANE_WIDTHS:
            monkeypatch.setattr(thresholds, "_LANE_BITS", width)
            assert _sweep_unpruned(total, pm_masks, inc) == expected, (seed, width)


def _wide_sweep(seed):
    """17 or 18 edge bits, four matching masks of one or two bits and four
    degree masks of three to nine bits: past the scan's 2^16-mask blocks."""
    rng = random.Random(seed)
    e_total = rng.randint(17, 18)
    pm_masks = [sum(1 << b for b in rng.sample(range(e_total), rng.randint(1, 2))) for _ in range(4)]
    inc = [sum(1 << b for b in rng.sample(range(e_total), rng.randint(3, 9))) for _ in range(4)]
    return 1 << e_total, pm_masks, inc


def _last_maximal_mask(total, pm_masks, inc, best):
    for mask in range(total - 1, -1, -1):
        if all(mask & pm != pm for pm in pm_masks) and min((mask & s).bit_count() for s in inc) == best:
            return mask


_HIGH = 1 << 16 | 1 << 17  # two edge bits above the default lanes


def _edge_case_sweeps():
    """18-bit inputs, each with its expected (best, witness) shape checked
    by the test: a d-set and a matching with no edge in the lanes, a degree
    mask of 0, a matching in every graph, a best of 0, and a witness in the
    last block with an earlier block one short of the best."""
    total = 1 << 18
    low = [0b111, 0b111000, 0b1000001, 0b110000000]
    yield "high only", total, [_HIGH, 0b11], [_HIGH, *low]
    yield "empty d-set", total, [0b11], [0, *low]
    yield "all hold a matching", total, [0b1, 0], low
    yield "best 0", total, [1 << 17], [1 << 17, *low]
    yield "last block", total, [0b1001, 0b100100], [_HIGH | s for s in low]


def test_unpruned_scan_matches_full_scan_across_chunks(monkeypatch):
    # the witness must come from the right block, and a later block that
    # reaches the maximum again must not replace it
    late = again = 0
    for seed in range(6):
        total, pm_masks, inc = _wide_sweep(seed)
        best, witness = scan_every_mask(total, pm_masks, inc)
        assert _sweep_unpruned(total, pm_masks, inc) == (best, witness), seed
        last = _last_maximal_mask(total, pm_masks, inc, best)
        late += witness >> 16 > 0
        again += last >> 16 > witness >> 16
    assert late >= 4 and again >= 2
    found = {}
    for name, total, pm_masks, inc in _edge_case_sweeps():
        expected = scan_every_mask(total, pm_masks, inc)
        for width in (12, thresholds._LANE_BITS, 20):
            monkeypatch.setattr(thresholds, "_LANE_BITS", width)
            assert _sweep_unpruned(total, pm_masks, inc) == expected, (name, width)
        found[name] = expected, inc
    assert found["high only"][0][0] > 0
    assert found["empty d-set"][0] == found["best 0"][0] == (0, 0)
    assert found["all hold a matching"][0] == (-1, 0)
    (best, witness), inc = found["last block"]
    # the witness needs both high edges; block 1, without bit 17, is one short
    assert witness >> 16 == 3 and best > 0
    assert min((witness & ~(1 << 17) & s).bit_count() for s in inc) == best - 1


def test_threshold_rejects_fewer_vertices_than_k():
    # comb(-2, 2) would raise a bare ValueError, and n = 0 would reach the
    # witness recount with an empty degree table
    for n in (0, -2):
        for route in ("pruned", "unpruned"):
            with pytest.raises(SizeError, match=f"need n >= k, got n={n}, k=2"):
                exact_dirac_threshold(n, 2, 1, route=route)


def test_threshold_capacity_guard():
    with pytest.raises(SizeError, match=r"^sweep needs 2\^84 graphs; cap is 2\^24$"):
        exact_dirac_threshold(9, 3, 1)
    with pytest.raises(SizeError):
        exact_dirac_threshold(8, 4, 2)


def test_threshold_validation():
    with pytest.raises(SizeError):
        exact_dirac_threshold(6, 3, 3)
    with pytest.raises(SizeError):
        exact_dirac_threshold(6, 3, 0)
    with pytest.raises(SizeError):
        exact_dirac_threshold(7, 3, 1)
    with pytest.raises(SizeError):
        exact_dirac_threshold(6, 3, 1, route="fast")


def test_pm_mask_counts():
    for (n, k), count in [((4, 2), 3), ((6, 2), 15), ((6, 3), 10)]:
        all_edges = list(combinations(range(n), k))
        idx = {e: i for i, e in enumerate(all_edges)}
        masks = _perfect_matching_masks(n, k, idx)
        assert len(masks) == count
        assert len(set(masks)) == count
        for m in masks:
            assert bin(m).count("1") == n // k


def test_threshold_consequence_on_all_4_2_graphs():
    # every graph at or above the threshold degree has a matching, every
    # value below is attained by some matching-free graph
    all_edges = list(combinations(range(4), 2))
    m = exact_dirac_threshold(4, 2, 1).m_value
    seen_below = set()
    for mask in range(1 << 6):
        edges = [all_edges[i] for i in range(6) if mask >> i & 1]
        delta = min(sum(1 for e in edges if v in e) for v in range(4))
        if delta >= m:
            assert naive_pm_exists(4, 2, edges)
        elif not naive_pm_exists(4, 2, edges):
            seen_below.add(delta)
    assert seen_below == set(range(m))


def test_conjectured_density_values():
    assert conjectured_density(2, 3) == Fraction(1, 2)
    assert conjectured_density(1, 3) == Fraction(5, 9)
    assert conjectured_density(1, 2) == Fraction(1, 2)
    assert conjectured_density(3, 4) == Fraction(1, 2)
    assert conjectured_density(1, 4) == Fraction(37, 64)


def test_conjectured_density_bounds_and_validation():
    for k in range(2, 7):
        for d in range(1, k):
            val = conjectured_density(d, k)
            assert Fraction(1, 2) <= val < 1
    with pytest.raises(SizeError):
        conjectured_density(3, 3)
    with pytest.raises(SizeError):
        conjectured_density(0, 3)


def test_space_barrier_shape_and_certificate():
    H = space_barrier(9, 3, 1)
    S = space_barrier_set(9, 3)
    assert S == (0, 1)
    assert all(set(S).intersection(e) for e in H.edges)
    # counting certificate: any matching uses a vertex of S per edge
    best, _ = _max_matching(H.edges, H.n)
    assert len(best) == len(S) < 9 // 3
    assert find_perfect_matching(H).status == "none"


@pytest.mark.parametrize(
    "n,expected",
    [(9, Fraction(13, 28)), (12, Fraction(27, 55)), (15, Fraction(46, 91))],
)
def test_space_barrier_degree_ratios_frozen(n, expected):
    from math import comb

    H = space_barrier(n, 3, 1)
    val, _ = min_d_degree(H, 1)
    assert Fraction(val, comb(n - 1, 2)) == expected


def test_space_barrier_ratio_climbs_toward_conjecture():
    from math import comb

    ratios = []
    for n in (9, 12, 15):
        H = space_barrier(n, 3, 1)
        ratios.append(Fraction(min_d_degree(H, 1)[0], comb(n - 1, 2)))
    assert ratios == sorted(ratios)
    assert ratios[-1] < conjectured_density(1, 3)


def test_space_barrier_validation():
    with pytest.raises(SizeError):
        space_barrier(7, 3, 1)
    with pytest.raises(SizeError):
        space_barrier(3, 3, 1)
    with pytest.raises(SizeError):
        space_barrier(9, 3, 0)


def test_parity_barrier_shape_and_certificate():
    for n, k, d in [(6, 3, 2), (9, 3, 1), (12, 3, 1), (8, 4, 2)]:
        A = parity_barrier_set(n, k, d)
        assert len(A) % 2 == 1
        H = parity_barrier(n, k, d)
        for e in H.edges:
            assert len(set(A).intersection(e)) % 2 == 0
        # parity certificate: a matching covering A would split an odd set
        # into even parts
        assert find_perfect_matching(H).status == "none"


def test_parity_barrier_pinned_edges():
    # edge count and sha256 of repr(edges) at n = 18, k = 3, d = 1
    H = parity_barrier(18, 3, 1)
    assert type(H.edges) is tuple and len(H.edges) == 408
    digest = "61fa32d78a50d41fdacbe17b458a2effe9aee8bd4be9120152eceaad3525567a"
    assert sha256(repr(H.edges).encode()).hexdigest() == digest


def test_parity_barrier_small_case_edges():
    H = parity_barrier(6, 3, 2)
    A = parity_barrier_set(6, 3, 2)
    assert A == (0, 1, 2)
    # one all-outside edge plus nine with exactly two inside
    assert H.edge_count() == 10
    inside = [len(set(A).intersection(e)) for e in H.edges]
    assert sorted(inside) == [0] + [2] * 9


def test_parity_barrier_needs_n_at_least_k():
    # n = 0 passes the divisibility check but leaves no odd set size
    with pytest.raises(SizeError, match="need n >= k, got n=0, k=2"):
        parity_barrier_set(0, 2, 1)
    with pytest.raises(SizeError, match="need n >= k, got n=0, k=3"):
        verify_threshold_sandwich(0, 3, 1)


@pytest.mark.parametrize(
    "n, k, d", [(0, 3, 1), (7, 3, 1), (8, 4, 0), (9, 3, 3), (7, 3, 5), (6, 3, 0), (8, 3, 7)]
)
def test_sandwich_raises_what_the_parity_barrier_raises(n, k, d):
    # the space barrier's preconditions are the parity barrier's and n >= 2k,
    # so the sandwich builds the space barrier only past n >= 2k and every
    # other fault is the parity barrier's, message included (at (7,3,5) the
    # space barrier would name d first)
    with pytest.raises(SizeError) as want:
        parity_barrier_set(n, k, d)
    with pytest.raises(SizeError) as got:
        verify_threshold_sandwich(n, k, d)
    assert str(got.value) == str(want.value)


def test_sandwich_on_the_smallest_hosts_skips_the_space_barrier():
    # n = k < 2k: no space barrier exists, so the parity barrier alone
    # gives the lower bound
    rep = verify_threshold_sandwich(3, 3, 1)
    assert rep.lower_bound == 1 + min_d_degree(parity_barrier(3, 3, 1), 1)[0]
    assert verify_threshold_sandwich(2, 2, 1).lower_bound == 1


def test_parity_barrier_set_is_deterministic():
    assert parity_barrier_set(12, 3, 1) == parity_barrier_set(12, 3, 1)
    a = len(parity_barrier_set(12, 3, 1))
    assert a in (5, 7)


def test_sandwich_exact_case():
    rep = verify_threshold_sandwich(6, 3, 2)
    assert isinstance(rep, SandwichReport)
    assert rep.exact_available
    assert rep.upper_bound == 3
    assert rep.lower_bound <= rep.upper_bound
    assert rep.ratio == Fraction(3, 4)
    assert rep.lower_ratio <= rep.ratio


@pytest.mark.parametrize("n, k, d", [(12, 3, 1), (6, 3, 1)])
def test_sandwich_reuses_barrier_degrees(monkeypatch, n, k, d):
    # the space barrier's degree comes from its formula and, when n/2 is
    # even, the parity barrier's from comparing the two sizes of A: 3
    # counts at (12,3,1); at (6,3,1) the space barrier's own check, the
    # odd-half parity barrier and the sweep's witness recount
    real = thresholds.min_d_degree
    counted = []
    monkeypatch.setattr(thresholds, "min_d_degree", lambda H, d: counted.append(H) or real(H, d))
    rep = verify_threshold_sandwich(n, k, d)
    assert len(counted) == 3
    barriers = (space_barrier(n, k, d), parity_barrier(n, k, d))
    assert rep.lower_bound == 1 + max(real(H, d)[0] for H in barriers)


def test_sandwich_beyond_cap_reports_lower_only():
    rep = verify_threshold_sandwich(9, 3, 1)
    assert not rep.exact_available
    assert rep.upper_bound is None
    assert rep.ratio is None
    assert rep.lower_bound >= 14  # space barrier degree 13


def test_sandwich_small_graph_case():
    rep = verify_threshold_sandwich(4, 2, 1)
    assert rep.exact_available
    assert rep.upper_bound == 2
    assert rep.lower_bound == 2  # space barrier: the star misses a matching
