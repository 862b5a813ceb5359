from __future__ import annotations

import hashlib
import random
import re
import tracemalloc
from itertools import combinations
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.errors import FormatError, NotFound, ShapeError, SizeError
from diraclab.hypercore import Hypergraph, induced, mask_of
from diraclab.lab import sample_hk
from diraclab.matchpower import (
    Matching,
    _max_matching,
    _pm_searcher,
    _pm_within,
    aharoni_haxell_holds,
    blockwise_almost_perfect,
    dumps_matching,
    find_disjoint_representatives,
    find_perfect_matching,
    match_into_flexible,
    parse_matching,
    verify_matching,
)
from diraclab.templates import (
    BipartiteTemplate,
    ResilientTemplate,
    build_resilient_template,
    compact_template,
    feasible_removals,
    search_montgomery,
    verify_montgomery,
    verify_resilient_template,
)
from diraclab.thresholds import parity_barrier, space_barrier

from conftest import seeded_subgraph, small_hypergraph

# ---------------------------------------------------------------------------
# Oracles (dumb, independent)
# ---------------------------------------------------------------------------


def naive_pm_exists(H: Hypergraph) -> bool:
    """Enumerate all edge subsets of size n/k and test disjointness."""
    if H.n % H.k != 0:
        return False
    if H.n == 0:
        return True
    need = H.n // H.k
    for combo in combinations(H.edges, need):
        seen = set()
        ok = True
        for e in combo:
            for v in e:
                if v in seen:
                    ok = False
                    break
                seen.add(v)
            if not ok:
                break
        if ok:
            return True
    return False


def oracle_max_matching_size(H: Hypergraph) -> int:
    best = 0

    def rec(i: int, used: set, count: int) -> None:
        nonlocal best
        best = max(best, count)
        for j in range(i, len(H.edges)):
            e = H.edges[j]
            if not used.intersection(e):
                rec(j + 1, used | set(e), count + 1)

    rec(0, set(), 0)
    return best


# ---------------------------------------------------------------------------
# Matching type
# ---------------------------------------------------------------------------


def test_matching_rejects_overlap():
    with pytest.raises(ShapeError):
        Matching.from_edges([(0, 1, 2), (2, 3, 4)])
    m = Matching.from_edges([(3, 4, 5), (0, 1, 2)])
    assert m.edges == ((0, 1, 2), (3, 4, 5))
    assert m.covered == frozenset(range(6))
    assert len(m) == 2


# ---------------------------------------------------------------------------
# Perfect matching search
# ---------------------------------------------------------------------------


def test_pm_complete_graph():
    res = find_perfect_matching(Hypergraph.complete(6, 3))
    assert res.status == "perfect"
    assert res.uncovered == ()
    ok, why = verify_matching(Hypergraph.complete(6, 3), res.matching, require_perfect=True)
    assert ok, why


def test_pm_set_up_allocates_no_per_edge_objects():
    # the kernel reads the host's edge tuples and keeps one mask int per
    # edge (emask), which peaks at about 0.94 MiB on these 17,296 edges;
    # an incidence list or a vertex list per edge on top would pass 1 MiB
    H = Hypergraph.complete(48, 3)
    assert len(H.edges) == 17296
    tracemalloc.start()
    try:
        res = find_perfect_matching(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "perfect"
    assert peak < 2**20


def test_pm_isolated_vertex_is_none():
    edges = [e for e in combinations(range(6), 3) if 5 not in e]
    res = find_perfect_matching(Hypergraph.from_edges(6, 3, edges))
    assert res.status == "none"
    assert 5 in res.uncovered


def test_pm_space_barrier_shape_is_none():
    # every edge meets {0,1}; three disjoint edges would need three
    # distinct vertices from a 2-set
    edges = [e for e in combinations(range(9), 3) if e[0] <= 1]
    res = find_perfect_matching(Hypergraph.from_edges(9, 3, edges))
    assert res.status == "none"


def test_pm_divisibility_short_circuit():
    res = find_perfect_matching(Hypergraph.complete(7, 3))
    assert res.status == "none"
    assert res.nodes_explored == 0


def test_pm_budget_gives_partial():
    H = Hypergraph.complete(12, 3)
    res = find_perfect_matching(H, budget=2)
    assert res.status == "partial"
    assert verify_matching(H, res.matching)[0]


def memo_free_pm(H: Hypergraph, budget: int | None = None) -> tuple[str, Matching, tuple[int, ...], int]:
    """The fail-first search without the dead-state memo, as a reference.

    Same vertex choice (fewest available edges, lowest id on ties), same
    canonical edge order and same node count as the library search had
    before it remembered dead masks; it re-explores every revisited mask.
    """
    n = H.n
    if n == 0:
        return "perfect", Matching(()), (), 0
    if n % H.k != 0:
        return "none", Matching(()), tuple(range(n)), 0
    masks, incident, full = H.edge_masks, H.incident, (1 << n) - 1
    nodes = 0
    chosen: list[int] = []
    best: list[int] = []

    class Stop(Exception):
        pass

    def rec(covered: int) -> bool:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise Stop
        if covered == full:
            return True
        pick = None
        for v in range(n):
            if covered >> v & 1:
                continue
            avail = [i for i in incident[v] if not masks[i] & covered]
            if pick is None or len(avail) < len(pick):
                pick = avail
                if not avail:
                    return False
        for i in pick:
            chosen.append(i)
            if len(chosen) > len(best):
                best[:] = chosen
            if rec(covered | masks[i]):
                return True
            chosen.pop()
        return False

    def result(status: str, idx: list[int]) -> tuple[str, Matching, tuple[int, ...], int]:
        m = Matching.from_edges(H.edges[i] for i in idx)
        return status, m, tuple(sorted(set(range(n)) - m.covered)), nodes

    try:
        if rec(0):
            return result("perfect", chosen)
    except Stop:
        return result("partial", best)
    return result("none", best)


def memo_hosts() -> list[Hypergraph]:
    """Seeded binomial hosts, relabelled space and parity barriers, and
    barriers thinned by a binomial host or given one extra edge, so that
    both "none" and "perfect" come after real backtracking."""
    hosts = []
    for seed in range(20):
        n = (6, 9, 12, 15, 10)[seed % 5]
        p = 0.2 + 0.7 * (seed % 7) / 6
        hosts.append(sample_hk(n, 3, p, seed))
    rng = random.Random(2024)
    for n, k in [(6, 3), (9, 3), (12, 3), (8, 4), (12, 4)]:
        for build in (space_barrier, parity_barrier):
            H = build(n, k, 1)
            perm = list(range(n))
            rng.shuffle(perm)
            hosts.append(Hypergraph.from_edges(n, k, [[perm[v] for v in e] for e in H.edges]))
    for seed in range(10):
        n = (12, 15)[seed % 2]
        H = (space_barrier, parity_barrier)[seed // 2 % 2](n, 3, 1)
        if seed < 6:
            kept = set(sample_hk(n, 3, 0.5 + 0.05 * seed, seed).edges)
            hosts.append(Hypergraph.from_edges(n, 3, [e for e in H.edges if e in kept]))
        else:
            extra = rng.choice([e for e in combinations(range(n), 3) if not H.has_edge(e)])
            hosts.append(Hypergraph.from_edges(n, 3, H.edges + (extra,)))
    return hosts


MEMO_HOSTS = memo_hosts()


@pytest.mark.parametrize("H", MEMO_HOSTS, ids=[f"host{i}" for i in range(len(MEMO_HOSTS))])
def test_pm_memo_matches_memo_free_reference(H):
    status, matching, uncovered, ref_nodes = memo_free_pm(H)
    res = find_perfect_matching(H)
    assert (res.status, res.matching, res.uncovered) == (status, matching, uncovered)
    assert res.nodes_explored <= ref_nodes
    # A budget the reference just fits settles the same way; a tighter one
    # may still settle under the memo, and then it must agree too.
    for budget in (ref_nodes, ref_nodes // 2, ref_nodes // 5):
        res = find_perfect_matching(H, budget=budget)
        ref = memo_free_pm(H, budget=budget)
        if ref[0] != "partial":
            assert (res.status, res.matching, res.uncovered) == ref[:3]
        if res.status != "partial":
            assert (res.status, res.matching, res.uncovered) == (status, matching, uncovered)
        assert res.nodes_explored <= budget + 1


def test_pm_memo_settles_n18_barriers():
    # Node counts, not seconds: without the dead-state memo neither proof
    # finishes within 200,000 nodes.
    for build, nodes in ((space_barrier, 39_876), (parity_barrier, 66_089)):
        res = find_perfect_matching(build(18, 3, 1))
        assert (res.status, res.nodes_explored) == ("none", nodes)


@pytest.mark.parametrize(
    "build, n, nodes, uncovered",
    [
        (space_barrier, 12, 613, (9, 10, 11)),
        (parity_barrier, 12, 789, (6, 10, 11)),
        (space_barrier, 15, 5_197, (12, 13, 14)),
        (parity_barrier, 15, 7_674, (6, 13, 14)),
    ],
)
def test_pm_barrier_proofs_pinned(build, n, nodes, uncovered):
    # exact node counts of the search as it stood before it moved into the
    # kernel that template verification shares
    res = find_perfect_matching(build(n, 3, 1))
    assert (res.status, res.nodes_explored, res.uncovered) == ("none", nodes, uncovered)
    assert len(res.matching) == n // 3 - 1


@pytest.mark.parametrize(
    "build, n, k, nodes",
    [
        (space_barrier, 18, 3, 39_876),
        (parity_barrier, 18, 3, 66_089),
        (space_barrier, 15, 3, 5_197),
        (parity_barrier, 15, 3, 7_674),
        (space_barrier, 12, 4, 1_162),
        (parity_barrier, 12, 4, 1_361),
    ],
)
def test_pm_barrier_walks_pinned_under_budget(build, n, k, nodes):
    # the proofs behind the lower bounds m_d(k, n) >= 1 + barrier degree
    # settle within the budget the memo-free search cannot meet at n=18
    res = find_perfect_matching(build(n, k, 1), budget=200_000)
    assert (res.status, res.nodes_explored) == ("none", nodes)


def induced_pm(H: Hypergraph, verts, budget: int | None = None):
    """The subset search as an ``induced`` copy, searched and mapped back."""
    sub, old = induced(H, verts)
    res = find_perfect_matching(sub, budget=budget)
    back = Matching.from_edges([old[v] for v in e] for e in res.matching.edges)
    return res.status, back, res.nodes_explored


def subset_cases():
    """Random vertex subsets of the memo hosts, most of a size divisible by
    k (some the whole vertex set), a few not."""
    rng = random.Random(606)
    for H in MEMO_HOSTS:
        sizes = [H.n] + [H.k * rng.randint(1, H.n // H.k) for _ in range(3)]
        sizes.append(rng.randint(1, H.n))
        for size in sizes:
            yield H, tuple(rng.sample(range(H.n), size))


SUBSET_CASES = list(subset_cases())


def test_pm_within_matches_induced_search():
    settled = partial = 0
    for H, verts in SUBSET_CASES:
        status, found, nodes = _pm_within(H, verts)
        ref = induced_pm(H, verts)
        assert (status, Matching.from_edges(found), nodes) == ref
        if status == "perfect":
            assert verify_matching(H, found)[0]
            assert Matching.from_edges(found).covered == set(verts)
        for budget in (1, max(1, ref[2] // 2), ref[2]):
            status, found, nodes = _pm_within(H, verts, budget)
            assert (status, Matching.from_edges(found), nodes) == induced_pm(H, verts, budget)
            settled += status != "partial"
            partial += status == "partial"
    assert settled >= 100 and partial >= 100


class _BudgetHit(Exception):
    """Unwinds the two reference searches below when they spend their
    budget; the package's own searches stop without an exception."""


# The kernel as it stood when it scanned every vertex at every node, kept
# verbatim as the reference for the bitset kernel.
def _pm_search(
    masks: Sequence[int],
    incident: Sequence[Sequence[int]],
    n: int,
    start: int,
    dead: set[int],
    budget: int | None = None,
) -> tuple[str, list[int], int]:
    """The search behind :func:`find_perfect_matching`, :func:`_pm_within`
    and the template checks: cover the vertices outside the ``start`` mask
    with disjoint edges avoiding it.

    Returns ``(status, edge indices, nodes)``: the indices form the perfect
    matching, or the longest partial one seen. ``dead`` is the memo of
    covered masks shown to fail; a mask enters it only when its branch loop
    ran out, never when the budget cut the search. A dead mask therefore
    means the vertices outside it have no perfect matching in these edges,
    whatever the start mask was, and a caller may share the memo between
    searches on the same edges. The status stays exact; only the partial
    matching kept after a failure may be shorter than a fresh search's.
    """
    full = (1 << n) - 1
    nodes = 0
    chosen: list[int] = []
    best: list[int] = []

    def rec(covered: int) -> bool:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise _BudgetHit
        if covered == full:
            return True
        if covered in dead:
            return False
        pick: Sequence[int] | None = None
        for v in range(n):
            if covered >> v & 1:
                continue
            avail = [i for i in incident[v] if not masks[i] & covered]
            if pick is None or len(avail) < len(pick):
                pick = avail
                if not avail:
                    return False
        for i in pick:
            chosen.append(i)
            if len(chosen) > len(best):
                best[:] = chosen
            if rec(covered | masks[i]):
                return True
            chosen.pop()
        dead.add(covered)
        return False

    try:
        found = rec(start)
    except _BudgetHit:
        return "partial", best, nodes
    return ("perfect", chosen, nodes) if found else ("none", best, nodes)


def assert_kernels_agree(H: Hypergraph, start: int) -> None:
    """Bitset and scanning kernels on one start mask: the same status, edge
    indices and nodes, and the same dead memo afterwards, unbudgeted and at
    budgets 1, half and the full node count."""
    search = _pm_searcher(H.edges, H.n)

    def both(budget):
        dead_new: set[int] = set()
        dead_old: set[int] = set()
        got = search(start, dead_new, budget)
        ref = _pm_search(H.edge_masks, H.incident, H.n, start, dead_old, budget)
        assert got == ref
        assert dead_new == dead_old
        return ref[2]

    nodes = both(None)
    for budget in (1, max(1, nodes // 2), nodes):
        both(budget)


@pytest.mark.parametrize("H", MEMO_HOSTS, ids=[f"host{i}" for i in range(len(MEMO_HOSTS))])
def test_bitset_kernel_matches_scanning_kernel(H):
    assert_kernels_agree(H, 0)


# every budget costs a search on each kernel, so the sweep below takes the
# memo hosts with edges whose walk is at most 300 nodes, and the k=3
# barriers on 9 and 12 vertices (62 to 789 nodes)
BUDGET_SWEEP_HOSTS = {
    **{
        f"host{i}": H
        for i, H in enumerate(MEMO_HOSTS)
        if H.edges and _pm_search(H.edge_masks, H.incident, H.n, 0, set())[2] <= 300
    },
    **{f"{build.__name__}{n}": build(n, 3, 1) for n in (9, 12) for build in (space_barrier, parity_barrier)},
}


@pytest.mark.parametrize("left", (False, True), ids=("fresh", "left"))
@pytest.mark.parametrize("H", BUDGET_SWEEP_HOSTS.values(), ids=BUDGET_SWEEP_HOSTS.keys())
def test_bitset_kernel_matches_scanning_kernel_at_every_budget(H, left):
    # A budget stop can fall on a child whose mask is already dead. With a
    # fresh memo that child's depth was reached before; a memo left by a
    # search that started with the first edge covered is hit from the empty
    # start at a depth no visit has reached, so the partial matching
    # returned there must end with the hit edge.
    search = _pm_searcher(H.edges, H.n)
    memo: set[int] = set()
    if left:
        ref_memo: set[int] = set()
        assert search(H.edge_masks[0], memo) == _pm_search(
            H.edge_masks, H.incident, H.n, H.edge_masks[0], ref_memo
        )
        assert memo == ref_memo
    nodes = search(0, set(memo))[2]
    for budget in range(1, nodes + 1):
        dead_new, dead_old = set(memo), set(memo)
        got = search(0, dead_new, budget)
        ref = _pm_search(H.edge_masks, H.incident, H.n, 0, dead_old, budget)
        assert got == ref
        assert dead_new == dead_old


def test_bitset_kernel_matches_scanning_kernel_on_start_masks():
    # each subset case covers the vertices outside its subset at the start
    statuses = set()
    for H, verts in SUBSET_CASES:
        start = ((1 << H.n) - 1) & ~mask_of(verts)
        assert_kernels_agree(H, start)
        statuses.add(_pm_search(H.edge_masks, H.incident, H.n, start, set())[0])
    assert statuses == {"perfect", "none"}


@pytest.mark.parametrize("r", range(9, 13))
@pytest.mark.parametrize("seed", (0, 1))
def test_bitset_kernel_matches_scanning_kernel_on_template_removals(r, seed):
    # one searcher and one memo per template across every feasible removal,
    # as verify_resilient_template keeps them
    T = build_resilient_template(r, 3, seed=seed)
    G = T.T
    search = _pm_searcher(G.edges, G.n)
    dead_new: set[int] = set()
    dead_old: set[int] = set()
    removals = 0
    for j in feasible_removals(T):
        for W in combinations(T.Z, j):
            got = search(mask_of(W), dead_new)
            ref = _pm_search(G.edge_masks, G.incident, G.n, mask_of(W), dead_old)
            assert got == ref
            assert dead_new == dead_old
            removals += 1
    assert removals > 0


def test_bitset_kernel_matches_scanning_kernel_on_two_disjoint_complete_graphs():
    # once one K_6^(3) is covered, every live column of the other lies in
    # ten live edges, so they all tie and the lowest-id rule decides
    H = Hypergraph.from_edges(
        12, 3, [e for e in combinations(range(12), 3) if max(e) < 6 or min(e) >= 6]
    )
    for start in (0, mask_of(range(6)), mask_of(range(6, 12))):
        assert_kernels_agree(H, start)
    assert find_perfect_matching(H).status == "perfect"


def exact_cover_exists(rows: Sequence[tuple[int, ...]], n: int) -> bool:
    """Some set of rows covers each column below n once and every other
    column at most once, by trying every subset of rows."""
    for size in range(len(rows) + 1):
        for combo in combinations(rows, size):
            cols = [c for row in combo for c in row]
            if len(cols) == len(set(cols)) and set(range(n)) <= set(cols):
                return True
    return False


def test_secondary_columns_match_exact_cover_oracle():
    rng = random.Random(2024)
    seen = {"perfect": 0, "none": 0}
    for _ in range(300):
        n, extra = rng.randint(0, 5), rng.randint(0, 5)
        rows = [
            tuple(sorted(rng.sample(range(n + extra), rng.randint(1, min(3, n + extra)))))
            for _ in range(rng.randint(0, 10) if n + extra else 0)
        ]
        status, picked, _ = _pm_searcher(rows, n)(0, set())
        assert (status == "perfect") == exact_cover_exists(rows, n)
        seen[status] += 1
        if status == "perfect":
            cols = [c for i in picked for c in rows[i]]
            assert len(cols) == len(set(cols))
            assert set(range(n)) <= set(cols)
    assert min(seen.values()) >= 50


def test_pm_within_banned_is_deleting_the_edges():
    rng = random.Random(707)
    for H, verts in SUBSET_CASES[::2]:
        if not H.edges:
            continue
        banned = frozenset(rng.sample(H.edges, rng.randint(1, len(H.edges))))
        thinned = Hypergraph(H.n, H.k, tuple(e for e in H.edges if e not in banned))
        got = _pm_within(H, verts, banned=banned)
        assert got == _pm_within(thinned, verts)
        assert (got[0], Matching.from_edges(got[1]), got[2]) == induced_pm(thinned, verts)


@settings(max_examples=120)
@given(small_hypergraph(max_n=7, max_k=3))
def test_pm_status_matches_naive_oracle(H):
    res = find_perfect_matching(H)
    assert (res.status == "perfect") == naive_pm_exists(H)
    if res.status == "perfect":
        ok, why = verify_matching(H, res.matching, require_perfect=True)
        assert ok, why


# ---------------------------------------------------------------------------
# Maximum matching
# ---------------------------------------------------------------------------


def test_max_matching_examples():
    m = Hypergraph.from_edges(6, 3, [(0, 1, 2), (3, 4, 5)])
    sel, _ = _max_matching(m.edges, m.n)
    assert sorted(m.edges[i] for i in sel) == list(m.edges)

    K7 = Hypergraph.complete(7, 3)
    sel, _ = _max_matching(K7.edges, K7.n)
    assert len(sel) == 2

    path = Hypergraph.from_edges(7, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    sel, _ = _max_matching(path.edges, path.n)
    assert sorted(path.edges[i] for i in sel) == [(0, 1, 2), (4, 5, 6)]


@settings(max_examples=80)
@given(small_hypergraph(max_n=8, max_k=3))
def test_max_matching_agrees_with_oracle(H):
    sel, _ = _max_matching(H.edges, H.n)
    assert len(sel) == oracle_max_matching_size(H)


@given(small_hypergraph(max_n=7, max_k=3), st.randoms(use_true_random=False))
def test_max_matching_size_relabeling_invariant(H, rng):
    perm = list(range(H.n))
    rng.shuffle(perm)
    relabeled = Hypergraph.from_edges(H.n, H.k, [[perm[v] for v in e] for e in H.edges])
    a, _ = _max_matching(H.edges, H.n)
    b, _ = _max_matching(relabeled.edges, relabeled.n)
    assert len(a) == len(b)


# ---------------------------------------------------------------------------
# Set-family condition and representatives
# ---------------------------------------------------------------------------


def test_ah_single_family_holds():
    L = Hypergraph.from_edges(4, 2, [(0, 1)])
    res = aharoni_haxell_holds([L])
    assert res.ok and res.violating is None and res.mode == "exhaustive"


def test_ah_duplicate_family_fails():
    L = Hypergraph.from_edges(4, 2, [(0, 1)])
    res = aharoni_haxell_holds([L, L])
    assert not res.ok
    assert res.violating == (0, 1)


def test_ah_disjoint_supports_hold():
    links = [
        Hypergraph.from_edges(18, 2, [(6 * i, 6 * i + 1), (6 * i + 2, 6 * i + 3), (6 * i + 4, 6 * i + 5)])
        for i in range(3)
    ]
    res = aharoni_haxell_holds(links)
    assert res.ok
    assert res.checked == 7


def test_ah_exact_cap():
    L = Hypergraph.from_edges(4, 2, [(0, 1)])
    with pytest.raises(SizeError, match="^exhaustive subset sweep limited to 12 families, got 13$"):
        aharoni_haxell_holds([L] * 13)
    res = aharoni_haxell_holds([L] * 13, mode="sampled", samples=50, seed=3)
    assert res.mode == "sampled"
    assert not res.ok  # duplicates violate even a sampled sweep quickly


def test_ah_negative_samples_rejected():
    L = Hypergraph.from_edges(4, 2, [(0, 1)])
    with pytest.raises(SizeError, match="samples"):
        aharoni_haxell_holds([L, L], mode="sampled", samples=-3)


def _pinned_link_families(t, seed):
    rng = random.Random(100 * t + seed)
    n = 2 * t + rng.randint(0, 2 * t)
    p = rng.uniform(0.1, 0.6)
    return [
        Hypergraph.from_edges(n, 2, [e for e in combinations(range(n), 2) if rng.random() < p])
        for _ in range(t)
    ]


def _thinned(R):
    return BipartiteTemplate(R.s, R.edges[::2])


def test_sweep_outcomes_are_pinned():
    # (ok, violating, checked, mode) of the subset condition and both
    # template removal checks, in both modes, with passing and failing
    # candidates at many points of the sweep; a change to the candidate
    # order or to the random draws changes the digest
    reports = []
    for t in range(1, 7):
        for fs in range(5):
            links = _pinned_link_families(t, fs)
            reports.append(aharoni_haxell_holds(links))
            for samples in (0, 1, 7, 50):
                for seed in range(5):
                    reports.append(
                        aharoni_haxell_holds(links, mode="sampled", samples=samples, seed=seed)
                    )
    L = Hypergraph.from_edges(4, 2, [(0, 1)])
    reports.append(aharoni_haxell_holds([L] * 13, mode="sampled", samples=50, seed=3))
    for s in (2, 3, 4):
        for seed in (0, 1, 2):
            R = search_montgomery(s, 4, seed=seed)
            for B in (R, _thinned(R)):
                reports.append(verify_montgomery(B, mode="exhaustive"))
                reports.append(verify_montgomery(B, mode="sampled", samples=100, seed=seed))
    Ts = [build_resilient_template(r, 3, seed=0) for r in range(6, 10)]
    Ts += [compact_template(6, 3), ResilientTemplate(3, Hypergraph(6, 3, ()), tuple(range(6)), {})]
    Ts += [ResilientTemplate(3, Hypergraph(T.T.n, 3, T.T.edges[::2]), T.Z, {}) for T in Ts[:4]]
    for T in Ts:
        reports.append(verify_resilient_template(T, mode="exhaustive"))
        for seed in (0, 1):
            reports.append(verify_resilient_template(T, mode="sampled", samples=40, seed=seed))
    outcomes = [(r.ok, r.violating, r.checked, r.mode) for r in reports]
    assert len(outcomes) == 697
    assert {o[::3] for o in outcomes} == {
        (ok, mode) for ok in (True, False) for mode in ("exhaustive", "sampled")
    }
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "17236bb3e52c7a1f0f0594485273f44115ad5c39715a3d8305b0af0dae35b2d1"


def test_representatives_disjoint_supports():
    links = [
        Hypergraph.from_edges(9, 3, [(3 * i, 3 * i + 1, 3 * i + 2)]) for i in range(3)
    ]
    reps = find_disjoint_representatives(links)
    assert reps == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_representatives_exhausted():
    L = Hypergraph.from_edges(4, 2, [(0, 1)])
    with pytest.raises(NotFound) as info:
        find_disjoint_representatives([L, L])
    assert info.value.reason == "exhausted"


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6))
def test_ah_true_implies_representatives(t, seed):
    rng = random.Random(seed)
    n = 10
    links = []
    for _ in range(t):
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.35]
        links.append(Hypergraph.from_edges(n, 2, edges))
    res = aharoni_haxell_holds(links)
    if res.ok:
        reps = find_disjoint_representatives(links)
        assert len(reps) == t
        seen = set()
        for i, e in enumerate(reps):
            assert links[i].has_edge(e)
            assert not seen.intersection(e)
            seen.update(e)


# The representative search as it stood before it ran on the exact-cover
# kernel: families in index order, edges in canonical order.
def _representatives_in_family_order(links, budget=None):
    t = len(links)
    per_family = [[(e, mask_of(e)) for e in L.edges] for L in links]
    chosen: list[tuple[int, ...]] = []
    nodes = 0

    def rec(i: int, covered: int) -> bool:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise _BudgetHit
        if i == t:
            return True
        for e, mk in per_family[i]:
            if not mk & covered:
                chosen.append(e)
                if rec(i + 1, covered | mk):
                    return True
                chosen.pop()
        return False

    try:
        if rec(0, 0):
            return tuple(chosen)
    except _BudgetHit:
        raise NotFound(
            f"representative search stopped by budget after {nodes} nodes",
            reason="budget",
        ) from None
    raise NotFound("no system of disjoint representatives exists", reason="exhausted")


def test_representatives_agree_with_family_order_search():
    rng = random.Random(4321)
    outcomes = {"found": 0, "exhausted": 0}
    for _ in range(400):
        t, kp = rng.randint(1, 5), rng.randint(1, 3)
        n = rng.randint(kp, 9)
        p = rng.uniform(0.05, 0.5)
        links = [
            Hypergraph.from_edges(n, kp, [e for e in combinations(range(n), kp) if rng.random() < p])
            for _ in range(t)
        ]
        try:
            want = _representatives_in_family_order(links)
        except NotFound as exc:
            assert exc.reason == "exhausted"
            with pytest.raises(NotFound) as info:
                find_disjoint_representatives(links)
            assert info.value.reason == "exhausted"
            outcomes["exhausted"] += 1
            continue
        reps = find_disjoint_representatives(links)
        assert len(reps) == len(want) == t
        used: set[int] = set()
        for L, e in zip(links, reps):
            assert L.has_edge(e)
            assert used.isdisjoint(e)
            used.update(e)
        outcomes["found"] += 1
    assert min(outcomes.values()) >= 100


def test_representatives_with_a_secondary_column_widest():
    # vertex 0 lies in 8 of the 11 rows, twice the widest family's count
    links = [
        Hypergraph.from_edges(6, 2, [(0, 1), (0, 2), (0, 3), (4, 5)]),
        Hypergraph.from_edges(6, 2, [(0, 4), (0, 5), (1, 2)]),
        Hypergraph.from_edges(6, 2, [(0, 1), (0, 3), (0, 5), (2, 3)]),
    ]
    rows = [(f,) + tuple(3 + v for v in e) for f, L in enumerate(links) for e in L.edges]
    widths = [sum(c in row for row in rows) for c in range(9)]
    assert widths.index(max(widths)) == 3 and max(widths) == 8
    assert _pm_searcher(rows, 3)(0, set()) == ("perfect", [6, 3, 8], 7)
    want = ((4, 5), (1, 2), (0, 3))
    assert find_disjoint_representatives(links) == want
    assert _representatives_in_family_order(links) == want


def test_one_family_takes_its_first_edge():
    rng = random.Random(99)
    for _ in range(50):
        edges = [e for e in combinations(range(8), 3) if rng.random() < 0.3]
        if not edges:
            continue
        L = Hypergraph.from_edges(8, 3, edges)
        assert find_disjoint_representatives([L]) == (L.edges[0],)
        assert _representatives_in_family_order([L]) == (L.edges[0],)


# ---------------------------------------------------------------------------
# Matching into a flexible set
# ---------------------------------------------------------------------------


def test_match_into_flexible_single():
    G = Hypergraph.from_edges(6, 3, [(0, 3, 4)])
    m = match_into_flexible(G, W=[0], Z=[3, 4, 5])
    assert m.edges == ((0, 3, 4),)


def test_match_into_flexible_counting_failure():
    G = Hypergraph.complete(8, 3)
    with pytest.raises(NotFound):
        match_into_flexible(G, W=[0, 1], Z=[2, 3])  # needs 4 distinct Z vertices


def test_match_into_flexible_rejects_overlap():
    G = Hypergraph.complete(6, 3)
    with pytest.raises(SizeError):
        match_into_flexible(G, W=[0], Z=[0, 1, 2])


@pytest.mark.parametrize("w", [9, -1])
def test_match_into_flexible_rejects_vertices_outside_the_host(w):
    # 9 used to raise IndexError and -1 to read vertex 8's link, failing
    # the representative search instead of the call
    G = Hypergraph.complete(9, 3)
    with pytest.raises(SizeError, match="out of range"):
        match_into_flexible(G, W=[0, w], Z=range(1, 7))


def test_match_into_flexible_edge_shape():
    G = Hypergraph.complete(12, 3)
    W, Z = [0, 1, 2], [5, 6, 7, 8, 9, 10, 11]
    m = match_into_flexible(G, W, Z)
    assert len(m) == 3
    for e in m.edges:
        assert sum(1 for v in e if v in W) == 1
        assert sum(1 for v in e if v in Z) == 2


@pytest.mark.slow
def test_match_into_flexible_random_hosts():
    W = [0, 1, 2, 3]
    Z = list(range(15, 30))
    hits = 0
    for trial in range(200):
        rng = random.Random(9000 + trial)
        edges = [
            (w,) + pair
            for w in W
            for pair in combinations(Z, 2)
            if rng.random() < 0.5
        ]
        G = Hypergraph.from_edges(30, 3, edges)
        try:
            m = match_into_flexible(G, W, Z)
        except NotFound:
            continue
        ok, why = verify_matching(G, m)
        assert ok, why
        assert {e[0] for e in m.edges} == set(W)
        hits += 1
    assert hits >= 190


# ---------------------------------------------------------------------------
# Blockwise almost-perfect matching
# ---------------------------------------------------------------------------


def test_blockwise_complete_host():
    H = Hypergraph.complete(14, 3)
    rep = blockwise_almost_perfect(H, Q=6, seed=5)
    assert rep.blocks_total == 2
    assert rep.failed_blocks == ()
    assert len(rep.uncovered) == 14 % 6
    ok, why = verify_matching(H, rep.matching)
    assert ok, why
    assert rep.matching.covered == set(range(14)) - set(rep.uncovered)


def test_blockwise_empty_host():
    H = Hypergraph(12, 3, ())
    rep = blockwise_almost_perfect(H, Q=6, seed=1)
    assert rep.matching.edges == ()
    assert len(rep.failed_blocks) == 2
    assert rep.uncovered == tuple(range(12))


def test_blockwise_one_bad_vertex():
    edges = [e for e in combinations(range(12), 3) if 0 not in e]
    H = Hypergraph.from_edges(12, 3, edges)
    rep = blockwise_almost_perfect(H, Q=6, seed=11)
    assert len(rep.failed_blocks) == 1
    assert 0 in rep.failed_blocks[0]
    assert set(rep.uncovered) == set(rep.failed_blocks[0])


def test_blockwise_validates_block_size():
    H = Hypergraph.complete(9, 3)
    with pytest.raises(SizeError):
        blockwise_almost_perfect(H, Q=5, seed=0)
    with pytest.raises(SizeError):
        blockwise_almost_perfect(H, Q=12, seed=0)


@pytest.mark.parametrize("Q", [0, -3])
def test_blockwise_rejects_nonpositive_block_size(Q):
    # 0 used to divide by zero and -3 to report every vertex covered by an
    # empty matching
    with pytest.raises(SizeError, match="positive"):
        blockwise_almost_perfect(Hypergraph.complete(9, 3), Q=Q, seed=0)


def test_blockwise_deterministic():
    H = seeded_subgraph(18, 3, 0.6, seed=42)
    a = blockwise_almost_perfect(H, Q=6, seed=3)
    b = blockwise_almost_perfect(H, Q=6, seed=3)
    assert a == b
    c = blockwise_almost_perfect(H, Q=6, seed=4)
    assert a != c or a.matching == c.matching  # different seed may still coincide


def induced_blockwise(H: Hypergraph, Q: int, seed: int, verts):
    """The block stage on an ``induced`` copy of H[verts], mapped back."""
    sub, old = induced(H, verts)
    rep = blockwise_almost_perfect(sub, Q, seed)

    def back(vs):
        return tuple(old[v] for v in vs)

    return (
        Matching.from_edges(back(e) for e in rep.matching.edges),
        back(rep.uncovered),
        tuple(back(b) for b in rep.failed_blocks),
        rep.blocks_total,
    )


def test_blockwise_on_subset_matches_induced_copy():
    rng = random.Random(7)
    cases = failing = 0
    for host_seed in range(50):
        n = rng.randrange(12, 25)
        H = seeded_subgraph(n, 3, rng.choice((0.2, 0.5, 0.9)), seed=host_seed)
        for Q in (3, 6, 9):
            for _ in range(3):
                S = rng.sample(range(n), rng.randrange(Q, n + 1))
                seed = rng.randrange(1000)
                rep = blockwise_almost_perfect(H, Q, seed, verts=S)
                got = (rep.matching, rep.uncovered, rep.failed_blocks, rep.blocks_total)
                assert got == induced_blockwise(H, Q, seed, S)
                cases += 1
                failing += bool(rep.failed_blocks)
    assert cases == 450
    # both outcomes occur, so the comparison covers failed blocks too
    assert 0 < failing < cases


def test_blockwise_validates_subset():
    H = Hypergraph.complete(9, 3)
    with pytest.raises(SizeError):
        blockwise_almost_perfect(H, Q=3, seed=0, verts=[0, 1, 9])
    with pytest.raises(SizeError):
        blockwise_almost_perfect(H, Q=3, seed=0, verts=[-1, 0, 1])
    with pytest.raises(SizeError):
        blockwise_almost_perfect(H, Q=6, seed=0, verts=[0, 1, 2, 3, 4])
    with pytest.raises(SizeError):
        blockwise_almost_perfect(H, Q=4, seed=0, verts=range(8))


# ---------------------------------------------------------------------------
# Verifier and text format
# ---------------------------------------------------------------------------


def test_verify_matching_rejects_foreign_edge():
    H = Hypergraph.from_edges(6, 3, [(0, 1, 2)])
    ok, why = verify_matching(H, [(3, 4, 5)])
    assert not ok and "not an edge" in why


def test_verify_matching_rejects_overlap_without_matching_type():
    H = Hypergraph.complete(6, 3)
    ok, why = verify_matching(H, [(0, 1, 2), (2, 3, 4)])
    assert not ok and "twice" in why


def test_verify_matching_perfect_requirement():
    H = Hypergraph.complete(6, 3)
    ok, why = verify_matching(H, [(0, 1, 2)], require_perfect=True)
    assert not ok and "not covered" in why


def set_based_verify_matching(H, matching, require_perfect=False):
    """The checker as it was when it built a set of all host edges, kept
    verbatim as the reference for the lookups by has_edge."""
    edges = list(matching.edges) if isinstance(matching, Matching) else [
        tuple(sorted(e)) for e in matching
    ]
    host_edges = set(H.edges)
    seen: set[int] = set()
    for e in edges:
        if e not in host_edges:
            return False, f"edge {e} is not an edge of the host"
        for v in e:
            if v in seen:
                return False, f"vertex {v} covered twice"
            seen.add(v)
    if require_perfect and seen != set(range(H.n)):
        missing = sorted(set(range(H.n)) - seen)
        return False, f"vertices not covered: {missing[:8]}"
    return True, None


def verify_corpus():
    """(host, make_input) pairs; make_input builds a fresh input each call,
    since a generator input is used up by one check."""
    rng = random.Random(2025)
    hosts = [Hypergraph.complete(9, 3), Hypergraph.complete(8, 4), Hypergraph.complete(6, 2)]
    hosts += [sample_hk(12, 3, 0.4, s) for s in range(4)] + [sample_hk(10, 2, 0.5, 7)]
    cases = []
    for H in hosts:
        res = find_perfect_matching(H)
        if res.status == "perfect":
            pm = res.matching
            cases += [
                lambda pm=pm: pm,
                lambda pm=pm: Matching(pm.edges[1:]),  # not perfect
                lambda pm=pm: [list(reversed(e)) for e in pm.edges],  # plain lists
                lambda pm=pm: (set(e) for e in pm.edges),  # a generator of sets
                lambda pm=pm: [pm.edges[0], pm.edges[0]],  # a repeated vertex
            ]
        k = H.k
        for _ in range(12):
            verts = rng.sample(range(H.n + 2), k * rng.randint(1, (H.n + 2) // k))
            edges = [tuple(verts[i:i + k]) for i in range(0, len(verts), k)]
            if rng.random() < 0.3:
                edges.append(edges[0][:-1] + (rng.randrange(H.n),))
            sorted_edges = sorted(tuple(sorted(e)) for e in edges)
            cases += [lambda e=edges: e, lambda e=edges: iter(e)]
            if len({v for e in edges for v in e}) == k * len(edges):
                cases.append(lambda e=sorted_edges: Matching(tuple(e)))
        cases += [
            lambda: [tuple(range(k - 1))],  # too short
            lambda: [tuple(range(H.n - k + 1, H.n + 1))],  # out of range
            lambda: [],
        ]
        yield from ((H, make) for make in cases)
        cases = []


def test_verify_matching_agrees_with_the_set_based_checker():
    reasons = set()
    count = 0
    for H, make in verify_corpus():
        for perfect in (False, True):
            got = verify_matching(H, make(), require_perfect=perfect)
            assert got == set_based_verify_matching(H, make(), require_perfect=perfect)
            reasons.add(got[1].split()[0] if got[1] else None)
            count += 1
    assert count > 300
    # a pass, a non-host edge, a twice-covered vertex and a missing vertex
    assert reasons == {None, "edge", "vertex", "vertices"}


def test_verify_matching_builds_no_host_edge_set():
    # 20 lookups by binary search, against a set of all 34,220 host edges
    H = Hypergraph.complete(60, 3)
    M = Matching.from_edges(range(i, i + 3) for i in range(0, 60, 3))
    tracemalloc.start()
    try:
        got = verify_matching(H, M, require_perfect=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (True, None)
    assert peak < 64 * 1024


def test_matching_text_round_trip():
    m = Matching.from_edges([(0, 1, 2), (3, 4, 5)])
    assert parse_matching(dumps_matching(m)) == m
    assert parse_matching("# note\n\n0 1 2\n") == Matching.from_edges([(0, 1, 2)])
    with pytest.raises(FormatError, match="^line 1: vertex ids must be strictly ascending$"):
        parse_matching("2 1 0\n")
    m = find_perfect_matching(Hypergraph.complete(9, 3)).matching
    assert parse_matching(dumps_matching(m)) == m
    # an edge out of order would dump as text that parse_matching refuses
    for edge in [(2, 1, 0), (0, 2, 1), (0, 1, 1)]:
        why = f"^matching edge {re.escape(str(edge))} is not strictly ascending$"
        with pytest.raises(ShapeError, match=why):
            Matching((edge, (6, 7, 8)))
