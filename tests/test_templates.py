"""Tests for the template layers and the planted absorbing structures.

The bipartite removal property is cross-checked against a second matching
engine: each removal instance is modeled as a 2-uniform hypergraph and fed
to find_perfect_matching, which shares no code with the augmenting-path
matcher inside verify_montgomery.
"""

import hashlib
import json
import random
from itertools import combinations
from math import comb

import pytest

from diraclab.errors import (
    FormatError,
    NotFound,
    ShapeError,
    SizeError,
)
from diraclab import templates
from diraclab.hypercore import Hypergraph, induced
from diraclab.matchpower import Matching, bipartite_matching, find_perfect_matching
from diraclab.templates import (
    AbsorbingStructure,
    BipartiteTemplate,
    ResilientTemplate,
    build_absorbing_structure,
    build_resilient_template,
    compact_template,
    feasible_removals,
    find_independent_set,
    independent_free_overlay,
    layered_template_size,
    lift_k_partite,
    read_template,
    search_montgomery,
    structure_matching_after_removal,
    verify_montgomery,
    verify_resilient_template,
    write_template,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def oracle_removal_survives(R, removed):
    """Second matching engine for the removal property: the bipartite graph
    minus `removed` is a 2-uniform hypergraph, and X-saturation after an
    s-removal is the same thing as a perfect matching of it."""
    removed = set(removed)
    keep = [v for v in range(7 * R.s) if v not in removed]
    pos = {v: i for i, v in enumerate(keep)}
    edges = [
        (pos[x], pos[w]) for x, w in R.edges if x in pos and w in pos
    ]
    H = Hypergraph.from_edges(len(keep), 2, edges)
    return find_perfect_matching(H).status == "perfect"


def scratch_montgomery(R, mode, samples=2000, seed=0):
    """verify_montgomery as it ran before the matching was carried across
    removals: a fresh augmenting-path matching for every removal."""
    adj = [[] for _ in range(3 * R.s)]
    for x, w in R.edges:
        adj[x].append(w)
    X = range(3 * R.s)
    if mode == "exhaustive":
        removals = list(combinations(R.Z, R.s))
    else:
        rng = random.Random(seed)
        removals = [tuple(sorted(rng.sample(list(R.Z), R.s))) for _ in range(samples)]
    for i, D in enumerate(removals):
        if bipartite_matching(adj, X, frozenset(D)) is None:
            return (False, D, i + 1, mode)
    return (True, None, len(removals), mode)


def montgomery_candidates(s, cap, count, seed):
    """Unions of `cap` random injections of X into Y+Z, the shape the
    search draws; most fail at small caps, most pass at large ones."""
    rng = random.Random(seed)
    right = list(range(3 * s, 7 * s))
    out = []
    for _ in range(count):
        edges = set()
        for _ in range(cap):
            targets = rng.sample(right, 3 * s)
            edges.update((x, targets[x]) for x in range(3 * s))
        out.append(BipartiteTemplate(s, tuple(sorted(edges))))
    return out


def scratch_template_verify(T, mode, samples=500, seed=0):
    """verify_resilient_template as it ran before it searched T in place:
    an induced copy of T minus W for every removal, searched afresh."""
    sizes = feasible_removals(T)

    def survives(W):
        sub, _ = induced(T.T, [v for v in range(T.T.n) if v not in W])
        return find_perfect_matching(sub).status == "perfect"

    if mode == "exhaustive":
        removals = [W for j in sizes for W in combinations(T.Z, j)]
    else:
        rng = random.Random(seed)
        removals = []
        for _ in range(samples):
            j = rng.choice(sizes)
            removals.append(tuple(sorted(rng.sample(list(T.Z), j))))
    for i, W in enumerate(removals):
        if not survives(W):
            return (False, W, i + 1, mode)
    return (True, None, len(removals), mode)


def report_tuple(rep):
    return (rep.ok, rep.violating, rep.checked, rep.mode)


def oracle_independent(H, subset):
    """Does `subset` span no edge of H? Recomputed from plain sets."""
    s = set(subset)
    return not any(set(e) <= s for e in H.edges)


def complete_bipartite_template(s):
    edges = tuple(
        (x, w) for x in range(3 * s) for w in range(3 * s, 7 * s)
    )
    return BipartiteTemplate(s, edges)


# ---------------------------------------------------------------------------
# Bipartite template search and verification
# ---------------------------------------------------------------------------

class TestMontgomery:
    def test_search_small_scale(self):
        R = search_montgomery(2, 4, seed=0)
        assert R.s == 2
        assert R.max_degree <= 4
        rep = verify_montgomery(R)
        assert rep.ok
        assert rep.mode == "exhaustive"
        assert rep.checked == comb(4, 2)

    def test_search_agrees_with_second_engine(self):
        R = search_montgomery(2, 4, seed=0)
        for D in combinations(R.Z, R.s):
            assert oracle_removal_survives(R, D)

    def test_verify_flags_the_exact_violation(self):
        # drop every edge of x = 0 that lands in Y, leaving it two
        # Z-neighbours; removing both must be flagged
        s = 2
        base = complete_bipartite_template(s)
        kept = tuple(
            (x, w)
            for x, w in base.edges
            if x != 0 or w in (5 * s, 5 * s + 1)
        )
        R = BipartiteTemplate(s, kept)
        rep = verify_montgomery(R)
        assert not rep.ok
        assert rep.violating == (5 * s, 5 * s + 1)
        assert not oracle_removal_survives(R, rep.violating)

    def test_complete_template_passes(self):
        rep = verify_montgomery(complete_bipartite_template(2))
        assert rep.ok

    def test_isolated_x_vertex_always_fails(self):
        s = 2
        edges = tuple(
            (x, w) for x in range(1, 3 * s) for w in range(3 * s, 7 * s)
        )
        R = BipartiteTemplate(s, edges)
        rep = verify_montgomery(R)
        assert not rep.ok

    def test_degree_one_search_fails(self):
        # one injection cannot place all of X inside Y, so some x depends
        # on a single Z vertex and the verifier rejects every candidate
        with pytest.raises(NotFound) as exc:
            search_montgomery(2, 1, trials=20, seed=0)
        assert exc.value.reason == "trials"

    def test_sampled_mode_override(self):
        R = search_montgomery(2, 4, seed=0)
        rep = verify_montgomery(R, mode="sampled", samples=50, seed=1)
        assert rep.ok
        assert rep.mode == "sampled"
        assert rep.checked == 50

    def test_negative_samples_rejected(self):
        R = search_montgomery(2, 4, seed=0)
        with pytest.raises(SizeError, match="samples"):
            verify_montgomery(R, mode="sampled", samples=-3)

    def test_determinism(self):
        a = search_montgomery(3, 4, seed=5)
        b = search_montgomery(3, 4, seed=5)
        assert a == b

    def test_search_pinned_edges(self):
        # pinned edges: guards the shared augmenting-path matcher and the
        # derived_seed(seed, trial) stream
        R = search_montgomery(3, 4, seed=5)
        assert R.edges == (
            (0, 10), (0, 14), (0, 20), (1, 10), (1, 18), (1, 19), (2, 9), (2, 11),
            (2, 12), (2, 17), (3, 12), (3, 14), (3, 19), (4, 13), (4, 15), (4, 17),
            (4, 20), (5, 9), (5, 14), (5, 16), (5, 17), (6, 12), (6, 15), (6, 16),
            (6, 20), (7, 9), (7, 10), (7, 16), (7, 20), (8, 11), (8, 12), (8, 16),
            (8, 18),
        )

    def test_carried_matching_matches_fresh_matchings(self):
        outcomes = set()
        for s, cap in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4)):
            for i, R in enumerate(montgomery_candidates(s, cap, 8, seed=10 * s + cap)):
                for mode, kw in (("exhaustive", {}), ("sampled", {"samples": 60, "seed": i})):
                    rep = verify_montgomery(R, mode=mode, **kw)
                    assert report_tuple(rep) == scratch_montgomery(R, mode, **kw)
                    outcomes.add((mode, rep.ok))
        # both modes saw passing and failing candidates
        assert len(outcomes) == 4

    @pytest.mark.parametrize(
        "s, cap, seed, size, digest",
        [
            (5, 4, 0, 58, "8970429a87bff876"),
            (5, 4, 1, 57, "07c98e72f97ee919"),
            (5, 5, 0, 67, "573e08f6f3908d8c"),
            (6, 4, 1, 71, "2c39f4b0d4acd659"),
            (6, 5, 0, 88, "6758d8f30bfe68a9"),
            (6, 5, 1, 86, "7ae8af10ce5ef9e0"),
        ],
    )
    def test_search_pinned_at_template_scales(self, s, cap, seed, size, digest):
        # edge counts and sha256 prefixes of repr(edges), from the verifier
        # that matched every removal afresh
        R = search_montgomery(s, cap, seed=seed)
        assert (len(R.edges), R.max_degree) == (size, cap)
        assert hashlib.sha256(repr(R.edges).encode()).hexdigest()[:16] == digest

    def test_search_pinned_failure_at_scale_6(self):
        # seeds 0-16 find a degree-4 template at scale 6; 17 is the first
        # whose 200 trials all fail
        with pytest.raises(NotFound):
            search_montgomery(6, 4, seed=17)

    def test_hall_removal_is_a_real_violation(self):
        # 1,200 candidates of the search's shape at scales 3-6: every
        # removal the two-vertex Hall count names starves X, and no
        # candidate the sweep accepts is named
        fired = passed = 0
        for s in range(3, 7):
            for cap in (2, 3, 4, 5, 6):
                for R in montgomery_candidates(s, cap, 60, seed=100 * s + cap):
                    D = templates._hall_removal(R)
                    ok = verify_montgomery(R).ok
                    passed += ok
                    if D is None:
                        continue
                    fired += 1
                    assert not ok
                    assert len(D) == s and set(D) <= set(R.Z) and list(D) == sorted(D)
                    X = range(3 * s)
                    adj = [[w for x2, w in R.edges if x2 == x] for x in X]
                    assert bipartite_matching(adj, X, frozenset(D)) is None
        assert fired >= 600 and passed >= 300

    def test_hall_removal_skips_the_sweep(self, monkeypatch):
        # the sweep runs only on candidates with no two-vertex violation,
        # and the pinned search still returns the same template
        calls = []
        real = templates.verify_montgomery
        monkeypatch.setattr(templates, "verify_montgomery",
                            lambda R: calls.append(R) or real(R))
        R = search_montgomery(5, 4, seed=0)
        assert hashlib.sha256(repr(R.edges).encode()).hexdigest()[:16] == "8970429a87bff876"
        assert calls and all(templates._hall_removal(c) is None for c in calls)

    def test_side_ranges_validated(self):
        with pytest.raises(ShapeError):
            BipartiteTemplate(2, ((0, 1),))  # both ends on the X side
        with pytest.raises(ShapeError):
            BipartiteTemplate(2, ((0, 6), (0, 6)))  # duplicate edge

    def test_scale_and_degree_validation(self):
        with pytest.raises(SizeError):
            search_montgomery(1, 4)
        with pytest.raises(SizeError):
            search_montgomery(2, 0)


# ---------------------------------------------------------------------------
# k-partite lift
# ---------------------------------------------------------------------------

class TestLift:
    def test_k2_is_the_identity_on_edges(self):
        R = search_montgomery(2, 4, seed=0)
        L = lift_k_partite(R, 2)
        assert L.graph.k == 2
        assert L.graph.n == 7 * R.s
        assert L.parts == ()
        assert L.graph.edges == R.edges
        assert L.X == R.X and L.Y == R.Y and L.Z == R.Z

    def test_k3_shape(self):
        R = search_montgomery(2, 4, seed=0)
        L = lift_k_partite(R, 3)
        s = R.s
        assert L.graph.k == 3
        assert L.graph.n == 3 * s + 7 * s
        assert L.parts == (tuple(range(3 * s)),)
        assert L.graph.edge_count() == len(R.edges)
        # every lifted edge holds the fresh copy of its x
        for e, (x, w) in L.edge_map:
            assert set(e) == {x, 3 * s + x, 3 * s + w}

    def test_k4_edge_bijection(self):
        R = search_montgomery(2, 4, seed=0)
        L = lift_k_partite(R, 4)
        assert L.graph.n == 2 * 3 * R.s + 7 * R.s
        assert len(L.edge_map) == len(R.edges)
        assert sorted(pair for _, pair in L.edge_map) == sorted(R.edges)
        assert sorted(e for e, _ in L.edge_map) == list(L.graph.edges)

    def test_matchings_transfer_both_ways(self):
        # a removal-surviving matching downstairs lifts to a matching of
        # the lifted graph covering every fresh part, and conversely any
        # X-saturating set of lifted edges projects to a bipartite matching
        R = search_montgomery(2, 4, seed=0)
        L = lift_k_partite(R, 3)
        lifted_by_pair = {pair: e for e, pair in L.edge_map}
        for D in combinations(R.Z, R.s):
            sub = [
                pair
                for pair in R.edges
                if pair[1] not in set(D)
            ]
            H = Hypergraph.from_edges(7 * R.s, 2, sub)
            res = find_perfect_matching(
                induced(H, [v for v in range(7 * R.s) if v not in set(D)])[0]
            )
            assert res.status == "perfect"
            # project the witness back through the id map and lift it
            old = induced(H, [v for v in range(7 * R.s) if v not in set(D)])[1]
            pairs = [tuple(old[v] for v in e) for e in res.matching.edges]
            lifted = [lifted_by_pair[p] for p in pairs]
            flat = [v for e in lifted for v in e]
            assert len(flat) == len(set(flat))
            covered = set(flat)
            for part in L.parts:
                assert set(part) <= covered

    def test_uniformity_validated(self):
        R = search_montgomery(2, 4, seed=0)
        with pytest.raises(SizeError):
            lift_k_partite(R, 1)


# ---------------------------------------------------------------------------
# Overlay
# ---------------------------------------------------------------------------

class TestOverlay:
    def test_forced_complete_when_target_equals_k(self):
        H, mode = independent_free_overlay(6, 3)
        assert mode == "forced-complete"
        assert H.edges == Hypergraph.complete(6, 3).edges

    def test_exact_mode_truly_has_no_independent_set(self):
        H, mode = independent_free_overlay(12, 3, seed=1)
        assert mode == "exact"
        for sub in combinations(range(12), 6):
            assert not oracle_independent(H, sub)

    def test_find_independent_set_agrees_with_oracle(self):
        rng = random.Random(3)
        all_sets = list(combinations(range(8), 3))
        for trial in range(20):
            H = Hypergraph(8, 3, tuple(sorted(rng.sample(all_sets, 12))))
            got = find_independent_set(H, 4)
            want = [
                sub for sub in combinations(range(8), 4)
                if oracle_independent(H, sub)
            ]
            if want:
                assert got in want
            else:
                assert got is None

    def test_pinned_graphs(self):
        # pinned graphs guard the derived_seed(seed, trial) stream; at r=8
        # all 56 triples are drawn, so the second case, 80 of the 120
        # triples at r=10, is the one that samples
        assert independent_free_overlay(8, 3, seed=0) == (Hypergraph.complete(8, 3), "exact")
        H, mode = independent_free_overlay(10, 3, seed=1)
        assert (mode, len(H.edges)) == ("exact", 80)
        assert hashlib.sha256(repr(H.edges).encode()).hexdigest()[:16] == "f1bfee8eb2f0c73d"

    def test_budget_too_small_fails(self):
        # 80 of the 210 4-sets on 10 vertices leave some 5 vertices free
        with pytest.raises(NotFound) as exc:
            independent_free_overlay(10, 4, trials=10, seed=0)
        assert exc.value.reason == "trials"

    def test_uniformity_too_large_rejected(self):
        with pytest.raises(SizeError):
            independent_free_overlay(6, 4)

    def test_determinism(self):
        a = independent_free_overlay(12, 3, seed=9)
        b = independent_free_overlay(12, 3, seed=9)
        assert a == b


# ---------------------------------------------------------------------------
# Resilient templates
# ---------------------------------------------------------------------------

class TestResilientTemplate:
    @pytest.mark.parametrize("r,k", [(6, 3), (7, 3), (8, 2), (9, 4)])
    def test_size_is_the_lift_less_the_trim(self, r, k):
        T = build_resilient_template(r, k, seed=0)
        R = search_montgomery(T.provenance["s"], T.provenance["degree_cap"], seed=0)
        lift = lift_k_partite(R, k)
        assert T.T.n == layered_template_size(r, k) == lift.graph.n - T.provenance["trimmed"]

    def test_r6_build_and_exhaustive_verify(self):
        T = build_resilient_template(6, 3, seed=0)
        assert T.r == 6
        assert T.T.n == 30
        assert T.Z == tuple(range(24, 30))
        rep = verify_resilient_template(T)
        assert rep.ok
        assert rep.mode == "exhaustive"
        # 30 - j divisible by 3 with j < 3 leaves only the empty removal
        assert feasible_removals(T) == [0]
        assert rep.checked == 1

    def test_r9_build_and_exhaustive_verify(self):
        T = build_resilient_template(9, 3, seed=0)
        assert T.T.n == 49
        assert T.provenance["trimmed"] == 1
        assert feasible_removals(T) == [1, 4]
        rep = verify_resilient_template(T)
        assert rep.ok
        assert rep.checked == comb(9, 1) + comb(9, 4)

    def test_r7_trims_one_vertex(self):
        T = build_resilient_template(7, 3, seed=0)
        assert T.T.n == 39
        assert T.r == 7
        assert T.provenance["trimmed"] == 1
        assert verify_resilient_template(T).ok

    def test_provenance_records_sizes_and_length_constant(self):
        T = build_resilient_template(6, 3, seed=0)
        p = T.provenance
        assert p["v"] == T.T.n
        assert p["e"] == T.T.edge_count()
        assert p["L"] == -(-max(T.T.n, T.T.edge_count()) // T.r)

    def test_flexible_set_sits_on_the_z_side(self):
        T = build_resilient_template(6, 3, seed=0)
        # every overlay edge lives inside Z
        z = set(T.Z)
        overlay_edges = [e for e in T.T.edges if set(e) <= z]
        assert len(overlay_edges) == T.provenance["overlay_edges"]

    def test_small_r_rejected(self):
        with pytest.raises(SizeError):
            build_resilient_template(5, 3)

    def test_verify_rejects_a_broken_template(self):
        # no edges at all: any nonempty sweep fails on its first removal
        T = ResilientTemplate(
            k=3, T=Hypergraph(9, 3, ()), Z=tuple(range(9)), provenance={}
        )
        rep = verify_resilient_template(T)
        assert not rep.ok
        assert rep.violating is not None

    def test_negative_samples_rejected(self):
        T = build_resilient_template(6, 3, seed=0)
        with pytest.raises(SizeError, match="samples"):
            verify_resilient_template(T, mode="sampled", samples=-2)

    def test_in_place_search_matches_induced_copies(self):
        outcomes = []
        for r in (9, 10, 11, 12):
            for seed in (0, 1):
                T = build_resilient_template(r, 3, seed=seed)
                rep = verify_resilient_template(T, mode="exhaustive")
                assert rep.ok
                assert report_tuple(rep) == scratch_template_verify(T, "exhaustive")
                # cut three X vertices of the lift down to none, one and two
                # of their edges into Z
                rng = random.Random(100 * r + seed)
                X = range(3 * T.provenance["s"], 6 * T.provenance["s"])
                z = set(T.Z)
                for keep, x in enumerate(rng.sample(X, 3)):
                    into_z = [e for e in T.T.edges if x in e and z.intersection(e)]
                    drop = {e for e in T.T.edges if x in e} - set(into_z[:keep])
                    broken = ResilientTemplate(
                        3, Hypergraph(T.T.n, 3, tuple(e for e in T.T.edges if e not in drop)), T.Z, {}
                    )
                    for mode in ("exhaustive", "sampled"):
                        rep = verify_resilient_template(broken, mode=mode, samples=60, seed=seed)
                        want = scratch_template_verify(broken, mode, samples=60, seed=seed)
                        assert report_tuple(rep) == want
                        outcomes.append((mode, rep.ok, rep.checked))
        assert all(not ok for mode, ok, _ in outcomes if mode == "exhaustive")
        # failures come at many points of the sweep, and some samples miss them
        assert len({checked for mode, _, checked in outcomes if mode == "exhaustive"}) >= 5
        assert ("sampled", True, 60) in outcomes and ("sampled", False) in {o[:2] for o in outcomes}

    def test_searcher_is_set_up_once_per_verification(self, monkeypatch):
        built = []
        real = templates._pm_searcher

        def counting(edges, n):
            built.append(n)
            return real(edges, n)

        monkeypatch.setattr(templates, "_pm_searcher", counting)
        T = build_resilient_template(9, 3, seed=0)
        for mode in ("exhaustive", "sampled"):
            rep = verify_resilient_template(T, mode=mode, samples=40)
            assert rep.ok and rep.checked > 1
            assert built == [T.T.n]
            built.clear()

    def test_no_feasible_removal_is_vacuous_in_both_modes(self):
        T = ResilientTemplate(k=3, T=Hypergraph(8, 3, ()), Z=(0, 1, 2), provenance={})
        assert feasible_removals(T) == []
        for mode in ("exhaustive", "sampled"):
            rep = verify_resilient_template(T, mode=mode)
            assert report_tuple(rep) == (True, None, 0, mode)

    @pytest.mark.parametrize("stray", [9, -1])
    def test_flexible_set_outside_the_template_rejected(self, stray):
        T = ResilientTemplate(3, Hypergraph.complete(9, 3), (0, 1, 2, 3, 4, 5, 6, 7, stray), {})
        with pytest.raises(SizeError, match="outside"):
            verify_resilient_template(T)

    def test_compact_template(self):
        T = compact_template(6, 3)
        assert T.T.edges == Hypergraph.complete(6, 3).edges
        assert verify_resilient_template(T).ok
        with pytest.raises(SizeError):
            compact_template(7, 3)

    def test_determinism(self):
        a = build_resilient_template(6, 3, seed=4)
        b = build_resilient_template(6, 3, seed=4)
        assert a == b


# ---------------------------------------------------------------------------
# Absorbing structures
# ---------------------------------------------------------------------------

HOST36 = Hypergraph.complete(36, 3)


def small_structure(seed=0):
    T = build_resilient_template(6, 3, seed=seed)
    return build_absorbing_structure(HOST36, T, embed_Z=range(30, 36))


class TestAbsorbingStructure:
    def test_build_on_complete_host(self):
        S = small_structure()
        assert len(S.placements) == S.template.T.edge_count()
        assert S.Z_host == tuple(range(30, 36))
        # template vertex count bounds X; interiors could add at most Q per edge
        v, e = S.template.T.n, S.template.T.edge_count()
        assert len(S.X) <= v + 6 * e

    def test_placements_share_only_root_vertices(self):
        S = small_structure()
        vmap = dict(S.vertex_map)
        for (e1, A1), (e2, A2) in combinations(S.placements, 2):
            shared_roots = {vmap[v] for v in set(e1) & set(e2)}
            assert A1.vertices & A2.vertices <= shared_roots

    def test_placement_roots_follow_the_vertex_map(self):
        S = small_structure()
        vmap = dict(S.vertex_map)
        for edge, A in S.placements:
            assert A.roots == tuple(sorted(vmap[v] for v in edge))

    def test_empty_host_placement_fails(self):
        T = build_resilient_template(6, 3, seed=0)
        bare = Hypergraph(36, 3, ())
        with pytest.raises(NotFound) as exc:
            build_absorbing_structure(bare, T, embed_Z=range(30, 36))
        assert exc.value.details["template_edge"] in T.T.edges

    def test_host_too_small(self):
        T = build_resilient_template(6, 3, seed=0)
        tiny = Hypergraph.complete(12, 3)
        with pytest.raises(SizeError):
            build_absorbing_structure(tiny, T, embed_Z=range(6, 12))

    def test_rich_set_validation(self):
        T = build_resilient_template(6, 3, seed=0)
        with pytest.raises(SizeError):
            build_absorbing_structure(HOST36, T, embed_Z=range(5))  # wrong size
        with pytest.raises(SizeError):
            build_absorbing_structure(HOST36, T, embed_Z=[0, 0, 1, 2, 3, 4])
        with pytest.raises(SizeError):
            build_absorbing_structure(HOST36, T, embed_Z=[0, 1, 2, 3, 4, 99])

    def test_matching_after_empty_removal(self):
        S = small_structure()
        M = structure_matching_after_removal(S, ())
        assert M.covered == S.X

    def test_matching_after_each_feasible_removal(self):
        T = build_resilient_template(9, 3, seed=0)
        host = Hypergraph.complete(60, 3)
        S = build_absorbing_structure(host, T, embed_Z=range(49, 58))
        for v in S.Z_host:
            M = structure_matching_after_removal(S, (v,))
            assert M.covered == S.X - {v}
        rng = random.Random(11)
        for _ in range(10):
            W = tuple(rng.sample(S.Z_host, 4))
            M = structure_matching_after_removal(S, W)
            assert M.covered == S.X - set(W)

    def test_in_place_matching_matches_induced_copy(self):
        # every feasible removal of one layered structure, on its template
        # and on the template with every fifth edge gone (where some removals
        # lose their matching), against a search of an induced copy of T - W
        T = build_resilient_template(9, 3, seed=0)
        S = build_absorbing_structure(Hypergraph.complete(60, 3), T, embed_Z=range(49, 58))
        kept = tuple(e for i, e in enumerate(T.T.edges) if i % 5)
        thin = ResilientTemplate(k=3, T=Hypergraph(T.T.n, 3, kept), Z=T.Z, provenance={})
        back = {h: t for t, h in S.vertex_map}
        outcomes = set()
        for template in (T, thin):
            S_t = AbsorbingStructure(template, S.placements, S.host, S.X, S.vertex_map)
            for j in feasible_removals(template):
                for W in combinations(S.Z_host, j):
                    W_T = {back[h] for h in W}
                    sub, old = induced(template.T, [v for v in range(T.T.n) if v not in W_T])
                    res = find_perfect_matching(sub)
                    if res.status != "perfect":
                        with pytest.raises(NotFound):
                            structure_matching_after_removal(S_t, W)
                        outcomes.add("failed")
                        continue
                    in_matching = {tuple(old[v] for v in e) for e in res.matching.edges}
                    expected = Matching.from_edges(
                        e
                        for edge, A in S.placements
                        for e in (A.covering if edge in in_matching else A.noncovering).edges
                    )
                    assert structure_matching_after_removal(S_t, W) == expected
                    outcomes.add("matched")
        assert outcomes == {"matched", "failed"}

    def test_removal_guards(self):
        S = small_structure()
        with pytest.raises(SizeError):
            structure_matching_after_removal(S, (0,))  # not flexible
        with pytest.raises(SizeError):
            structure_matching_after_removal(S, tuple(S.Z_host[:3]))  # >= r/2
        with pytest.raises(SizeError):
            structure_matching_after_removal(S, S.Z_host[:1])  # divisibility

    def test_infeasible_removal_names_the_feasible_sizes(self):
        # feasible_removals owns the removal rule; the structure checks |W|
        # against it and names both
        S = small_structure()
        assert feasible_removals(S.template) == [0]
        for j in (1, 2, 3):
            with pytest.raises(SizeError) as exc:
                structure_matching_after_removal(S, S.Z_host[:j])
            assert str(exc.value) == f"cannot remove {j} flexible vertices: the feasible sizes are [0]"

    def test_broken_template_graph_raises_matching_failure(self):
        S = small_structure()
        stripped = ResilientTemplate(
            k=3,
            T=Hypergraph(S.template.T.n, 3, ()),
            Z=S.template.Z,
            provenance={},
        )
        broken = AbsorbingStructure(
            template=stripped,
            placements=S.placements,
            host=S.host,
            X=S.X,
            vertex_map=S.vertex_map,
        )
        # the template search has no budget, so an empty result is exhausted
        with pytest.raises(NotFound, match=r"^template lost its matching after removing \(\)$") as exc:
            structure_matching_after_removal(broken, ())
        assert exc.value.reason == "exhausted"

    def test_finder_config_is_forwarded(self):
        # a one-edge stand-in template keeps the forwarding check cheap
        stub = ResilientTemplate(
            k=3, T=Hypergraph(3, 3, ((0, 1, 2),)), Z=(0, 1, 2), provenance={}
        )
        host = Hypergraph.complete(12, 3)
        plain = build_absorbing_structure(host, stub, embed_Z=(0, 1, 2))
        assert plain.placements[0][1].order == 0
        S = build_absorbing_structure(host, stub, embed_Z=(0, 1, 2), Q=6, min_order=3)
        assert S.placements[0][1].order >= 3

    def test_placement_failure_keeps_the_finder_reason(self):
        stub = ResilientTemplate(
            k=3, T=Hypergraph(3, 3, ((0, 1, 2),)), Z=(0, 1, 2), provenance={}
        )
        for host, budget, reason, cause in (
            (Hypergraph.complete(12, 3), 5, "budget", "budget of 5 nodes exhausted searching order <= 6"),
            (Hypergraph(12, 3, ()), None, "exhausted", "no absorber of order <= 6 rooted at (0, 1, 2)"),
        ):
            with pytest.raises(NotFound) as exc:
                build_absorbing_structure(host, stub, embed_Z=(0, 1, 2), budget=budget, min_order=3)
            assert exc.value.reason == reason
            assert exc.value.details == {"template_edge": (0, 1, 2)}
            assert str(exc.value) == f"no absorber for template edge (0, 1, 2) on roots (0, 1, 2): {cause}"

    def test_default_order_cap_is_2k(self):
        # at k=4 the orders are 0, 4, 8: from min_order 5 only order 8 is
        # left, inside the default cap 2k = 8 and outside a cap of 6
        stub = ResilientTemplate(k=4, T=Hypergraph(4, 4, ((0, 1, 2, 3),)), Z=(0, 1, 2, 3), provenance={})
        host = Hypergraph.complete(12, 4)
        S = build_absorbing_structure(host, stub, embed_Z=(0, 1, 2, 3), min_order=5)
        assert S.placements[0][1].order == 8
        with pytest.raises(NotFound):
            build_absorbing_structure(host, stub, embed_Z=(0, 1, 2, 3), Q=6, min_order=5)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_round_trip(self, tmp_path):
        T = build_resilient_template(6, 3, seed=0)
        path = tmp_path / "t6.khg"
        write_template(T, path)
        back = read_template(path)
        assert back.T == T.T
        assert back.Z == T.Z
        assert back.k == T.k
        assert dict(back.provenance) == dict(T.provenance)

    def test_missing_sidecar(self, tmp_path):
        T = build_resilient_template(6, 3, seed=0)
        path = tmp_path / "t6.khg"
        write_template(T, path)
        (tmp_path / "t6.khg.json").unlink()
        with pytest.raises(FileNotFoundError):
            read_template(path)

    def test_sidecar_mismatch(self, tmp_path):
        T = build_resilient_template(6, 3, seed=0)
        path = tmp_path / "t6.khg"
        write_template(T, path)
        sidecar = tmp_path / "t6.khg.json"
        sidecar.write_text(sidecar.read_text().replace('"k": 3', '"k": 4'))
        with pytest.raises(FormatError):
            read_template(path)

    def test_sidecar_ids_must_be_integers(self, tmp_path):
        # int() read a Z id shifted by 0.5, or k given as 3.0, as the
        # template it was written from
        T = build_resilient_template(6, 3, seed=0)
        path = tmp_path / "t6.khg"
        write_template(T, path)
        sidecar = tmp_path / "t6.khg.json"
        data = json.loads(sidecar.read_text())
        Z = data["Z"]
        for bad in ({"Z": [Z[0] + 0.5] + Z[1:]}, {"Z": [True] + Z[1:]}, {"k": 3.0}, {"k": "3"}):
            sidecar.write_text(json.dumps(dict(data, **bad)))
            with pytest.raises(FormatError, match="must be an integer"):
                read_template(path)
