"""Sampling, degradation, experiment batches, and their file formats.

Oracles:
- derived seeds are recomputed from the hash directly;
- degradation output is re-checked with a from-scratch deletability scan
  (an edge is deletable iff all its d-subsets keep degree above the target),
  and compared step for step with a plain rescan-every-step transcription;
- Wilson endpoints are verified as roots of the defining quadratic;
- inheritance/load rows are recomputed per subset straight from the host.
"""

from fractions import Fraction
from hashlib import sha256
from itertools import combinations
from math import comb, inf, nan, sqrt
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import lab
from diraclab.errors import DiracLabError, FormatError, SizeError
from diraclab.hypercore import Hypergraph, induced, min_d_degree
from diraclab.lab import (
    INHERITANCE_COLUMNS,
    LOAD_COLUMNS,
    RESILIENCE_COLUMNS,
    WILSON_Z,
    CsvTable,
    ExperimentConfig,
    build_host,
    degrade_to_degree,
    derived_seed,
    dumps_config,
    dumps_table,
    experiment_csv,
    inheritance_experiment,
    load_experiment,
    neighborhood_load_check,
    parse_config,
    parse_table,
    read_config,
    resilience_experiment,
    resilience_threshold,
    run_experiment,
    sample_hk,
    summary_lines,
    wilson_interval,
)
from diraclab.matchpower import find_perfect_matching
from diraclab.thresholds import space_barrier


def scan_deletable(edges, d, target):
    """Independent deletability scan: all d-subsets must stay above target."""
    deg = {}
    for e in edges:
        for S in combinations(e, d):
            deg[S] = deg.get(S, 0) + 1
    return [
        e
        for e in edges
        if all(deg[S] >= target + 1 for S in combinations(e, d))
    ]


def rescan_degrade(G, d, target, policy, seed):
    """Reference schedule: rescan every remaining edge before each deletion.

    Quadratic, but it states the contract directly: the deletable list is
    rebuilt in edge order each step, "random" draws one index into it and
    "greedy" takes the least (min d-degree, edge) key.
    """
    deg = {}
    for e in G.edges:
        for S in combinations(e, d):
            deg[S] = deg.get(S, 0) + 1
    rng = Random(seed)
    remaining = list(G.edges)
    deleted = []
    while True:
        deletable = [
            e for e in remaining if all(deg[S] >= target + 1 for S in combinations(e, d))
        ]
        if not deletable:
            break
        if policy == "random":
            e = deletable[rng.randrange(len(deletable))]
        else:
            e = min(deletable, key=lambda f: (min(deg[S] for S in combinations(f, d)), f))
        remaining.remove(e)
        deleted.append(e)
        for S in combinations(e, d):
            deg[S] -= 1
    return tuple(deleted), tuple(remaining)


class TestDerivedSeed:
    def test_matches_direct_hash(self):
        for master, index in [(0, 0), (7, 13), (123456, 999), (-3, 2)]:
            digest = sha256(f"{master}:{index}".encode()).digest()
            assert derived_seed(master, index) == int.from_bytes(digest[:8], "big")

    def test_frozen_value(self):
        assert derived_seed(0, 0) == 12426054289685354689

    def test_distinct_across_indexes(self):
        seeds = {derived_seed(0, i) for i in range(100)}
        assert len(seeds) == 100

    def test_fits_eight_bytes(self):
        assert 0 <= derived_seed(42, 42) < 2**64


def test_build_host_rejects_an_unknown_kind():
    # an unknown kind used to fall through to a binomial host
    with pytest.raises(SizeError, match=r"^host kind must be one of \('complete', 'space', "
                       r"'parity', 'random'\), got 'bogus'$"):
        build_host("bogus", 6, 3, 1, 0.5, 0)
    assert build_host("random", 6, 3, 1, 0.5, 0) == sample_hk(6, 3, 0.5, 0)


class TestSampleHk:
    def test_p_one_is_complete(self):
        assert sample_hk(7, 3, 1.0, 5).edges == Hypergraph.complete(7, 3).edges

    def test_p_zero_is_empty(self):
        assert sample_hk(7, 3, 0.0, 5).edges == ()

    def test_deterministic(self):
        assert sample_hk(9, 3, 0.4, 8) == sample_hk(9, 3, 0.4, 8)
        assert sample_hk(9, 3, 0.4, 8) != sample_hk(9, 3, 0.4, 9)

    @pytest.mark.parametrize(
        "n, count, digest",
        [
            (30, 2833, "50df3e98a591f518485ae623fcea1e837cb124f4c85dbefad311bc7b512d6a4e"),
            (60, 23936, "59582eea5ad5ab811efaf7f42015175fd405bb3ef1d0d49f95c199ee59faf09c"),
        ],
    )
    def test_pinned_edges(self, n, count, digest):
        # edge count and sha256 of repr(edges) at p = 0.7, seed 1: one draw
        # per candidate k-set in lexicographic order, kept in that order
        edges = sample_hk(n, 3, 0.7, 1).edges
        assert type(edges) is tuple and len(edges) == count
        assert sha256(repr(edges).encode()).hexdigest() == digest

    def test_validation(self):
        with pytest.raises(SizeError):
            sample_hk(5, 6, 0.5)
        with pytest.raises(SizeError):
            sample_hk(5, 0, 0.5)
        with pytest.raises(SizeError):
            sample_hk(5, 3, 1.5)
        with pytest.raises(SizeError):
            sample_hk(5, 3, -0.1)

    def test_edge_counts_binomial(self):
        # 1000 seeds at n=10, k=3, p=0.5: every count within 4 sigma of
        # 0.5 * C(10,3) = 60 and the mean within 1%.
        counts = [len(sample_hk(10, 3, 0.5, s).edges) for s in range(1000)]
        sigma = sqrt(comb(10, 3) * 0.25)
        assert all(abs(c - 60) <= 4 * sigma for c in counts)
        mean = sum(counts) / len(counts)
        assert abs(mean - 60) <= 0.6

    def test_edge_indicator_uniformity(self):
        # chi-squared smoke over 10^4 seeds at (8,3): per-edge inclusion
        # counts against Binomial(N, 1/2); the statistic has 56 cells.
        N = 10_000
        cells = {e: 0 for e in combinations(range(8), 3)}
        for s in range(N):
            for e in sample_hk(8, 3, 0.5, s).edges:
                cells[e] += 1
        stat = sum((c - N / 2) ** 2 / (N / 4) for c in cells.values())
        assert 20 < stat < 110


class TestDegrade:
    def test_target_zero_deletes_everything(self):
        r = degrade_to_degree(Hypergraph.complete(6, 3), 1, 0, seed=1)
        assert r.graph.edges == ()
        assert r.min_degree == 0
        assert len(r.deleted) == comb(6, 3)

    def test_k12_codegree_six(self):
        r = degrade_to_degree(Hypergraph.complete(12, 3), 2, 6, seed=0)
        assert min_d_degree(r.graph, 2)[0] >= 6
        assert r.min_degree == min_d_degree(r.graph, 2)[0]

    def test_natural_stop_hits_target_exactly(self):
        # With no budget and target >= 1, the stuck state has some d-subset
        # pinned at the floor, and the scan agrees nothing is deletable.
        r = degrade_to_degree(Hypergraph.complete(8, 3), 1, 10, seed=3)
        assert r.min_degree == 10
        assert scan_deletable(r.graph.edges, 1, 10) == []

    def test_target_at_current_minimum_keeps_certificate(self):
        G = sample_hk(10, 3, 0.7, 4)
        floor = min_d_degree(G, 1)[0]
        r = degrade_to_degree(G, 1, floor, seed=2)
        assert r.min_degree >= floor
        assert set(r.deleted) <= set(G.edges)
        assert len(r.graph.edges) + len(r.deleted) == len(G.edges)

    def test_regular_host_at_its_degree_is_stuck(self):
        G = Hypergraph.complete(8, 3)
        r = degrade_to_degree(G, 1, comb(7, 2), seed=0)
        assert r.graph == G
        assert r.deleted == ()

    def test_greedy_lexicographic_tie_break(self):
        r = degrade_to_degree(Hypergraph.complete(5, 3), 1, 4, policy="greedy")
        assert r.deleted[:2] == ((0, 1, 2), (0, 1, 3))

    def test_greedy_ignores_seed(self):
        a = degrade_to_degree(Hypergraph.complete(7, 3), 1, 8, policy="greedy", seed=0)
        b = degrade_to_degree(Hypergraph.complete(7, 3), 1, 8, policy="greedy", seed=77)
        assert a == b

    def test_random_policy_seed_dependence(self):
        a = degrade_to_degree(Hypergraph.complete(7, 3), 1, 8, seed=0)
        b = degrade_to_degree(Hypergraph.complete(7, 3), 1, 8, seed=0)
        c = degrade_to_degree(Hypergraph.complete(7, 3), 1, 8, seed=1)
        assert a == b
        assert a.deleted != c.deleted

    def test_target_infeasible(self):
        with pytest.raises(SizeError):
            degrade_to_degree(Hypergraph(6, 3, ()), 1, 1)
        with pytest.raises(SizeError):
            degrade_to_degree(Hypergraph.complete(6, 3), 1, 100)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("policy", ["random", "greedy"])
    def test_matches_rescan_reference(self, policy, d):
        for host_seed in range(20):
            n = 8 + host_seed % 8
            G = sample_hk(n, 3, 0.6, host_seed)
            target = min_d_degree(G, d)[0] // 2
            r = degrade_to_degree(G, d, target, policy=policy, seed=host_seed)
            deleted, remaining = rescan_degrade(G, d, target, policy, host_seed)
            assert r.deleted == deleted
            assert r.graph.edges == remaining

    def test_floor_breach_raises(self, monkeypatch):
        # the post-hoc floor check is an explicit raise, so it also runs
        # under python -O; here the recount, the one min_d_degree call, is
        # made to report a breach
        real = lab.min_d_degree
        calls = []

        def recount(H, d):
            calls.append(H)
            return -1, real(H, d)[1]

        monkeypatch.setattr(lab, "min_d_degree", recount)
        with pytest.raises(DiracLabError, match="degradation broke the degree floor"):
            degrade_to_degree(Hypergraph.complete(6, 3), 1, 0, seed=1)
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("policy", ["random", "greedy"])
    def test_one_degree_count_per_degradation(self, monkeypatch, policy, d):
        # the start degree is read off the d-set index; min_d_degree runs
        # only for the recount on the survivor
        real = lab.min_d_degree
        calls = []
        monkeypatch.setattr(lab, "min_d_degree", lambda H, d: calls.append(H) or real(H, d))
        # at n=9, p=0.3 some pairs lie in no edge; the empty host below has
        # no vertex in an edge
        for n, p, seed in ((9, 0.3, 1), (12, 0.8, 2), (21, 0.8, 3)):
            G = sample_hk(n, 3, p, seed)
            start = real(G, d)[0]
            calls.clear()
            r = degrade_to_degree(G, d, start // 2, policy=policy, seed=seed)
            assert calls == [r.graph]
            with pytest.raises(SizeError) as info:
                degrade_to_degree(G, d, start + 1, policy=policy)
            assert str(info.value) == f"minimum {d}-degree is {start}, already below target {start + 1}"

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("policy", ["random", "greedy"])
    def test_four_uniform_matches_rescan_reference(self, policy, d):
        for host_seed in range(8):
            G = sample_hk(7 + host_seed % 4, 4, 0.7, host_seed)
            low = min_d_degree(G, d)[0]
            for target in (low // 2, low):
                r = degrade_to_degree(G, d, target, policy=policy, seed=host_seed)
                deleted, remaining = rescan_degrade(G, d, target, policy, host_seed)
                assert r.deleted == deleted
                assert r.graph.edges == remaining

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("policy", ["random", "greedy"])
    def test_uncovered_d_set_at_target_zero(self, policy, d):
        # vertex 7 lies in no edge, and neither do the pair {0, 1} and the
        # pairs holding 7, so some d-set of either size has degree 0
        G = Hypergraph(8, 3, tuple(e for e in combinations(range(7), 3) if e[:2] != (0, 1)))
        assert min_d_degree(G, d)[0] == 0
        r = degrade_to_degree(G, d, 0, policy=policy, seed=4)
        deleted, remaining = rescan_degrade(G, d, 0, policy, 4)
        assert (r.deleted, r.graph.edges, r.min_degree) == (deleted, remaining, 0)
        assert len(r.deleted) == len(G.edges)
        with pytest.raises(SizeError, match=f"minimum {d}-degree is 0, already below target 1"):
            degrade_to_degree(G, d, 1, policy=policy)

    @pytest.mark.parametrize("policy", ["random", "greedy"])
    def test_vertex_index_reads_incidence_lists(self, policy):
        # at d = 1 the holders are G.incident itself: the call must leave it
        # and the edges as they were, and must not need it built beforehand
        G = sample_hk(13, 3, 0.7, 6)
        target = min_d_degree(G, 1)[0] // 2
        edges, incident = G.edges, G.incident
        before = [list(ids) for ids in incident]
        r = degrade_to_degree(G, 1, target, policy=policy, seed=6)
        assert G.edges is edges and G.incident is incident
        assert [list(ids) for ids in G.incident] == before
        assert (r.deleted, r.graph.edges) == rescan_degrade(G, 1, target, policy, 6)
        fresh = Hypergraph(G.n, G.k, G.edges)
        assert "incident" not in vars(fresh)
        assert degrade_to_degree(fresh, 1, target, policy=policy, seed=6) == r

    @pytest.mark.parametrize("d", [1, 2])
    def test_empty_host(self, d):
        r = degrade_to_degree(Hypergraph(6, 3, ()), d, 0)
        assert (r.graph, r.deleted, r.min_degree) == (Hypergraph(6, 3, ()), (), 0)
        with pytest.raises(SizeError, match=f"minimum {d}-degree is 0, already below target 1"):
            degrade_to_degree(Hypergraph(6, 3, ()), d, 1)
        with pytest.raises(SizeError) as info:
            degrade_to_degree(Hypergraph(d - 1, 3, ()), d, 0)
        assert str(info.value) == f"need at least d={d} vertices, have {d - 1}"

    def test_validation(self):
        G = Hypergraph.complete(6, 3)
        with pytest.raises(SizeError):
            degrade_to_degree(G, 0, 1)
        with pytest.raises(SizeError):
            degrade_to_degree(G, 3, 1)
        with pytest.raises(SizeError):
            degrade_to_degree(G, 1, -1)
        with pytest.raises(SizeError):
            degrade_to_degree(G, 1, 1, policy="chaotic")


class TestWilson:
    @staticmethod
    def quadratic_residual(p, phat, total):
        return (phat - p) ** 2 - WILSON_Z**2 * p * (1 - p) / total

    def test_endpoints_solve_the_defining_equation(self):
        for successes, total in [(5, 10), (0, 10), (10, 10), (30, 30), (180, 200), (1, 7)]:
            low, high = wilson_interval(successes, total)
            phat = successes / total
            assert abs(self.quadratic_residual(low, phat, total)) < 1e-12
            assert abs(self.quadratic_residual(high, phat, total)) < 1e-12

    def test_degenerate_counts(self):
        low, high = wilson_interval(0, 12)
        assert low == pytest.approx(0.0, abs=1e-15)
        low, high = wilson_interval(12, 12)
        assert high == pytest.approx(1.0, abs=1e-15)

    @given(st.integers(1, 10_000).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
    @settings(max_examples=80, deadline=None)
    def test_interval_brackets_the_estimate(self, pair):
        successes, total = pair
        low, high = wilson_interval(successes, total)
        phat = successes / total
        assert -1e-12 <= low <= phat + 1e-12
        assert phat - 1e-12 <= high <= 1 + 1e-12

    def test_validation(self):
        with pytest.raises(SizeError):
            wilson_interval(0, 0)
        with pytest.raises(SizeError):
            wilson_interval(5, 3)


class TestConfig:
    def full_config(self):
        return ExperimentConfig(
            name="full",
            n=14,
            k=3,
            d=2,
            p=0.75,
            gamma=0.2,
            eta=0.1,
            Q=6,
            lam=0.15,
            trials=17,
            master_seed=99,
            out="runs/full.csv",
            policy="greedy",
            phat="empirical",
            host="space",
            timing=True,
            budget=5000,
        )

    def test_round_trip_lossless(self):
        cfg = self.full_config()
        assert parse_config(dumps_config(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = self.full_config()
        path = tmp_path / "exp.cfg"
        path.write_text(dumps_config(cfg), encoding="ascii")
        assert read_config(path) == cfg

    def test_comments_and_blanks_skipped(self):
        cfg = parse_config("# demo\n\nname = x\nn = 6\n\nk = 3\n")
        assert (cfg.name, cfg.n, cfg.k) == ("x", 6, 3)
        assert cfg.trials == 1

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_config("name = x\nn = 6\nk = 3\nwibble = 1\n")
        with pytest.raises(FormatError):
            parse_config("name = x\nname = y\nn = 6\nk = 3\n")
        with pytest.raises(FormatError):
            parse_config("n = 6\nk = 3\n")
        with pytest.raises(FormatError):
            parse_config("name = x\nn = six\nk = 3\n")
        with pytest.raises(FormatError):
            parse_config("name = x\nn = 6\nk = 3\ntiming = yes\n")
        with pytest.raises(FormatError):
            parse_config("name = x\nn 6\nk = 3\n")

    def test_field_validation(self):
        with pytest.raises(SizeError):
            ExperimentConfig(name="two words", n=6, k=3)
        with pytest.raises(SizeError):
            ExperimentConfig(name="x", n=6, k=3, p=1.5)
        with pytest.raises(SizeError):
            ExperimentConfig(name="x", n=6, k=3, trials=0)
        with pytest.raises(SizeError):
            ExperimentConfig(name="x", n=6, k=3, policy="sneaky")
        with pytest.raises(SizeError):
            ExperimentConfig(name="x", n=6, k=3, phat="guess")
        with pytest.raises(SizeError):
            ExperimentConfig(name="x", n=6, k=3, host="moon")
        with pytest.raises(SizeError):
            ExperimentConfig(name="x", n=6, k=0)
        for gamma in (-0.1, nan, inf):
            with pytest.raises(SizeError, match="gamma"):
                ExperimentConfig(name="x", n=6, k=3, gamma=gamma)

    def test_search_budget(self):
        assert ExperimentConfig(name="x", n=6, k=3).search_budget() is None
        assert ExperimentConfig(name="x", n=6, k=3, budget=9).search_budget() == 9


class TestCsvFormat:
    def test_round_trip(self):
        text = dumps_table(
            "demo",
            ("a", "b", "c", "d", "e"),
            [(1, None, True, Fraction(3, 7), (4, 5)), (2, 0.5, False, Fraction(2), ())],
        )
        table = parse_table(text)
        assert table == CsvTable(
            "demo",
            ("a", "b", "c", "d", "e"),
            (("1", "", "1", "3/7", "4 5"), ("2", "0.5", "0", "2", "")),
        )

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(dumps_table("demo", ("x",), [(1,), (2,)]), encoding="ascii")
        assert parse_table(path.read_text(encoding="ascii")).rows == (("1",), ("2",))

    def test_unknown_version_rejected(self):
        text = "#diraclab-csv demo v2\na,b\n1,2\n"
        with pytest.raises(FormatError):
            parse_table(text)

    def test_missing_magic_rejected(self):
        with pytest.raises(FormatError):
            parse_table("a,b\n1,2\n")
        with pytest.raises(FormatError):
            parse_table("#diraclab-csv demo extra v1\na\n")

    def test_width_mismatch(self):
        with pytest.raises(FormatError):
            dumps_table("demo", ("a", "b"), [(1,)])
        with pytest.raises(FormatError):
            parse_table("#diraclab-csv demo v1\na,b\n1\n")

    def test_breaking_cell_rejected(self):
        with pytest.raises(FormatError):
            dumps_table("demo", ("a",), [("x,y",)])


def resilience_config(**overrides):
    base = dict(
        name="res",
        n=12,
        k=3,
        d=2,
        p=0.8,
        gamma=0.15,
        trials=30,
        master_seed=0,
        policy="random",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestResilience:
    def test_threshold_worked_example(self):
        assert resilience_threshold(2, 3, 0.15, 0.8, 12) == 6

    def test_threshold_is_exact_ceiling(self):
        # 13/20 * 4/5 * 10 = 26/5; a float version would be fragile here.
        assert resilience_threshold(2, 3, 0.15, 0.8, 12) == -(-26 // 5)
        assert resilience_threshold(1, 3, 0.0, 1.0, 9) == comb(8, 2) * 5 // 9 + 1

    def test_summary_coheres_with_records(self):
        res = resilience_experiment(resilience_config())
        rows = [rec.data for rec in res.records]
        feasible = [r for r in rows if r["pm_found"] is not None]
        infeasible = [r for r in rows if r["pm_found"] is None]
        assert res.summary["trials"] == 30
        assert res.summary["feasible"] == len(feasible)
        assert res.summary["infeasible"] == len(infeasible)
        wins = sum(1 for r in feasible if r["pm_found"])
        assert res.summary["pm_successes"] == wins
        if feasible:
            assert res.summary["pm_frequency"] == wins / len(feasible)
            low, high = wilson_interval(wins, len(feasible))
            assert res.summary["wilson_low"] == low
            assert res.summary["wilson_high"] == high

    def test_feasible_rows_sit_on_the_floor(self):
        # Degradation runs to a stuck state, so the surviving minimum equals
        # the threshold exactly; infeasible rows stay below it.
        res = resilience_experiment(resilience_config())
        for rec in res.records:
            if rec.data["pm_found"] is None:
                assert rec.data["min_deg"] < rec.data["threshold"]
                assert rec.data["nodes"] is None
            else:
                assert rec.data["min_deg"] == rec.data["threshold"]
                assert isinstance(rec.data["nodes"], int)

    def test_metadata_stamps_the_proxy(self):
        res = resilience_experiment(resilience_config())
        assert res.summary["density_proxy"] == "conjectured_density"
        assert res.summary["density"] == "1/2"
        assert res.summary["policy"] == "random"
        assert res.summary["phat"] == "nominal"

    def test_p_zero_all_trials_infeasible(self):
        res = resilience_experiment(resilience_config(p=0.0, trials=6))
        assert res.summary["infeasible"] == 6
        assert res.summary["feasible"] == 0
        assert res.summary["pm_frequency"] is None
        text = experiment_csv(res)
        last = text.splitlines()[-1].split(",")
        assert last[0] == "summary"
        assert last[RESILIENCE_COLUMNS.index("pm_found")] == ""

    def test_empirical_phat_recomputed_per_row(self):
        res = resilience_experiment(resilience_config(phat="empirical", trials=4))
        for rec in res.records:
            G = sample_hk(12, 3, 0.8, rec.seed)
            p_hat = Fraction(len(G.edges), comb(12, 3))
            want = max(resilience_threshold(2, 3, 0.15, p_hat, 12), 1)
            assert rec.data["threshold"] == want

    def test_csv_shape_and_summary_row(self):
        res = resilience_experiment(resilience_config(trials=5))
        assert res.columns == RESILIENCE_COLUMNS
        table = parse_table(experiment_csv(res))
        assert table.name == "res"
        assert len(table.rows) == 6
        assert table.rows[-1][0] == "summary"
        assert all(row[len(RESILIENCE_COLUMNS) - 1] == "" for row in table.rows)

    def test_rows_rebuild_from_the_seed_column(self):
        # the seed column rebuilds the host, and the deletions draw from
        # the stream derived from it, never from the host's own stream; at
        # d=1 every host is feasible and the node counts depend on the
        # deletions
        res = resilience_experiment(resilience_config(d=1, gamma=0.0, trials=8))
        rows = [rec for rec in res.records if rec.data["pm_found"] is not None]
        assert len(rows) == 8
        for rec in rows:
            G = sample_hk(12, 3, 0.8, rec.seed)
            worn = degrade_to_degree(
                G, 1, rec.data["threshold"], policy="random", seed=derived_seed(rec.seed, 1)
            )
            pm = find_perfect_matching(worn.graph)
            assert (worn.min_degree, pm.status == "perfect", pm.nodes_explored) == (
                rec.data["min_deg"], rec.data["pm_found"], rec.data["nodes"]
            )

    def test_byte_identical_reruns(self):
        a = experiment_csv(resilience_experiment(resilience_config()))
        b = experiment_csv(resilience_experiment(resilience_config()))
        assert a == b

    def test_timing_fills_seconds(self):
        res = resilience_experiment(resilience_config(trials=3, timing=True))
        for rec in res.records:
            float(rec.data["seconds"])
        float(res.summary_row[-1])

    def test_validation(self):
        with pytest.raises(SizeError):
            resilience_experiment(resilience_config(d=3))
        with pytest.raises(SizeError):
            resilience_experiment(resilience_config(n=2))


class TestInheritance:
    def test_complete_host_always_inherits(self):
        cfg = ExperimentConfig(name="inh", n=10, k=3, d=1, Q=6, host="complete", trials=5)
        res = inheritance_experiment(cfg)
        assert res.summary["mode"] == "exhaustive"
        assert res.summary["subsets"] == comb(10, 6)
        assert res.summary["frequency"] == 1.0

    def test_space_barrier_exhaustive_with_failures(self):
        cfg = ExperimentConfig(
            name="inh", n=12, k=3, d=1, Q=6, eta=0.1, host="space", master_seed=3
        )
        res = inheritance_experiment(cfg)
        assert res.summary["mode"] == "exhaustive"
        assert res.summary["subsets"] == 924
        assert 0.0 < res.summary["frequency"] < 1.0
        assert res.summary["bound_form"] == "C(Q,d) * (delta + exp(-c * eta^2 * Q))"

    def test_rows_match_direct_recount(self):
        cfg = ExperimentConfig(
            name="inh", n=12, k=3, d=1, Q=6, eta=0.1, host="space", master_seed=3
        )
        res = inheritance_experiment(cfg)
        host = space_barrier(12, 3, 1)
        mu = Fraction(min_d_degree(host, 1)[0], comb(11, 2))
        target = (mu - Fraction(1, 10) / 2) * comb(5, 2)
        assert res.summary["target"] == str(target)
        for rec in res.records[::97]:
            sub, _ = induced(host, rec.data["subset"])
            md = min_d_degree(sub, 1)[0]
            assert rec.data["min_deg"] == md
            assert rec.data["ok"] == (md >= target)

    def test_eta_zero(self):
        cfg = ExperimentConfig(name="inh", n=10, k=3, d=1, Q=5, host="complete")
        res = inheritance_experiment(cfg)
        assert res.summary["target"] == str(comb(4, 2))
        assert res.summary["frequency"] == 1.0

    def test_sampled_mode_above_the_cap(self):
        cfg = ExperimentConfig(
            name="inh", n=20, k=3, d=1, Q=10, p=0.6, host="random", trials=25, master_seed=5
        )
        res = inheritance_experiment(cfg)
        assert res.summary["mode"] == "sampled"
        assert res.summary["subsets"] == 25
        assert len(res.records) == 25
        for rec in res.records[:3]:
            assert len(rec.data["subset"]) == 10
            assert rec.seed == derived_seed(5, rec.index)
        again = inheritance_experiment(cfg)
        assert experiment_csv(again) == experiment_csv(res)

    def test_columns(self):
        cfg = ExperimentConfig(name="inh", n=10, k=3, d=1, Q=6, host="complete")
        res = inheritance_experiment(cfg)
        assert res.columns == INHERITANCE_COLUMNS
        table = parse_table(experiment_csv(res))
        assert table.rows[-1][0] == "summary"

    def test_validation(self):
        with pytest.raises(SizeError):
            inheritance_experiment(ExperimentConfig(name="x", n=10, k=3, d=1, Q=2))
        with pytest.raises(SizeError):
            inheritance_experiment(ExperimentConfig(name="x", n=10, k=3, d=1, Q=11))
        with pytest.raises(SizeError):
            inheritance_experiment(ExperimentConfig(name="x", n=10, k=3, d=3, Q=6))


class TestLoad:
    def test_empty_graph_scores_zero(self):
        rep = neighborhood_load_check(Hypergraph(10, 3, ()), 0.2, samples=10)
        assert rep.max_ratio == 0.0
        assert rep.bound == 0
        assert rep.max_count == 0

    def test_complete_host_is_analytic(self):
        n, k = 12, 3
        rep = neighborhood_load_check(Hypergraph.complete(n, k), 0.25, samples=40)
        x = rep.set_size
        assert x == 3
        assert rep.max_count == comb(n - 1, k - 1) - comb(n - 1 - x, k - 1)

    def test_every_pair_on_complete_host_is_analytic(self):
        n, k = 10, 3
        cfg = ExperimentConfig(name="load", n=n, k=k, lam=0.3, host="complete", trials=25)
        res = load_experiment(cfg)
        x = res.summary["set_size"]
        expected = comb(n - 1, k - 1) - comb(n - 1 - x, k - 1)
        for rec in res.records:
            assert rec.data["count"] == expected

    def test_random_instance_stays_under_the_line(self):
        G = sample_hk(20, 3, 0.5, 0)
        rep = neighborhood_load_check(G, 0.2, samples=10_000, seed=0)
        assert rep.pairs_checked == 10_000
        assert 0 < rep.max_ratio < 1.0

    def test_loads_walk_incidence_lists_only(self):
        G = sample_hk(16, 3, 0.5, 2)
        neighborhood_load_check(G, 0.25, samples=60, seed=9)
        assert "edge_masks" not in G.__dict__

    def test_worst_pair_is_reproducible(self):
        G = sample_hk(16, 3, 0.5, 2)
        rep = neighborhood_load_check(G, 0.25, samples=60, seed=9)
        xs = set(rep.worst_set)
        masks = G.edge_masks
        wbit = 1 << rep.worst_vertex
        xmask = sum(1 << v for v in xs)
        count = sum(1 for m in masks if m & wbit and m & xmask)
        assert count == rep.max_count
        assert rep.worst_vertex not in xs
        assert len(xs) == rep.set_size
        assert neighborhood_load_check(G, 0.25, samples=60, seed=9) == rep

    def test_experiment_rows(self):
        cfg = ExperimentConfig(name="load", n=12, k=3, p=0.5, lam=0.25, trials=8, master_seed=4)
        res = load_experiment(cfg)
        assert res.columns == LOAD_COLUMNS
        assert len(res.records) == 8
        table = parse_table(experiment_csv(res))
        assert table.rows[-1][0] == "summary"
        assert experiment_csv(load_experiment(cfg)) == experiment_csv(res)

    def test_experiment_csv_bytes_pinned(self):
        # a random host, an edgeless one (bound 0) and a complete 2-graph
        # with lam = 1; the digest predates the shared load walk
        h = sha256()
        for cfg in (
            ExperimentConfig(name="load", n=16, k=3, p=0.5, lam=0.25, trials=40, master_seed=7),
            ExperimentConfig(name="load", n=10, k=3, p=0.0, lam=0.3, trials=5, master_seed=1),
            ExperimentConfig(name="load", n=9, k=2, lam=1.0, host="complete", trials=12, master_seed=3),
        ):
            h.update(experiment_csv(load_experiment(cfg)).encode())
        assert h.hexdigest() == "937864d5a15360cba18d90c61cf906da0265af7f7fa943be8c7600de95a13745"

    def test_validation(self):
        with pytest.raises(SizeError):
            neighborhood_load_check(Hypergraph.complete(6, 1), 0.2)
        with pytest.raises(SizeError):
            neighborhood_load_check(Hypergraph.complete(6, 3), 1.2)
        with pytest.raises(SizeError):
            neighborhood_load_check(Hypergraph.complete(6, 3), 0.2, samples=0)
        # C(n-2, k-2) has no value below two vertices
        for n in (0, 1):
            with pytest.raises(SizeError, match=f"^needs at least 2 vertices, got n={n}$"):
                neighborhood_load_check(Hypergraph.complete(n, 2), 0.5, samples=3)

    def test_two_vertices_below_uniformity_load_nothing(self):
        rep = neighborhood_load_check(Hypergraph.complete(2, 3), 0.5, samples=3)
        assert (rep.max_count, rep.bound, rep.max_ratio) == (0, 0, 0.0)


class TestDispatchAndOutput:
    def test_run_experiment_dispatch(self):
        cfg = ExperimentConfig(name="x", n=10, k=3, d=1, Q=6, host="complete", trials=2)
        assert run_experiment("inheritance", cfg).summary["frequency"] == 1.0
        with pytest.raises(SizeError) as info:
            run_experiment("astrology", cfg)
        assert str(info.value) == (
            "unknown experiment 'astrology'; expected one of ('resilience', 'inheritance', 'load')"
        )

    def test_write_experiment(self, tmp_path):
        cfg = ExperimentConfig(name="x", n=10, k=3, d=1, Q=6, host="complete", trials=2)
        res = run_experiment("inheritance", cfg)
        path = tmp_path / "r.csv"
        path.write_text(experiment_csv(res), encoding="ascii")
        assert parse_table(path.read_text(encoding="ascii")).name == "x"

    def test_summary_lines_are_strings(self):
        cfg = ExperimentConfig(name="x", n=10, k=3, d=1, Q=6, host="complete", trials=2)
        lines = summary_lines(run_experiment("inheritance", cfg))
        assert any(line.startswith("frequency: ") for line in lines)
