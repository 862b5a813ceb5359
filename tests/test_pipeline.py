"""Tests for the end-to-end perfect-matching pipeline.

Soundness is the non-negotiable here: every success report is re-checked
from scratch (edge membership, disjointness, full cover), and the
known-PM-free barrier host must never come back as a success, whatever
the seed.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import ceil, comb, inf, nan

import pytest

from conftest import seeded_subgraph

from diraclab import pipeline
from diraclab.errors import DiracLabError, FormatError, NotFound, SizeError, StageFailure
from diraclab.cli import main
from diraclab.hypercore import Hypergraph, write_khg
from diraclab.lab import parse_key_values, sample_hk
from diraclab.matchpower import Matching, find_perfect_matching, verify_matching
from diraclab.pipeline import (
    PipelineParams,
    RichSet,
    absorb_and_complete,
    build_absorbing_set,
    choose_rich_set,
    dirac_perfect_matching,
)
from diraclab.thresholds import space_barrier


def oracle_is_perfect_matching(H, edges):
    """Full PM check from plain sets, no library matching code."""
    seen = set()
    for e in edges:
        if tuple(sorted(e)) not in set(H.edges):
            return False
        for v in e:
            if v in seen:
                return False
            seen.add(v)
    return seen == set(range(H.n))


K18 = Hypergraph.complete(18, 3)


def _raise(exc):
    raise exc


# ---------------------------------------------------------------------------
# Rich set selection
# ---------------------------------------------------------------------------

class TestChooseRichSet:
    def test_complete_host_takes_the_first_sample(self):
        rich = choose_rich_set(K18, rho=Fraction(1, 3), seed=0)
        assert len(rich.Z) == 6
        assert rich.trials_used == 1
        # delta_hat = 1, so the bar is half of C(5,2)
        assert rich.threshold == Fraction(comb(5, 2), 2)
        assert rich.min_outside_degree >= rich.threshold

    def test_empty_host_not_found(self):
        empty = Hypergraph(12, 3, ())
        with pytest.raises(NotFound) as exc:
            choose_rich_set(empty, rho=0.5, trials=5, seed=0)
        assert exc.value.reason == "trials"
        assert exc.value.details["best_min_degree"] == 0

    def test_degree_condition_rechecked_directly(self):
        G = seeded_subgraph(30, 3, p=0.7, seed=2)
        rich = choose_rich_set(G, rho=0.3, seed=3)
        zset = set(rich.Z)
        worst = min(
            sum(1 for e in G.edges if v in e and set(e) - {v} <= zset)
            for v in range(30)
            if v not in zset
        )
        assert worst == rich.min_outside_degree
        assert worst >= rich.threshold

    def test_whole_vertex_set_is_vacuously_rich(self):
        rich = choose_rich_set(K18, rho=1, seed=0)
        assert rich.Z == tuple(range(18))
        assert rich.min_outside_degree is None

    def test_oversized_request_rejected(self):
        with pytest.raises(SizeError):
            choose_rich_set(K18, rho=2)

    def test_uniformity_one_rejected(self):
        with pytest.raises(SizeError):
            choose_rich_set(Hypergraph.complete(6, 1), rho=0.5)

    def test_fewer_vertices_than_uniformity_rejected(self):
        # C(n-1, k-1) is 0 there, so the relative degree has no value
        with pytest.raises(SizeError, match="^a rich set needs at least k=3 vertices, got n=2$"):
            choose_rich_set(Hypergraph(2, 3, ()), rho=0.5)

    def test_determinism(self):
        a = choose_rich_set(K18, rho=0.4, seed=9)
        b = choose_rich_set(K18, rho=0.4, seed=9)
        assert a == b


def per_vertex_rich_set(G, rho, trials, seed):
    """choose_rich_set with one degree-into-Z count per outside vertex, as
    it stood before the counts came from one pass over the edges."""

    def degree_into(v, Z):
        return sum(1 for i in G.incident[v] if all(u in Z for u in G.edges[i] if u != v))

    n, k = G.n, G.k
    r = ceil(Fraction(rho) * n)
    delta_hat = Fraction(min(map(len, G.incident)), comb(n - 1, k - 1))
    threshold = max(delta_hat / 2 * comb(r - 1, k - 1), Fraction(1))
    rng = random.Random(seed)
    best_deficit = best_min = None
    for t in range(trials):
        Z = tuple(sorted(rng.sample(range(n), r)))
        zset = frozenset(Z)
        outside = [v for v in range(n) if v not in zset]
        if not outside:
            return RichSet(Z, None, threshold, t + 1)
        worst = min(degree_into(v, zset) for v in outside)
        if worst >= threshold:
            return RichSet(Z, worst, threshold, t + 1)
        deficit = threshold - worst
        if best_deficit is None or deficit < best_deficit:
            best_deficit, best_min = deficit, worst
    return ("trials", best_min, str(threshold))


def test_rich_set_matches_per_vertex_counts():
    hosts = []
    for seed in range(24):
        n = (12, 15, 18, 21, 24, 30)[seed % 6]
        k = 4 if seed % 8 == 7 else 3
        hosts.append((seed, sample_hk(n, k, (0.15, 0.4, 0.7, 0.9)[seed % 4], seed)))
    # larger sparse hosts and a complete one
    hosts += [(seed, sample_hk(60, 3, 0.1, seed)) for seed in range(3)]
    hosts.append((5, Hypergraph.complete(30, 3)))
    found = missed = 0
    for seed, G in hosts:
        for rho in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), 1):
            ref = per_vertex_rich_set(G, rho, 8, seed)
            try:
                got = choose_rich_set(G, rho, trials=8, seed=seed)
            except NotFound as exc:
                got = (exc.reason, exc.details["best_min_degree"], exc.details["threshold"])
            assert got == ref
            found += isinstance(got, RichSet) and got.min_outside_degree is not None
            missed += isinstance(got, tuple)
    assert found >= 20 and missed >= 20


@pytest.mark.parametrize(
    "build", [lambda: Hypergraph.complete(36, 3), lambda: sample_hk(30, 3, 0.9, 0)], ids=["complete", "random"]
)
def test_pipeline_builds_no_edge_mask_index(build):
    G = build()
    rep = dirac_perfect_matching(G, 1, 0.1)
    assert rep.status == "success"
    assert "edge_masks" not in G.__dict__


# ---------------------------------------------------------------------------
# Absorbing set assembly
# ---------------------------------------------------------------------------

class TestBuildAbsorbingSet:
    def test_small_host_gets_the_compact_template(self):
        A = build_absorbing_set(K18, seed=0)
        assert A.structure.template.provenance["layers"] == "complete"
        assert len(A.Z) == 6
        assert set(A.Z) <= A.X
        assert A.lambda_cap == min(1, 1)

    def test_large_host_gets_the_layered_template(self):
        host = Hypergraph.complete(60, 3)
        A = build_absorbing_set(
            host, params=PipelineParams(rho=0.15, template_mode="montgomery"), seed=0
        )
        assert A.structure.template.provenance["layers"] == "bipartite+lift+overlay"
        assert len(A.Z) == 9
        assert len(A.X) == 49
        # host allowance floor(0.1*60)=6 loses to the template's (k-1)|W| < r/2
        assert A.lambda_cap == 2

    def test_empty_host_fails_at_rich_set(self):
        with pytest.raises(StageFailure) as exc:
            build_absorbing_set(Hypergraph(18, 3, ()), seed=0)
        assert exc.value.stage == "rich_set"

    def test_barrier_host_fails_at_structure(self):
        with pytest.raises(StageFailure) as exc:
            build_absorbing_set(space_barrier(9, 3, 1), seed=1)
        assert exc.value.stage == "structure"

    def test_params_from_mapping(self):
        aliases = {"lambda": "lam"}
        p = parse_key_values("rho = 0.3\nlambda = 0.05\nQ = 6\n", PipelineParams, aliases)
        assert p.rho == 0.3
        assert p.lam == 0.05
        assert p.Q == 6
        with pytest.raises(FormatError):
            parse_key_values("nonsense = 1\n", PipelineParams, aliases)
        with pytest.raises(SizeError):
            PipelineParams(template_mode="mystery")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("Q", 0),
            ("Q", -6),
            ("min_r", 0),
            ("trials", 0),
            ("template_trials", 0),
            ("finder_Q", -1),
            ("finder_budget", -1),
            ("rho", 0.0),
            ("rho", -0.2),
            ("rho", 1.5),
            ("lam", -0.1),
            ("lam", nan),
            ("lam", inf),
            ("partition_attempts", 0),
        ],
    )
    def test_params_reject_out_of_range(self, field, value):
        with pytest.raises(SizeError, match=field):
            PipelineParams(**{field: value})

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"rho": 1.0, "lam": 0.0, "Q": 1, "min_r": 1, "trials": 1, "template_trials": 1},
            {"finder_Q": 0, "finder_budget": 0, "partition_attempts": 1},
            {"rho": 0.15, "template_mode": "montgomery"},
            {"template_mode": "compact"},
            {"rho": 0.5, "template_mode": "compact", "Q": 12},
            {"rho": 0.3, "lam": 0.05, "Q": 6},
            {"rho": 0.5, "Q": 12},
        ],
    )
    def test_params_accept_boundaries_and_values_in_use(self, fields):
        p = PipelineParams(**fields)
        for name, value in fields.items():
            assert getattr(p, name) == value


# ---------------------------------------------------------------------------
# Absorption
# ---------------------------------------------------------------------------

class TestAbsorbAndComplete:
    def test_empty_leftover_covers_exactly_x(self):
        A = build_absorbing_set(K18, seed=0)
        M = absorb_and_complete(K18, A, ())
        assert M.covered == A.X

    def test_nonempty_leftover(self):
        host = Hypergraph.complete(60, 3)
        A = build_absorbing_set(
            host, params=PipelineParams(rho=0.15, template_mode="montgomery"), seed=0
        )
        outside = sorted(set(range(60)) - A.X)
        W = outside[:2]
        M = absorb_and_complete(host, A, W)
        assert M.covered == A.X | set(W)
        # each leftover vertex rides an edge with two flexible partners
        for w in W:
            (edge,) = [e for e in M.edges if w in e]
            assert len(set(edge) & set(A.Z)) == 2

    def test_coverage_check_raises(self, monkeypatch):
        # the post-hoc coverage check is an explicit raise, so it also runs
        # under python -O; here the re-matched structure drops an edge
        real = pipeline.structure_matching_after_removal

        def short(S, W):
            return Matching(real(S, W).edges[1:])

        monkeypatch.setattr(pipeline, "structure_matching_after_removal", short)
        A = build_absorbing_set(K18, seed=0)
        with pytest.raises(DiracLabError, match="absorption missed its target set"):
            absorb_and_complete(K18, A, ())

    def test_preconditions(self):
        host = Hypergraph.complete(60, 3)
        A = build_absorbing_set(
            host, params=PipelineParams(rho=0.15, template_mode="montgomery"), seed=0
        )
        outside = sorted(set(range(60)) - A.X)
        with pytest.raises(SizeError):
            absorb_and_complete(host, A, (min(A.X),))  # inside X
        with pytest.raises(SizeError):
            absorb_and_complete(host, A, outside[:5])  # beyond lambda_cap
        with pytest.raises(SizeError):
            absorb_and_complete(host, A, outside[:1])  # breaks divisibility

    def test_m1_failure_is_tagged(self):
        # strip every edge joining one outside vertex to two flexible ones
        host = Hypergraph.complete(60, 3)
        A = build_absorbing_set(
            host, params=PipelineParams(rho=0.15, template_mode="montgomery"), seed=0
        )
        outside = sorted(set(range(60)) - A.X)
        w0 = outside[0]
        zset = set(A.Z)
        pruned = Hypergraph.from_edges(
            60,
            3,
            [
                e
                for e in host.edges
                if not (w0 in e and len(set(e) & zset) == 2)
            ],
        )
        with pytest.raises(StageFailure) as exc:
            absorb_and_complete(pruned, A, (w0, outside[1]))
        assert exc.value.stage == "absorb"
        assert str(exc.value).startswith("no flexible matching for the leftover: ")

    def test_more_edges_never_hurt(self):
        # absorbing set built on a subgraph keeps working on any superset:
        # thin one leftover vertex's links into Z, build on the thinned
        # host, absorb there, then absorb again with the edges restored
        G_big = Hypergraph.complete(60, 3)
        params = PipelineParams(rho=0.15, template_mode="montgomery")
        probe = build_absorbing_set(G_big, params=params, seed=0)
        w0, w1 = sorted(set(range(60)) - probe.X)[:2]
        zset = set(probe.Z)
        dropped = [
            e for e in G_big.edges if w0 in e and len(set(e) & zset) == 2
        ][:10]
        G_small = Hypergraph.from_edges(
            60, 3, [e for e in G_big.edges if e not in set(dropped)]
        )
        A = build_absorbing_set(G_small, params=params, seed=0)
        assert A.X == probe.X and A.Z == probe.Z
        M_small = absorb_and_complete(G_small, A, (w0, w1))
        M_big = absorb_and_complete(G_big, A, (w0, w1))
        assert M_small.covered == M_big.covered == A.X | {w0, w1}


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

class TestDiracPerfectMatching:
    @pytest.mark.parametrize("n", [18, 24, 30])
    def test_complete_hosts_succeed(self, n):
        G = Hypergraph.complete(n, 3)
        rep = dirac_perfect_matching(G, d=2, gamma=0.2, seed=1)
        assert rep.status == "success"
        assert rep.failure_stage is None
        assert all(v == "ok" for v in rep.stages.values())
        assert rep.degree_ok
        assert oracle_is_perfect_matching(G, rep.matching)

    def test_remainder_host_succeeds_via_r_alignment(self):
        G = Hypergraph.complete(21, 3)
        rep = dirac_perfect_matching(G, d=2, gamma=0.2, seed=1)
        assert rep.status == "success"
        assert rep.counters["r"] == 9
        assert oracle_is_perfect_matching(G, rep.matching)

    def test_explicit_compact_keeps_r(self):
        # no r alignment outside auto mode; the 3-vertex partition
        # remainder is cleared by the direct leftover matching attempt
        G = Hypergraph.complete(21, 3)
        rep = dirac_perfect_matching(
            G, d=2, gamma=0.2, params=PipelineParams(template_mode="compact"), seed=1
        )
        assert rep.status == "success"
        assert rep.counters["r"] == 6
        assert oracle_is_perfect_matching(G, rep.matching)

    def test_block_size_larger_than_residual(self):
        # Q swallows the whole residual graph: no blocks form, and the
        # leftover is matched in one piece
        G = Hypergraph.complete(12, 3)
        rep = dirac_perfect_matching(
            G, d=2, gamma=0.2,
            params=PipelineParams(rho=0.5, template_mode="compact", Q=12), seed=1,
        )
        assert rep.status == "success"
        assert rep.counters["blocks_total"] == 0
        assert oracle_is_perfect_matching(G, rep.matching)

    def test_almost_perfect_failure_reported(self):
        # sparse enough that the leftover both misses the direct matching
        # attempt and exceeds the absorbing capacity
        G = seeded_subgraph(18, 3, p=0.7, seed=2)
        rep = dirac_perfect_matching(G, d=2, gamma=0.05, seed=0)
        assert rep.status == "failure"
        assert rep.failure_stage == "almost_perfect"
        assert rep.counters["leftover"] > rep.counters["lambda_cap"]
        assert rep.matching is None

    @pytest.mark.parametrize("n, template_v, leftover", [(57, 49, 2), (63, 50, 1)])
    def test_absorb_stage_takes_a_nonempty_leftover(self, monkeypatch, n, template_v, leftover):
        # the blocks leave a residue W within the capacity: the absorb stage
        # matches W into Z and re-matches the structure without the partners
        seen = {}
        real_flexible = pipeline.match_into_flexible
        real_removal = pipeline.structure_matching_after_removal

        def spy_flexible(G, W, Z):
            seen["W"] = sorted(W)
            return real_flexible(G, W, Z)

        def spy_removal(S, W):
            seen["removed"] = sorted(W)
            return real_removal(S, W)

        monkeypatch.setattr(pipeline, "match_into_flexible", spy_flexible)
        monkeypatch.setattr(pipeline, "structure_matching_after_removal", spy_removal)
        G = Hypergraph.complete(n, 3)
        params = PipelineParams(rho=0.15, template_mode="montgomery")
        rep = dirac_perfect_matching(G, 1, 0.1, params, seed=0)
        assert rep.status == "success"
        assert rep.counters["template_v"] == template_v
        assert rep.counters["leftover"] == len(seen["W"]) == leftover
        # each leftover vertex takes k - 1 flexible partners out of the structure
        assert len(seen["removed"]) == 2 * leftover
        assert verify_matching(G, Matching.from_edges(rep.matching), require_perfect=True) == (True, None)

    @pytest.mark.parametrize("seed", range(6))
    def test_barrier_never_succeeds(self, seed):
        G = space_barrier(9, 3, 1)
        assert find_perfect_matching(G).status == "none"
        rep = dirac_perfect_matching(G, d=1, gamma=0.15, seed=seed)
        assert rep.status == "failure"
        assert rep.failure_stage in rep.stages
        assert rep.stages[rep.failure_stage].startswith("failed")
        assert not rep.degree_ok

    def test_uniformity_one_fails_at_rich_set(self):
        rep = dirac_perfect_matching(Hypergraph.complete(6, 1), d=1, gamma=0.1)
        assert rep.status == "failure"
        assert rep.failure_stage == "rich_set"

    def test_divisibility_precheck(self):
        rep = dirac_perfect_matching(Hypergraph.complete(10, 3), d=2, gamma=0.2)
        assert rep.status == "failure"
        assert rep.failure_stage == "precheck"
        assert rep.stages["rich_set"] == "skipped"

    @pytest.mark.parametrize("n", [9, 30])
    def test_block_size_k_does_not_divide_is_rejected_first(self, n, monkeypatch, tmp_path, capsys):
        # blockwise_almost_perfect rejects Q=4 only once a block is cut, so
        # on K9, where none is, the run used to succeed
        def no_stage(*args, **kwargs):
            raise AssertionError("a pipeline stage ran")

        monkeypatch.setattr(pipeline, "build_absorbing_set", no_stage)
        why = "block size 4 must be divisible by k=3"
        with pytest.raises(SizeError, match=f"^{why}$"):
            dirac_perfect_matching(Hypergraph.complete(n, 3), 1, 0.1, PipelineParams(Q=4))
        write_khg(Hypergraph.complete(n, 3), tmp_path / "K.khg")
        (tmp_path / "p.cfg").write_text("Q = 4\n")
        argv = ["pipeline", "run", "--in", str(tmp_path / "K.khg"), "--d", "1", "--gamma", "0.1",
                "--params", str(tmp_path / "p.cfg")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {why}\n")

    def test_degree_shortfall_is_reported_not_fatal(self):
        G = Hypergraph.complete(18, 3)
        rep = dirac_perfect_matching(G, d=2, gamma=10)
        assert not rep.degree_ok
        assert rep.status == "success"  # completeness still carries it

    def test_report_is_byte_deterministic(self):
        a = dirac_perfect_matching(K18, d=2, gamma=0.2, seed=7).to_json()
        b = dirac_perfect_matching(K18, d=2, gamma=0.2, seed=7).to_json()
        assert a == b
        G = space_barrier(9, 3, 1)
        fa = dirac_perfect_matching(G, d=1, gamma=0.15, seed=7).to_json()
        fb = dirac_perfect_matching(G, d=1, gamma=0.15, seed=7).to_json()
        assert fa == fb

    def test_report_json_shape(self):
        rep = dirac_perfect_matching(K18, d=2, gamma=0.2, seed=1)
        data = json.loads(rep.to_json())
        assert data["status"] == "success"
        assert data["n"] == 18 and data["k"] == 3
        assert set(data["stages"]) == {
            "precheck", "rich_set", "template", "structure",
            "almost_perfect", "absorb", "verify",
        }
        assert data["counters"]["leftover"] == 0
        assert isinstance(data["matching"], list)
        assert data["params"]["rho"] == 0.2
        # advisory bound is recorded even though desk scale cannot meet it
        assert data["counters"]["advisory_x_ok"] is False

    def test_success_matching_is_in_report_edges_only(self):
        G = Hypergraph.complete(18, 3)
        rep = dirac_perfect_matching(G, d=2, gamma=0.2, seed=2)
        assert len(rep.matching) == 6
        assert all(e in set(G.edges) for e in rep.matching)

    @pytest.mark.parametrize(
        "stage, target, replacement, params, message",
        [
            (
                "template",
                "build_resilient_template",
                lambda *a, **kw: _raise(NotFound("no template here", "trials")),
                PipelineParams(template_mode="montgomery"),
                "no template here",
            ),
            (
                "absorb",
                "match_into_flexible",
                lambda *a, **kw: _raise(NotFound("nobody to match")),
                PipelineParams(),
                "no flexible matching for the leftover: nobody to match",
            ),
            (
                "verify",
                "verify_matching",
                lambda *a, **kw: (False, "vertex 3 is covered twice"),
                PipelineParams(),
                "vertex 3 is covered twice",
            ),
        ],
    )
    def test_unpinned_stage_failures_are_reported(
        self, monkeypatch, stage, target, replacement, params, message
    ):
        # no pinned host fails at these stages, so each is forced here
        monkeypatch.setattr(pipeline, target, replacement)
        rep = dirac_perfect_matching(K18, d=2, gamma=0.2, params=params, seed=1)
        failed = pipeline.STAGES.index(stage)
        assert rep.status == "failure"
        assert rep.failure_stage == stage
        assert rep.matching is None
        assert rep.stages == {
            name: "ok" if i < failed else "skipped"
            for i, name in enumerate(pipeline.STAGES)
        } | {stage: f"failed: {message}"}
        assert (rep.counters == {}) == (stage == "template")

    def test_dense_subgraph_usually_succeeds(self):
        wins = 0
        for seed in range(10):
            G = seeded_subgraph(18, 3, p=0.85, seed=100 + seed)
            rep = dirac_perfect_matching(G, d=2, gamma=0.1, seed=seed)
            if rep.status == "success":
                wins += 1
                assert oracle_is_perfect_matching(G, rep.matching)
        assert wins >= 8


# ---------------------------------------------------------------------------
# Pinned report bytes
# ---------------------------------------------------------------------------


def _digest(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(rep.to_json().encode())
    return h.hexdigest()


def test_report_bytes_pinned_on_random_and_complete_hosts():
    # 170 runs: successes, structure failures, an almost_perfect failure
    # and 32 runs whose residual is too small for one block
    def reports():
        for n in range(12, 31, 3):
            for s in range(12):
                G = sample_hk(n, 3, 0.9, seed=1000 * n + s)
                for params in (PipelineParams(), PipelineParams(Q=9, partition_attempts=3)):
                    yield dirac_perfect_matching(G, d=1, gamma=0.1, params=params, seed=s)
        for n in (36, 48):
            yield dirac_perfect_matching(Hypergraph.complete(n, 3), d=1, gamma=0.1, seed=n)

    assert _digest(reports()) == (
        "97a6e956d77a5be5171d2bb3c81e47f950138a195961636c3b14ccf493d9219a"
    )


def test_report_bytes_pinned_on_retried_hosts():
    # retried successes, a retried failure and an almost_perfect failure
    # with no block
    seeds = (101, 113, 124, 126, 128, 133, 170, 198)
    reports = (
        dirac_perfect_matching(sample_hk(24, 3, 0.9, seed=s), d=1, gamma=0.1, seed=s)
        for s in seeds
    )
    assert _digest(reports) == (
        "c662d52036b93f1b572a83e8557ec54163c3fcade7ff651db31e5177e534dd82"
    )
