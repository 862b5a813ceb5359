"""Release acceptance gate: one test per numbered criterion.

Each test prints a single ``criterion N: PASS (...)`` line once all of its
assertions hold (run with ``-s`` to see them); a criterion that fails shows
up as that test's FAILED line instead. Ground rules, same as the rest of
the suite: expected values are either recomputed here from first
principles, pinned to frozen sweep results, or checked by an independent
verifier; nothing is trusted just because the library said so.

Criteria 7, 9, and 10 produce report artifacts (CSV/JSON text). Their
builders live at module level so criterion 11 can rebuild each artifact
from scratch with the same seeds and compare the bytes.
"""

import json
import random
import time
from fractions import Fraction
from hashlib import sha256
from itertools import combinations
from math import comb

import pytest

from conftest import make_contracted

from diraclab import lab
from diraclab.absorbing import (
    Absorber,
    assemble_contractible,
    contract_absorber,
    verify_absorber,
)
from diraclab.errors import ShapeError
from diraclab.hypercore import Hypergraph, berge_girth_of, k_density
from diraclab.lab import ExperimentConfig, resilience_experiment
from diraclab.matchpower import (
    Matching,
    aharoni_haxell_holds,
    find_disjoint_representatives,
    find_perfect_matching,
    verify_matching,
)
from diraclab.pipeline import dirac_perfect_matching
from diraclab.templates import (
    build_absorbing_structure,
    build_resilient_template,
    feasible_removals,
    structure_matching_after_removal,
    verify_resilient_template,
)
from diraclab.thresholds import (
    exact_dirac_threshold,
    min_d_degree,
    parity_barrier,
    space_barrier,
)

pytestmark = pytest.mark.acceptance


def _report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS ({detail})")


# artifacts stashed by criteria 7/9/10 for the determinism recheck
_ARTIFACTS: dict[str, str] = {}


# ---------------------------------------------------------------------------
# 1. graph-case threshold by full enumeration
# ---------------------------------------------------------------------------

def test_criterion_01_graph_threshold_matches_half_n():
    t0 = time.perf_counter()
    values = {}
    for n in (4, 6):
        recs = [exact_dirac_threshold(n, 2, 1, route=r) for r in ("pruned", "unpruned")]
        assert recs[0].m_value == recs[1].m_value
        # the unpruned route must have looked at every subgraph
        assert recs[1].graphs_enumerated == 2 ** comb(n, 2)
        assert recs[0].m_value == -(-n // 2)
        values[n] = recs[0].m_value
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report(1, f"m_1(2,4)={values[4]}, m_1(2,6)={values[6]}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. exhaustive 3-uniform sweep, two implementations agreeing
# ---------------------------------------------------------------------------

def test_criterion_02_exhaustive_sweep_routes_agree():
    t0 = time.perf_counter()
    found = {}
    for d in (2, 1):
        pruned = exact_dirac_threshold(6, 3, d, route="pruned")
        unpruned = exact_dirac_threshold(6, 3, d, route="unpruned")
        assert unpruned.graphs_enumerated == 2 ** comb(6, 3)
        assert pruned.m_value == unpruned.m_value
        found[d] = pruned.m_value
    # frozen sweep results; both routes reproduced them just now
    assert found[2] == 3
    assert found[1] == 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(2, f"m_2(3,6)={found[2]}, m_1(3,6)={found[1]}, routes agree, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. barrier constructions: no perfect matching, degree ratio climbs
# ---------------------------------------------------------------------------

def test_criterion_03_barriers_block_matchings_and_ratio_climbs():
    for n, k in ((9, 3), (12, 3), (8, 4)):
        for build in (space_barrier, parity_barrier):
            res = find_perfect_matching(build(n, k, 1))
            assert res.status == "none", (build.__name__, n, k, res.status)

    ratios = []
    for n in (9, 12, 15):
        delta = min_d_degree(space_barrier(n, 3, 1), 1)[0]
        ratios.append(Fraction(delta, comb(n - 1, 2)))
    assert ratios == [Fraction(13, 28), Fraction(27, 55), Fraction(46, 91)]
    assert ratios[0] < ratios[1] < ratios[2] < Fraction(5, 9)
    _report(3, f"6 barriers PM-free, ratios {' < '.join(str(r) for r in ratios)} < 5/9")


# ---------------------------------------------------------------------------
# 4. absorber verifier vs 20 corrupted variants; assemble/contract round trip
# ---------------------------------------------------------------------------

K6 = Hypergraph.complete(6, 3)

TWO_EDGE = ((0, 1, 2), ((0, 1, 3), (2, 4, 5)), ((3, 4, 5),))
TRIVIAL = ((0, 1, 2), ((0, 1, 2),), ())


def absorber_ok_plain(roots, covering, noncovering) -> bool:
    """Absorber validity from plain sets, independent of the library."""
    cov = [tuple(sorted(e)) for e in covering]
    non = [tuple(sorted(e)) for e in noncovering]
    flat_cov = [v for e in cov for v in e]
    flat_non = [v for e in non for v in e]
    if len(set(flat_cov)) != len(flat_cov) or len(set(flat_non)) != len(flat_non):
        return False
    if set(cov) & set(non) or len(set(roots)) != len(roots):
        return False
    V = set(flat_cov) | set(flat_non)
    return set(flat_cov) == V and set(flat_non) == V - set(roots) and set(roots) <= V


def _build(roots, cov, non) -> Absorber:
    return Absorber(tuple(roots), Matching.from_edges(cov), Matching.from_edges(non))


def _twenty_corruptions():
    """20 distinct constructible mutations of the two-edge object, every one
    of them invalid per the plain-set oracle."""
    roots, cov, non = TWO_EDGE
    hand = [
        (roots, cov, ()),                               # dark edge dropped
        (roots, cov, ((2, 3, 4),)),                     # dark edge hits a root
        ((0, 1, 5), cov, non),                          # a root never covered
        (roots, ((0, 1, 2), (3, 4, 5)), ((3, 4, 5),)),  # same edge both sides
        ((0, 0, 1), cov, non),                          # repeated root
        ((0, 1), cov, non),                             # wrong root count
        (roots, (cov[0],), non),                        # covering edge dropped
    ]
    out = []
    seen = set()

    def admit(candidate) -> None:
        r, c, nn = candidate
        key = (tuple(r), tuple(sorted(c)), tuple(sorted(nn)))
        if key in seen or absorber_ok_plain(r, c, nn):
            return
        try:
            A = _build(r, c, nn)
        except ShapeError:
            return
        seen.add(key)
        out.append(A)

    for candidate in hand:
        admit(candidate)
    assert len(out) == len(hand)

    rng = random.Random(41)
    while len(out) < 20:
        c = [list(e) for e in cov]
        nn = [list(e) for e in non]
        r = list(roots)
        side = rng.choice((c, nn, r))
        if side is r:
            r[rng.randrange(3)] = rng.randrange(6)
        else:
            edge = side[rng.randrange(len(side))]
            pos = rng.randrange(3)
            swap = rng.randrange(6)
            if swap in edge:
                continue
            edge[pos] = swap
        admit((tuple(r), [tuple(sorted(e)) for e in c], [tuple(sorted(e)) for e in nn]))
    return out


def _theta(roots, base):
    a, b, c = roots
    i = list(range(base, base + 6))
    return _build(
        roots,
        [(a, i[0], i[1]), (b, i[2], i[3]), (c, i[4], i[5])],
        [(i[0], i[2], i[4]), (i[1], i[3], i[5])],
    )


def test_criterion_04_absorber_checks_and_round_trip():
    for obj in (TWO_EDGE, TRIVIAL):
        A = _build(*obj)
        assert verify_absorber(A, K6) == (True, None)
        assert absorber_ok_plain(*obj)

    corrupted = _twenty_corruptions()
    assert len(corrupted) == 20
    for A in corrupted:
        ok, reason = verify_absorber(A, K6)
        assert not ok and isinstance(reason, str)

    # two order-6 interiors on three rooted edges, then contraction
    CA = assemble_contractible(
        (0, 3, 6),
        ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
        (_theta((1, 4, 7), 9), _theta((2, 5, 8), 15)),
    )
    assert len(CA.assembled.vertices) == 21
    assert CA.assembled.order == 18
    assert verify_absorber(CA.assembled) == (True, None)

    C = contract_absorber(CA)
    assert C.graph.n == 21 - 3 * 2  # each rooted edge loses k-1 vertices
    assert C.roots == (12, 13, 14)
    for img in C.sub_images:
        assert verify_absorber(img, C.graph) == (True, None)
        assert img.roots == C.roots
    assert {e for img in C.sub_images for e in img.edges} == set(C.graph.edges)
    _report(4, "2 objects accepted, 20 corruptions rejected, round trip intact")


# ---------------------------------------------------------------------------
# 5. density ceiling over 200 contracted absorbers per sparsity level
# ---------------------------------------------------------------------------

def test_criterion_05_contracted_density_never_exceeds_ceiling():
    k = 3
    violations = []
    worst = {}
    for K in (4, 6, 8):
        ceiling = (Fraction(k * (k + 1), K * (k - 1) - k) + 2) / k
        worst[K] = Fraction(0)
        for seed in range(200):
            C = make_contracted(K, seed)
            if berge_girth_of(C.graph.edges) < K:
                violations.append(("girth", K, seed))
                continue
            val = k_density(C.graph).value
            worst[K] = max(worst[K], val)
            if val > ceiling:
                violations.append(("density", K, seed))
    assert violations == []
    peaks = ", ".join(f"K={K} max {worst[K]}" for K in (4, 6, 8))
    _report(5, f"600 absorbers within bound, 0 violations; {peaks}")


# ---------------------------------------------------------------------------
# 6. template survives every feasible removal, exhaustively
# ---------------------------------------------------------------------------

def test_criterion_06_template_resilience_exhaustive():
    t0 = time.perf_counter()
    T = build_resilient_template(6, 3, seed=0)
    rep = verify_resilient_template(T, mode="exhaustive")
    elapsed = time.perf_counter() - t0
    assert rep.ok and rep.mode == "exhaustive"
    # the sweep really covered every removal below half the flexible set
    # that keeps the vertex count divisible by 3; at k=3 exactly one size
    # in {0,1,2} passes the divisibility test, whatever v(T) is
    sizes = [j for j in range(3) if (T.T.n - j) % 3 == 0]
    assert sizes == feasible_removals(T)
    assert rep.checked == sum(comb(6, j) for j in sizes)
    # confirm the sweep's verdict independently at each feasible size
    for j in sizes:
        for W in combinations(T.Z, j):
            keep = [v for v in range(T.T.n) if v not in set(W)]
            sub = Hypergraph.from_edges(
                len(keep), 3,
                [tuple(sorted(keep.index(v) for v in e))
                 for e in T.T.edges if set(e) <= set(keep)],
            )
            assert find_perfect_matching(sub).status == "perfect"
    assert elapsed < 120
    _report(
        6,
        f"exhaustive over sizes {sizes}: {rep.checked} removal(s) survived, "
        f"{elapsed:.1f}s incl. template search",
    )


# ---------------------------------------------------------------------------
# 7. planted structure: 100 sampled removals, all repaired
# ---------------------------------------------------------------------------

STRUCTURE_COLUMNS = ("trial", "size", "removed", "edges", "ok")


def _structure_artifact() -> tuple[str, int]:
    """Build the 60-vertex structure, run 100 removals, render the CSV."""
    T = build_resilient_template(9, 3, seed=0)
    host = Hypergraph.complete(60, 3)
    S = build_absorbing_structure(host, T, embed_Z=range(49, 58))
    sizes = feasible_removals(T)
    assert sizes == [1, 4]

    rng = random.Random(7)
    rows = []
    failures = 0
    for i in range(100):
        W = tuple(sorted(rng.sample(S.Z_host, sizes[i % len(sizes)])))
        M = structure_matching_after_removal(S, W)
        covered_ok = M.covered == S.X - set(W)
        hosted_ok, _ = verify_matching(host, M)
        ok = covered_ok and hosted_ok
        failures += not ok
        rows.append((i, len(W), W, len(M.edges), ok))
    text = lab.dumps_table("structure-removals", STRUCTURE_COLUMNS, rows)
    return text, failures


def test_criterion_07_structure_survives_sampled_removals(tmp_path):
    text, failures = _structure_artifact()
    assert failures == 0
    table = lab.parse_table(text)
    assert len(table.rows) == 100
    assert all(row[-1] == "1" for row in table.rows)
    (tmp_path / "structure-removals.csv").write_text(text)
    _ARTIFACTS["structure"] = text
    _report(7, "100 removals on the 60-vertex host, 0 failures")


# ---------------------------------------------------------------------------
# 8. matching condition implies disjoint representatives, 500 instances
# ---------------------------------------------------------------------------

def test_criterion_08_condition_always_yields_representatives():
    rng = random.Random(20260815)
    holders = attempts = 0
    while holders < 500:
        attempts += 1
        assert attempts < 3000, "instance generator starved"
        t = rng.randint(1, 6)
        kp = 3 if (t <= 3 and rng.random() < 0.3) else 2
        n = kp * (kp * (t - 1) + 1) + rng.randint(0, 3)
        p = rng.uniform(0.3, 0.8)
        links = [
            Hypergraph.from_edges(
                n, kp, [e for e in combinations(range(n), kp) if rng.random() < p]
            )
            for _ in range(t)
        ]
        if not aharoni_haxell_holds(links).ok:
            continue
        holders += 1
        reps = find_disjoint_representatives(links)
        assert len(reps) == t
        used: set[int] = set()
        for i, e in enumerate(reps):
            assert links[i].has_edge(e)
            assert not used.intersection(e)
            used.update(e)
    _report(8, f"500 satisfying instances out of {attempts}, all solved")


# ---------------------------------------------------------------------------
# 9. pipeline: complete hosts always succeed, the barrier never does
# ---------------------------------------------------------------------------

def _pipeline_artifact() -> tuple[str, list, list]:
    complete_runs = []
    for n in (18, 24, 30):
        host = Hypergraph.complete(n, 3)
        for seed in range(20):
            complete_runs.append(
                (host, dirac_perfect_matching(host, d=1, gamma=0.1, seed=seed))
            )
    barrier = space_barrier(9, 3, 1)
    barrier_runs = [
        dirac_perfect_matching(barrier, d=1, gamma=0.1, seed=seed)
        for seed in range(20)
    ]
    payload = {
        "complete": [json.loads(rep.to_json()) for _, rep in complete_runs],
        "barrier": [json.loads(rep.to_json()) for rep in barrier_runs],
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return text, complete_runs, barrier_runs


def test_criterion_09_pipeline_sound_and_complete(tmp_path):
    text, complete_runs, barrier_runs = _pipeline_artifact()
    assert len(complete_runs) == 60
    for host, rep in complete_runs:
        assert rep.status == "success", (rep.n, rep.seed, rep.failure_stage)
        ok, why = verify_matching(host, Matching.from_edges(rep.matching), require_perfect=True)
        assert ok, why
    for rep in barrier_runs:
        assert rep.status != "success"
        assert rep.matching is None
    (tmp_path / "pipeline-runs.json").write_text(text)
    _ARTIFACTS["pipeline"] = text
    _report(9, "60/60 hosts matched and verified, 0/20 barrier successes")


# ---------------------------------------------------------------------------
# 10. statistical resilience run (empirical threshold, not a proof)
# ---------------------------------------------------------------------------

# sha256 of the criterion-10 CSV; degrade_to_degree's bookkeeping and the
# degree recount may change only in ways that keep these bytes
RESILIENCE_CSV_SHA256 = "fc3a79debf92275b8e9c17fdc35edd5601a9173133cff17958dd701cf12e8556"


def _resilience_artifact():
    cfg = ExperimentConfig(
        name="acceptance-resilience",
        n=12, k=3, d=2, p=0.8, gamma=0.15,
        trials=200, master_seed=0, policy="random",
    )
    result = resilience_experiment(cfg)
    return lab.experiment_csv(result), result


def test_criterion_10_resilience_frequency(tmp_path):
    t0 = time.perf_counter()
    text, result = _resilience_artifact()
    elapsed = time.perf_counter() - t0
    s = result.summary
    assert s["trials"] == 200
    assert s["pm_frequency"] is not None
    # empirical pass mark over the trials that met the degree target
    assert s["pm_frequency"] >= 0.9
    assert s["wilson_low"] is not None and s["wilson_high"] is not None
    assert elapsed < 600
    assert sha256(text.encode()).hexdigest() == RESILIENCE_CSV_SHA256
    (tmp_path / "resilience.csv").write_text(text)
    _ARTIFACTS["resilience"] = text
    _report(
        10,
        f"frequency {s['pm_frequency']:.3f} over {s['feasible']} feasible trials, "
        f"wilson [{s['wilson_low']:.3f}, {s['wilson_high']:.3f}], csv digest pinned, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 11. fixed seeds reproduce the artifacts byte for byte
# ---------------------------------------------------------------------------

def test_criterion_11_artifacts_are_byte_stable():
    builders = {
        "structure": lambda: _structure_artifact()[0],
        "pipeline": lambda: _pipeline_artifact()[0],
        "resilience": lambda: _resilience_artifact()[0],
    }
    for key, build in builders.items():
        baseline = _ARTIFACTS.get(key)
        if baseline is None:  # running standalone: build the baseline now
            baseline = build()
        rebuilt = build()
        assert rebuilt.encode() == baseline.encode(), key
    _report(11, "structure CSV, pipeline JSON, resilience CSV all byte-identical")
