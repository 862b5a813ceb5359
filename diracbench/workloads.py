"""The four workloads: inputs made from a seed, operations, and their checks.

Each workload is a function from the workload seed to a list of operations.
An operation's ``inputs`` builds fresh host objects just before it runs, so
lazily cached host properties (edge masks, incidence lists, edge sets) are
paid inside the operation, as a command-line user pays them, and no more than
one operation's hosts are alive at a time. Operations call diraclab through
module attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from hashlib import sha256
from math import ceil, comb
from typing import Callable

import checks
from diraclab import absorbing, hypercore, lab, matchpower, pipeline, templates, thresholds
from diraclab.hypercore import Hypergraph


@dataclass
class Op:
    """One operation: ``run(*inputs())`` returns plain data for ``check``,
    which gives None or a reason; ``failed`` says whether the output counts
    as failed. ``inputs`` is timed as set-up, ``run`` as the operation."""

    label: str
    run: Callable[..., object]
    check: Callable[[object], str | None]
    inputs: Callable[[], tuple] = tuple
    failed: Callable[[object], bool] = lambda out: False
    timed: bool = True


def sub_seed(seed, *parts) -> int:
    """A 32-bit seed for one input, from the workload seed and a label."""
    text = ":".join(str(x) for x in (seed,) + parts)
    return int.from_bytes(sha256(text.encode("ascii")).digest()[:4], "big")


def conjectured_density(d, k):
    return max(Fraction(1, 2), 1 - Fraction(k - 1, k) ** (k - d))


def _complete(n):
    return (Hypergraph.complete(n, 3),)


def _complete_is_edge(n, k):
    return lambda e: len(set(e)) == k and all(0 <= v < n for v in e)


def _absorber_parts(A):
    return A.roots, A.covering.edges, A.noncovering.edges


# ---------------------------------------------------------------------------
# exact: threshold sweeps and perfect-matching proofs on barriers
# ---------------------------------------------------------------------------

SWEEPS = ((6, 3, 2), (6, 3, 1))
# k=4 stops at n=12: the n=16 proofs take 230k and 300k nodes (3-6 s), which
# would stretch a round to 11-16 s and leave a run too few rounds to time
# each operation more than twice
PROVEN_BARRIERS = ((3, (6, 9, 12, 15)), (4, (8, 12)))
# n=18 barriers: the search keeps no memo of dead covered sets and cannot
# settle them, so they run under a fixed budget and count as failed until
# it can; their inputs do not depend on the seed
UNSETTLED_N = 18
UNSETTLED_BUDGET = 200_000


def _sweep(n, k, d, route):
    rec = thresholds.exact_dirac_threshold(n, k, d, route=route)
    return {"m": rec.m_value, "witness": rec.extremal_witness.edges,
            "enumerated": rec.graphs_enumerated}


def _check_sweep(n, k, d, seen, out):
    witness, m = out["witness"], out["m"]
    if out["enumerated"] != 2 ** comb(n, k):
        return f"sweep enumerated {out['enumerated']} graphs"
    if checks.decide_perfect_matching(n, k, witness) is not None:
        return "threshold witness has a perfect matching"
    low = checks.min_degree(n, witness, d)
    if low != m - 1:
        return f"witness minimum {d}-degree {low}, threshold {m}"
    best = checks.best_barrier_degree(n, k, d)
    if m < 1 + best:
        return f"threshold {m} is below 1 + barrier degree {best}"
    if seen.setdefault((n, k, d), m) != m:
        return "the two routes disagree"
    return None


def _permutation(seed, kind, n, k):
    perm = list(range(n))
    random.Random(sub_seed(seed, "perm", kind, n, k)).shuffle(perm)
    return (perm,)


def _barrier_proof(kind, n, k, budget, perm):
    build = thresholds.space_barrier if kind == "space" else thresholds.parity_barrier
    B = build(n, k, 1)
    H = B
    if perm is not None:
        H = Hypergraph.from_edges(n, k, ([perm[v] for v in e] for e in B.edges))
    res = matchpower.find_perfect_matching(H, budget=budget)
    return {"built": B.edges, "searched": H.edges, "perm": perm, "status": res.status,
            "matching": res.matching.edges}


def _check_barrier(kind, n, k, budget, out):
    certify = checks.check_space_certificate if kind == "space" else checks.check_parity_certificate
    reason = certify(n, k, out["built"])
    if reason:
        return f"{kind} barrier certificate: {reason}"
    perm = out["perm"]
    if perm is not None:
        relabeled = {tuple(sorted(perm[v] for v in e)) for e in out["built"]}
        if relabeled != set(out["searched"]):
            return "searched graph is not the relabeled barrier"
    status = out["status"]
    if status == "perfect" or (status == "partial" and budget is None):
        return f"search on a matching-free barrier returned {status}"
    return checks.check_matching(n, out["searched"], out["matching"])


def exact_ops(seed):
    ops = []
    seen = {}  # threshold per (n, k, d): the two routes must agree
    for n, k, d in SWEEPS:
        for route in ("pruned", "unpruned"):
            ops.append(Op(f"sweep n={n} k={k} d={d} {route}",
                          partial(_sweep, n, k, d, route), partial(_check_sweep, n, k, d, seen)))
    for k, ns in PROVEN_BARRIERS:
        for n in ns:
            for kind in ("space", "parity"):
                ops.append(Op(f"{kind} barrier n={n} k={k}",
                              partial(_barrier_proof, kind, n, k, None),
                              partial(_check_barrier, kind, n, k, None),
                              inputs=partial(_permutation, seed, kind, n, k)))
    for kind in ("space", "parity"):
        ops.append(Op(f"{kind} barrier n={UNSETTLED_N} k=3 budget={UNSETTLED_BUDGET}",
                      partial(_barrier_proof, kind, UNSETTLED_N, 3, UNSETTLED_BUDGET, None),
                      partial(_check_barrier, kind, UNSETTLED_N, 3, UNSETTLED_BUDGET),
                      failed=lambda out: out["status"] != "none"))
    return ops


# ---------------------------------------------------------------------------
# pipeline: whole-host scans on complete hosts, absorber search on random ones
# ---------------------------------------------------------------------------

COMPLETE_NS = (36, 48, 60)
HOST_P = 0.9
GAMMA = 0.1
# degree-qualified binomial hosts, (n, host seeds). They are fixed because
# the pipeline fails on a few hosts in a few hundred (FOUND in CHANGES.md),
# and a failure that depends on the workload seed would change the failed
# share between runs. Seeds 4 at n=24 and 3 at n=30 need a second partition
# attempt. The counts put the median operation inside the n=30 block.
RANDOM_HOSTS = ((24, range(8)), (30, range(12)))
# untimed probes that fail every time, counted as failed: (n, host seed,
# failing stage). At n=36 the auto template choice never picks the layered
# template below n=2000 at k=3, and the compact one needs C(12,3) disjoint
# absorbers, so placement fails. On n=24 host 297 the leftover is 3 after
# both partition attempts, above lambda_cap=1.
PROBES = ((36, 0, "structure"), (36, 1, "structure"), (24, 297, "almost_perfect"))


def _qualified_host(n, p, seed, d=1, k=3):
    """First binomial host from the seed's stream that meets the pipeline's
    degree target (conjectured density + gamma) at d."""
    target = (conjectured_density(d, k) + Fraction(str(GAMMA))) * comb(n - d, k - d)
    for i in range(100):
        G = lab.sample_hk(n, k, p, sub_seed(seed, "host", i))
        if checks.min_degree(n, G.edges, d) >= target:
            return (G,)
    raise RuntimeError(f"no degree-qualified host at n={n}, p={p}")


def _fixed_host(n, s):
    return _qualified_host(n, HOST_P, sub_seed(s, "fixed-host"))


def _pipeline_run(host, seed):
    rep = pipeline.dirac_perfect_matching(host, d=1, gamma=GAMMA, seed=seed)
    return {"n": host.n, "host": host.edges, "status": rep.status,
            "stage": rep.failure_stage, "matching": rep.matching}


def _check_pipeline(must_fail, out):
    if out["status"] == "success":
        if must_fail:
            return "the pipeline matched a barrier"
        return checks.check_matching(out["n"], out["host"], out["matching"], perfect=True)
    if out["matching"] is not None:
        return "a failed run returned a matching"
    return None


def _check_probe(stage, out):
    if out["status"] != "success" and out["stage"] != stage:
        return f"probe failed at {out['stage']}, its fault is at {stage}"
    return _check_pipeline(False, out)


def _pipeline_failed(out):
    return out["status"] != "success"


def pipeline_ops(seed):
    ops = []
    for n in COMPLETE_NS:
        ops.append(Op(f"pipeline complete n={n}",
                      partial(_pipeline_run, seed=sub_seed(seed, "complete", n)),
                      partial(_check_pipeline, False),
                      inputs=partial(_complete, n), failed=_pipeline_failed))
    for n, host_seeds in RANDOM_HOSTS:
        for s in host_seeds:
            ops.append(Op(f"pipeline random n={n} host={s}",
                          partial(_pipeline_run, seed=s), partial(_check_pipeline, False),
                          inputs=partial(_fixed_host, n, s), failed=_pipeline_failed))
    ops.append(Op("pipeline space barrier n=9",
                  partial(_pipeline_run, seed=sub_seed(seed, "barrier")),
                  partial(_check_pipeline, True),
                  inputs=lambda: (Hypergraph(9, 3, tuple(checks.space_barrier_edges(9, 3))),)))
    for n, s, stage in PROBES:
        ops.append(Op(f"probe pipeline random n={n} host={s}",
                      partial(_pipeline_run, seed=s), partial(_check_probe, stage),
                      inputs=partial(_fixed_host, n, s), failed=_pipeline_failed, timed=False))
    return ops


# ---------------------------------------------------------------------------
# gadgets: contracted absorbers (girth, k-density) and resilient templates
# ---------------------------------------------------------------------------

# (K, absorbers per round); interior sizes per K at k=3, pattern degree 3
CONTRACTED = ((4, 12), (6, 12), (8, 6))
INTERIOR = {4: 6, 6: 18, 8: 42}
TEMPLATE_RS = (9, 10, 11, 12)
# template build and verification cost swings threefold between seeds at
# r=11, which would drown every other change; the template seeds are fixed
TEMPLATE_SEEDS = (0, 1)
ROOTED = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
COLUMNS = ((1, 4, 7), (2, 5, 8))


def _contracted(host, K, seed):
    """Two pattern-built interior absorbers on the columns of three rooted
    edges, assembled and contracted; then its girth and exact k-density."""
    base = set(range(9))
    col1, col2 = COLUMNS
    sub1 = absorbing.find_sparse_r_absorber(
        host, col1, K, q=3, seed=2 * seed, forbidden=base - set(col1))
    sub2 = absorbing.find_sparse_r_absorber(
        host, col2, K, q=3, seed=2 * seed + 1,
        forbidden=(base - set(col2)) | (sub1.vertices - set(col1)))
    CA = absorbing.assemble_contractible((0, 3, 6), ROOTED, (sub1, sub2), host)
    C = absorbing.contract_absorber(CA)
    girth = hypercore.berge_girth_of(C.graph.edges)
    dens = hypercore.k_density(C.graph)
    return {"host_n": host.n, "graph": C.graph.edges,
            "subs": [_absorber_parts(sub1), _absorber_parts(sub2)],
            "images": [_absorber_parts(A) for A in C.sub_images],
            "girth": girth, "density": dens.value, "witness": dens.witness}


def _check_contracted(K, out):
    graph = out["graph"]
    if out["girth"] < K:
        return f"girth {out['girth']} below K={K}"
    reason = checks.check_linear(graph)
    if reason:
        return reason
    reason = checks.check_density(graph, 3, K, out["density"], out["witness"])
    if reason:
        return reason
    is_host_edge = _complete_is_edge(out["host_n"], 3)
    for col, (roots, cov, non) in zip(COLUMNS, out["subs"]):
        if tuple(roots) != col:
            return f"interior absorber rooted on {roots}, wanted {col}"
        reason = checks.check_absorber(roots, cov, non, is_host_edge)
        if reason:
            return f"interior absorber: {reason}"
    edges = set(graph)
    covered = set()
    for roots, cov, non in out["images"]:
        reason = checks.check_absorber(roots, cov, non, edges.__contains__)
        if reason:
            return f"contracted interior: {reason}"
        covered.update(cov)
        covered.update(non)
    if covered != edges:
        return "contracted graph is not the union of its interiors"
    return None


def _template(r, seed):
    T = templates.build_resilient_template(r, 3, seed=seed)
    rep = templates.verify_resilient_template(T, mode="exhaustive")
    return {"r": r, "n": T.T.n, "Z": T.Z, "ok": rep.ok, "mode": rep.mode,
            "checked": rep.checked}


def _check_template(out):
    r, n, Z = out["r"], out["n"], out["Z"]
    if len(set(Z)) != r or not all(0 <= z < n for z in Z):
        return f"flexible set {Z} is not {r} template vertices"
    if not out["ok"] or out["mode"] != "exhaustive":
        return f"template verification: ok={out['ok']} mode={out['mode']}"
    want = sum(comb(r, j) for j in range(r) if 2 * j < r and (n - j) % 3 == 0)
    if out["checked"] != want:
        return f"verified {out['checked']} removals, the sizes allow {want}"
    return None


def gadgets_ops(seed):
    ops = [Op(f"contracted K={K} #{j}",
              partial(_contracted, K=K, seed=sub_seed(seed, "contract", K, j)),
              partial(_check_contracted, K), inputs=partial(_complete, 9 + 2 * INTERIOR[K]))
           for K, count in CONTRACTED for j in range(count)]
    ops += [Op(f"template r={r} seed={t}", partial(_template, r, t), _check_template)
            for r in TEMPLATE_RS for t in TEMPLATE_SEEDS]
    return ops


# ---------------------------------------------------------------------------
# resilience: sample, degrade to the degree threshold, search for a matching
# ---------------------------------------------------------------------------

RES_NS = (15, 18, 21)
RES_DS = (1, 2)
RES_TRIALS = 4
RES_P = Fraction(4, 5)
RES_GAMMA = 0


def _resilience_trial(n, d, threshold, seed):
    G = lab.sample_hk(n, 3, float(RES_P), seed)
    low, _ = hypercore.min_d_degree(G, d)
    out = {"n": n, "d": d, "threshold": threshold, "host": G.edges, "low": low}
    if low < threshold:
        out["feasible"] = False
        return out
    worn = lab.degrade_to_degree(G, d, threshold, policy="random", seed=seed)
    res = matchpower.find_perfect_matching(worn.graph)
    out.update(feasible=True, survivor=worn.graph.edges, deleted=worn.deleted,
               reported_min=worn.min_degree, status=res.status,
               matching=res.matching.edges)
    return out


def _check_resilience(out):
    n, d, threshold, host = out["n"], out["d"], out["threshold"], out["host"]
    low = checks.min_degree(n, host, d)
    if low != out["low"]:
        return f"host minimum {d}-degree recounts to {low}, reported {out['low']}"
    if not out["feasible"]:
        return None
    survivor = out["survivor"]
    reason = checks.check_degradation(n, host, survivor, d, threshold)
    if reason:
        return reason
    if sorted(set(survivor) | set(out["deleted"])) != sorted(host) or \
            len(survivor) + len(out["deleted"]) != len(host):
        return "deleted and surviving edges do not split the host"
    if checks.min_degree(n, survivor, d) != out["reported_min"]:
        return "reported minimum degree of the survivor is wrong"
    if out["status"] == "perfect":
        return checks.check_matching(n, survivor, out["matching"], perfect=True)
    if out["status"] == "none":
        if checks.decide_perfect_matching(n, 3, survivor) is not None:
            return "search said none, but the survivor has a perfect matching"
        return None
    return f"unbudgeted search returned {out['status']}"


def resilience_ops(seed):
    ops = []
    for n in RES_NS:
        for d in RES_DS:
            dens = conjectured_density(d, 3) + RES_GAMMA
            threshold = max(ceil(dens * RES_P * comb(n - d, 3 - d)), 1)
            ops += [Op(f"resilience n={n} d={d} #{t}",
                       partial(_resilience_trial, n, d, threshold,
                               sub_seed(seed, "trial", n, d, t)),
                       _check_resilience)
                    for t in range(RES_TRIALS)]
    return ops


WORKLOADS = {
    "exact": exact_ops,
    "pipeline": pipeline_ops,
    "gadgets": gadgets_ops,
    "resilience": resilience_ops,
}
