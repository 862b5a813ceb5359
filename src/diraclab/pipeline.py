"""The absorbing-method perfect-matching pipeline.

Seven stages run in sequence, and reports are keyed by their names in
``STAGES``: ``precheck`` (k divides n), ``rich_set`` (pick a flexible set Z
that every outside vertex sees many edges into), ``template`` (build a
resilient template on Z), ``structure`` (plant it as an absorbing
structure X), ``almost_perfect`` (cover G - X blockwise, leaving a small
leftover W), ``absorb`` (match W into Z and re-match the structure without
the used flexible vertices) and ``verify`` (the independent matching
verifier gates every success). Failures come back as a staged report, not
an exception.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain, filterfalse
from math import ceil, comb, isfinite
from typing import Iterable

from .errors import DiracLabError, NotFound, SizeError, StageFailure
from .hypercore import Hypergraph, min_d_degree
from .matchpower import (
    Matching,
    _pm_within,
    blockwise_almost_perfect,
    match_into_flexible,
    verify_matching,
)
from .templates import (
    AbsorbingStructure,
    build_absorbing_structure,
    build_resilient_template,
    compact_template,
    layered_template_size,
    structure_matching_after_removal,
)
from .thresholds import _frac, conjectured_density

__all__ = [
    "PipelineParams",
    "RichSet",
    "AbsorbingSet",
    "PipelineReport",
    "choose_rich_set",
    "build_absorbing_set",
    "absorb_and_complete",
    "dirac_perfect_matching",
]

STAGES = ("precheck", "rich_set", "template", "structure", "almost_perfect", "absorb", "verify")


@dataclass(frozen=True)
class PipelineParams:
    """Run parameters with desk-scale defaults.

    The asymptotic constants behind rho and lam are not instantiated from
    any limit argument; these are workable defaults for graphs with tens of
    vertices. min_r floors the flexible set so a template exists at all.
    """

    rho: float = 0.2
    lam: float = 0.1
    min_r: int = 6
    trials: int = 64
    template_mode: str = "auto"
    template_trials: int = 200
    Q: int | None = None
    partition_attempts: int = 2
    finder_Q: int | None = None
    finder_budget: int | None = None

    def __post_init__(self):
        if self.template_mode not in ("auto", "montgomery", "compact"):
            raise SizeError(f"unknown template_mode {self.template_mode!r}")
        if not 0 < self.rho <= 1:
            raise SizeError(f"rho must lie in (0, 1], got {self.rho}")
        if not isfinite(self.lam):
            raise SizeError(f"need a finite number for lam, got {self.lam}")
        if self.lam < 0:
            raise SizeError(f"lam must be at least 0, got {self.lam}")
        floors = {"min_r": 1, "trials": 1, "template_trials": 1, "partition_attempts": 1,
                  "Q": 1, "finder_Q": 0, "finder_budget": 0}
        for name, low in floors.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise SizeError(f"{name} must be at least {low}, got {value}")

    def block_size(self, k: int) -> int:
        """The block size for uniformity k: Q, by default 2k. A Q that k does
        not divide is a SizeError."""
        if self.Q is not None and self.Q % k != 0:
            raise SizeError(f"block size {self.Q} must be divisible by k={k}")
        return self.Q if self.Q is not None else 2 * k


@dataclass(frozen=True)
class RichSet:
    """A flexible-set candidate plus the numbers that admitted it."""

    Z: tuple[int, ...]
    min_outside_degree: int | None
    threshold: Fraction
    trials_used: int


@dataclass(frozen=True)
class AbsorbingSet:
    """Vertices X the structure controls; Z within X stays flexible.

    lambda_cap bounds how many outside vertices one absorption can swallow:
    the host allowance floor(lam*n) intersected with what the template can
    lose, (k-1)|W| < r/2 flexible vertices.
    """

    structure: AbsorbingStructure
    lambda_cap: int

    @property
    def X(self) -> frozenset[int]:
        return self.structure.X

    @property
    def Z(self) -> tuple[int, ...]:
        return self.structure.Z_host


def choose_rich_set(
    G: Hypergraph,
    rho,
    trials: int = 64,
    seed: int = 0,
) -> RichSet:
    """Sample ceil(rho*n)-subsets until every outside vertex has degree at
    least (delta_hat/2)*C(|Z|-1, k-1) into the sample, where delta_hat is
    the graph's relative minimum vertex degree, read off its incidence
    lists. The comparison is exact (no floats), with a floor of one edge so
    an empty graph never qualifies. Needs k >= 2 and at least k vertices.

    A vertex v outside Z has one edge into Z for each edge whose only
    vertex outside Z is v, that is each edge with k-1 vertices in Z. An
    edge appears once in the incidence list of each of its vertices, so a
    C-level count over Z's lists, sum(|incident[z]|) items over z in Z,
    gives each edge's number of vertices in Z; a trial then visits only the
    edges with k-1 of them to credit their outside vertex. Nothing indexes
    every host edge.

    Raises NotFound("trials") carrying the best candidate's deficit.
    """
    n, k = G.n, G.k
    if k < 2:
        raise SizeError(f"a rich set needs uniformity at least 2, got k={k}")
    if n < k:
        raise SizeError(f"a rich set needs at least k={k} vertices, got n={n}")
    r = ceil(_frac(rho) * n)
    if not 0 < r <= n:
        raise SizeError(f"rho={rho} asks for {r} of {n} vertices")
    inc, edges = G.incident, G.edges
    delta_hat = Fraction(min(map(len, inc)), comb(n - 1, k - 1))
    threshold = max(delta_hat / 2 * comb(r - 1, k - 1), Fraction(1))
    rng = random.Random(seed)
    best_deficit: Fraction | None = None
    best_min: int | None = None
    for t in range(trials):
        Z = tuple(sorted(rng.sample(range(n), r)))
        in_z = frozenset(Z).__contains__
        outside = list(filterfalse(in_z, range(n)))
        if not outside:
            return RichSet(Z, None, threshold, t + 1)
        deg = [0] * n
        for i, hits in Counter(chain.from_iterable(map(inc.__getitem__, Z))).items():
            if hits == k - 1:
                deg[next(filterfalse(in_z, edges[i]))] += 1
        worst = min(map(deg.__getitem__, outside))
        if worst >= threshold:
            return RichSet(Z, worst, threshold, t + 1)
        deficit = threshold - worst
        if best_deficit is None or deficit < best_deficit:
            best_deficit, best_min = deficit, worst
    raise NotFound(
        f"no rich {r}-set in {trials} trials (best min outside degree "
        f"{best_min} vs threshold {threshold})",
        "trials",
        details={"best_min_degree": best_min, "threshold": str(threshold)},
    )


def _removal_cap(r: int, k: int) -> int:
    """Largest |W| with (k-1)|W| < r/2."""
    return ceil(Fraction(r, 2 * (k - 1))) - 1


def build_absorbing_set(
    G: Hypergraph,
    params: PipelineParams = PipelineParams(),
    seed: int = 0,
) -> AbsorbingSet:
    """Rich set, then template, then planted structure.

    template_mode "auto" uses the layered template when the host has room
    for it plus a block of slack, and the complete template on Z otherwise
    (small hosts cannot fit the lift). In the auto-compact case r is also
    nudged up so the blockwise stage on the remaining n-r vertices has no
    remainder; an explicit mode keeps r exactly as rho asks. Failures
    carry the stage name.
    """
    n, k = G.n, G.k
    r = max(params.min_r, ceil(_frac(params.rho) * n))
    mode = params.template_mode
    if mode == "auto":
        roomy = n >= layered_template_size(r, k) + params.block_size(k)
        mode = "montgomery" if roomy else "compact"
        if mode == "compact":
            r = k * ceil(r / k)
            Q = params.block_size(k)
            while (n - r) % Q != 0 and r + k <= n:
                r += k
    elif mode == "compact":
        r = k * ceil(r / k)

    try:
        rich = choose_rich_set(G, Fraction(r, n), params.trials, seed)
    except (NotFound, SizeError) as exc:
        raise StageFailure("rich_set", str(exc)) from exc

    try:
        if mode == "montgomery":
            T = build_resilient_template(
                r, k, seed=seed, trials=params.template_trials
            )
        else:
            T = compact_template(r, k)
    except (NotFound, SizeError) as exc:
        raise StageFailure("template", str(exc)) from exc

    try:
        S = build_absorbing_structure(
            G,
            T,
            rich.Z,
            Q=params.finder_Q,
            budget=params.finder_budget,
        )
    except (NotFound, SizeError) as exc:
        raise StageFailure("structure", str(exc)) from exc

    cap = min(int(_frac(params.lam) * n), _removal_cap(r, k))
    return AbsorbingSet(structure=S, lambda_cap=cap)


def absorb_and_complete(
    G: Hypergraph, A: AbsorbingSet, W: Iterable[int]
) -> Matching:
    """Swallow the leftover W: match each of its vertices with k-1 flexible
    partners, then re-match the structure without the partners used. The
    result covers exactly X union W.

    Raises SizeError when W meets X, exceeds lambda_cap or breaks
    divisibility, and StageFailure("absorb") when either half finds no
    matching; the message says which.
    """
    W = frozenset(W)
    if W & A.X:
        raise SizeError("leftover vertices must lie outside the absorbing set")
    if len(W) > A.lambda_cap:
        raise SizeError(
            f"leftover of {len(W)} exceeds the absorbing capacity {A.lambda_cap}"
        )
    if (len(A.X) + len(W)) % G.k != 0:
        raise SizeError("X plus leftover is not divisible by the uniformity")

    try:
        M1 = match_into_flexible(G, W, A.Z)
    except NotFound as exc:
        raise StageFailure(
            "absorb", f"no flexible matching for the leftover: {exc}"
        ) from exc
    used_Z = sorted(set(A.Z) & M1.covered)
    try:
        M2 = structure_matching_after_removal(A.structure, used_Z)
    except NotFound as exc:
        raise StageFailure("absorb", str(exc)) from exc
    out = Matching.from_edges(M1.edges + M2.edges)
    if out.covered != A.X | W:
        raise DiracLabError("absorption missed its target set")
    return out


@dataclass(frozen=True)
class PipelineReport:
    """Staged outcome of one pipeline run; JSON form is byte-stable."""

    status: str
    failure_stage: str | None
    n: int
    k: int
    d: int
    gamma: float
    seed: int
    params: dict
    degree_measured: int
    degree_target: str
    degree_ok: bool
    stages: dict
    counters: dict
    matching: tuple[tuple[int, ...], ...] | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def dirac_perfect_matching(
    G: Hypergraph,
    d: int,
    gamma,
    params: PipelineParams = PipelineParams(),
    seed: int = 0,
) -> PipelineReport:
    """Run the full pipeline on G and report staged outcomes.

    Never raises for a failed run and never fabricates success: a returned
    perfect matching has always passed the independent verifier. The
    minimum d-degree is compared against the conjectured density plus
    gamma and recorded, but a short graph is still attempted. Raises
    SizeError, before any stage runs, when k does not divide the block
    size ``params.Q``.
    """
    n, k = G.n, G.k
    Q = params.block_size(k)
    gamma_f = _frac(gamma)
    stages = dict.fromkeys(STAGES, "ok")
    counters: dict[str, object] = {}
    failure_stage = matching = None

    if 1 <= d < k and n >= d:
        target = (conjectured_density(d, k) + gamma_f) * comb(n - d, k - d)
        degree_measured = min_d_degree(G, d)[0]
    else:
        target = Fraction(0)
        degree_measured = -1
    degree_ok = 1 <= d < k and Fraction(degree_measured) >= target

    # Every stage raises StageFailure, caught once below. The absorb stage's
    # SizeError preconditions hold by construction: W lies outside X, its
    # size is capped at almost_perfect, and the blocks cover multiples of k.
    try:
        if n == 0 or n % k != 0:
            raise StageFailure("precheck", f"{k} does not divide {n}")
        A = build_absorbing_set(G, params, seed)
        counters["r"] = len(A.Z)
        counters["x_size"] = len(A.X)
        counters["lambda_cap"] = A.lambda_cap
        counters["template_mode"] = A.structure.template.provenance.get("layers")
        counters["template_v"] = A.structure.template.T.n
        counters["template_e"] = A.structure.template.T.edge_count()
        advisory = (gamma_f / 2) ** k * n
        counters["advisory_x_bound"] = str(advisory)
        counters["advisory_x_ok"] = Fraction(len(A.X)) <= advisory

        rest = sorted(set(range(n)) - A.X)
        block_edges: list[tuple[int, ...]] = []
        W: list[int] = []
        # with too few vertices for even one block everything is leftover,
        # and reshuffling cannot change that
        for attempt in range(params.partition_attempts if len(rest) >= Q else 1):
            if len(rest) < Q:
                block_edges, W = [], rest
                counters["blocks_total"] = 0
                counters["failed_blocks"] = 0
            else:
                rep = blockwise_almost_perfect(G, Q, seed + attempt, verts=rest)
                block_edges, W = list(rep.matching.edges), list(rep.uncovered)
                counters["blocks_total"] = rep.blocks_total
                counters["failed_blocks"] = len(rep.failed_blocks)
            # partition remainders and failed blocks together form a
            # k-divisible set; one exact attempt on it often clears the
            # leftover outright
            if 0 < len(W) <= 3 * Q and len(W) % k == 0:
                status, found, _ = _pm_within(G, W, budget=50_000)
                if status == "perfect":
                    block_edges.extend(found)
                    W = []
            if len(W) <= A.lambda_cap:
                break
        counters["retries"] = attempt
        counters["leftover"] = len(W)
        if len(W) > A.lambda_cap:
            raise StageFailure(
                "almost_perfect", f"leftover {len(W)} exceeds capacity {A.lambda_cap}"
            )

        absorbed = absorb_and_complete(G, A, W)
        total = Matching.from_edges(tuple(block_edges) + absorbed.edges)
        ok, why = verify_matching(G, total, require_perfect=True)
        if not ok:
            raise StageFailure("verify", why)
        matching = total.edges
    except StageFailure as exc:
        failure_stage = exc.stage
        failed = STAGES.index(failure_stage)
        stages.update(dict.fromkeys(STAGES[failed + 1 :], "skipped"))
        stages[failure_stage] = f"failed: {exc}"

    return PipelineReport(
        status="failure" if failure_stage else "success",
        failure_stage=failure_stage,
        n=n,
        k=k,
        d=d,
        gamma=float(gamma),
        seed=seed,
        params=asdict(params),
        degree_measured=degree_measured,
        degree_target=str(target),
        degree_ok=degree_ok,
        stages=stages,
        counters=counters,
        matching=matching,
    )
