"""Resilient templates and absorbing structures.

A resilient template is a small k-graph T with a flexible vertex set Z: for
any removal of fewer than |Z|/2 flexible vertices that keeps the count
divisible by k, the rest still has a perfect matching. It is assembled from
three searched-and-verified parts: a bipartite graph whose X side survives
any half-removal from its Z side, a k-partite lift turning its edges into
k-sets, and an overlay on Z with no large independent set. An absorbing
structure then plants one absorber on every template edge inside a host
graph, which lets the host toggle flexible vertices in and out of a
perfect matching.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from math import ceil, comb
from typing import Iterable, Mapping, Sequence

from .absorbing import Absorber, find_rooted_absorber
from .errors import DiracLabError, FormatError, NotFound, ShapeError, SizeError
from .hypercore import Hypergraph, derived_seed, json_int, mask_of, read_khg, read_text, write_khg, write_text
from .matchpower import Matching, SweepReport, _augment, _pm_searcher, _sweep

__all__ = [
    "BipartiteTemplate",
    "LiftResult",
    "ResilientTemplate",
    "AbsorbingStructure",
    "search_montgomery",
    "verify_montgomery",
    "lift_k_partite",
    "independent_free_overlay",
    "find_independent_set",
    "layered_template_size",
    "build_resilient_template",
    "compact_template",
    "feasible_removals",
    "verify_resilient_template",
    "build_absorbing_structure",
    "structure_matching_after_removal",
    "write_template",
    "read_template",
]


# ---------------------------------------------------------------------------
# Bipartite template with the half-removal property
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BipartiteTemplate:
    """Bipartite graph on X (3s ids, 0..3s-1) versus Y+Z (2s ids each,
    3s..5s-1 and 5s..7s-1). The property of interest: removing any s
    vertices of Z leaves an X-saturating (hence perfect) matching."""

    s: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        s = self.s
        if s < 1:
            raise ShapeError("scale must be positive")
        prev = None
        for x, w in self.edges:
            if not (0 <= x < 3 * s and 3 * s <= w < 7 * s):
                raise ShapeError(f"edge ({x},{w}) violates the side ranges")
            if prev is not None and (x, w) <= prev:
                raise ShapeError("edges must be strictly increasing")
            prev = (x, w)

    @property
    def max_degree(self) -> int:
        deg = Counter(v for e in self.edges for v in e)
        return max(deg.values(), default=0)

    @property
    def X(self) -> tuple[int, ...]:
        return tuple(range(3 * self.s))

    @property
    def Y(self) -> tuple[int, ...]:
        return tuple(range(3 * self.s, 5 * self.s))

    @property
    def Z(self) -> tuple[int, ...]:
        return tuple(range(5 * self.s, 7 * self.s))


def _adjacency(R: BipartiteTemplate) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(3 * R.s)]
    for x, w in R.edges:
        adj[x].append(w)
    return adj


_MONTGOMERY_EXHAUSTIVE_CAP = 10 ** 6


def verify_montgomery(
    R: BipartiteTemplate, mode: str = "auto", samples: int = 2000, seed: int = 0
) -> SweepReport:
    """Check that every s-removal from Z leaves an X-saturating matching.

    Exhaustive over all C(2s, s) removals while that count stays under a
    million; beyond that a seeded sample is used and the report says so.
    mode "exhaustive" or "sampled" overrides the size-based choice. Each
    removal starts from the previous removal's matching; saturation does
    not depend on the starting matching, so neither does the report.
    """
    s = R.s
    adj = _adjacency(R)
    total = comb(2 * s, s)
    if mode == "auto":
        mode = "exhaustive" if total <= _MONTGOMERY_EXHAUSTIVE_CAP else "sampled"
    # each removal unmatches only the partners of its own vertices, and only
    # those are augmented again, each path search past the removed vertices
    partner: dict[int, int] = {}
    unmatched = list(range(len(adj)))

    def saturated(D: tuple[int, ...]) -> bool:
        unmatched.extend(partner.pop(w) for w in D if w in partner)
        ok = all(_augment(adj, partner, a, set(D)) for a in unmatched)
        unmatched.clear()
        return ok

    rng = random.Random(seed)
    Z = list(R.Z)
    return _sweep(
        saturated,
        mode,
        combinations(R.Z, s),
        lambda: tuple(sorted(rng.sample(Z, s))),
        samples,
    )


def _hall_removal(R: BipartiteTemplate) -> tuple[int, ...] | None:
    """An s-removal from Z that leaves some set S of one or two X vertices
    fewer than |S| neighbours, or None. Removing min(s, |N(S) & Z|) of S's
    Z neighbours (the lowest first, topped up with the lowest other Z ids)
    leaves |N(S) & Y| + max(0, |N(S) & Z| - s). Singletons come first."""
    s = R.s
    Y = ((1 << 2 * s) - 1) << 3 * s
    nbrs = [0] * (3 * s)
    for x, w in R.edges:
        nbrs[x] |= 1 << w
    for S in chain(((x,) for x in range(3 * s)), combinations(range(3 * s), 2)):
        N = nbrs[S[0]] | nbrs[S[-1]]
        if (N & Y).bit_count() + max(0, (N & Y << 2 * s).bit_count() - s) < len(S):
            hit = [w for w in R.Z if N >> w & 1][:s]
            return tuple(sorted(hit + [w for w in R.Z if not N >> w & 1][: s - len(hit)]))
    return None


def search_montgomery(
    s: int, max_degree: int, trials: int = 200, seed: int = 0
) -> BipartiteTemplate:
    """Randomized search for a bipartite template with the half-removal
    property: each candidate is a union of max_degree random injections of
    X into Y+Z (so both sides respect the degree cap), kept only if it
    passes the verifier. A candidate with a one- or two-vertex Hall
    violation (:func:`_hall_removal`) is dropped before the sweep runs. Up
    to s = 11 the sweep is exhaustive and would fail it anyway; from s = 12
    on (C(2s, s) above a million) the sweep is sampled and may miss the
    starving removal, so there the Hall check is the stricter of the two.
    Trial t draws from ``Random(derived_seed(seed, t))``."""
    if s < 2:
        raise SizeError("scale must be at least 2")
    if max_degree < 1:
        raise SizeError("degree cap must be positive")
    right = list(range(3 * s, 7 * s))
    for t in range(trials):
        rng = random.Random(derived_seed(seed, t))
        edges: set[tuple[int, int]] = set()
        for _ in range(max_degree):
            targets = rng.sample(right, 3 * s)
            edges.update((x, targets[x]) for x in range(3 * s))
        cand = BipartiteTemplate(s, tuple(sorted(edges)))
        if _hall_removal(cand) is None and verify_montgomery(cand).ok:
            return cand
    raise NotFound(
        f"no degree-{max_degree} template at scale {s} in {trials} trials", "trials"
    )


# ---------------------------------------------------------------------------
# k-partite lift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftResult:
    """The lifted k-graph plus the bookkeeping to move between levels.

    Fresh parts sit at the bottom of the id range; every original id is
    shifted up by (k-2)*3s. edge_map pairs each lifted edge with the
    bipartite edge it came from (a bijection).
    """

    graph: Hypergraph
    parts: tuple[tuple[int, ...], ...]
    X: tuple[int, ...]
    Y: tuple[int, ...]
    Z: tuple[int, ...]
    edge_map: tuple[tuple[tuple[int, ...], tuple[int, int]], ...]


def lift_k_partite(R: BipartiteTemplate, k: int) -> LiftResult:
    """Turn bipartite edges into k-sets by threading each one through k-2
    fresh parts: the edge (x, w) picks up the copy of x in every fresh
    part. Matchings transfer both ways, one lifted edge per bipartite edge.
    """
    if k < 2:
        raise SizeError("uniformity must be at least 2")
    s = R.s
    shift = (k - 2) * 3 * s

    def lifted(x: int, w: int) -> tuple[int, ...]:
        path = [i * 3 * s + x for i in range(k - 2)]
        return tuple(sorted(path + [shift + x, shift + w]))

    pairs = tuple((lifted(x, w), (x, w)) for x, w in R.edges)
    graph = Hypergraph.from_edges(shift + 7 * s, k, [e for e, _ in pairs])
    parts = tuple(
        tuple(range(i * 3 * s, (i + 1) * 3 * s)) for i in range(k - 2)
    )
    return LiftResult(
        graph=graph,
        parts=parts,
        X=tuple(shift + v for v in R.X),
        Y=tuple(shift + v for v in R.Y),
        Z=tuple(shift + v for v in R.Z),
        edge_map=pairs,
    )


# ---------------------------------------------------------------------------
# Independent-set-free overlay
# ---------------------------------------------------------------------------

def find_independent_set(H: Hypergraph, t: int) -> tuple[int, ...] | None:
    """Exact search for t vertices spanning no edge of H; None if there is
    no such set. Include/exclude branching with a count prune, walked in
    depth-first preorder, include first: a dead node (too few vertices left)
    backs up to the last vertex taken and excludes it, so the set found is
    the first in that order."""
    if t < 0:
        raise SizeError(f"set size must be nonnegative, got {t}")
    masks = H.edge_masks
    chosen: list[int] = []
    cmask = v = 0
    while len(chosen) != t:
        if v < H.n and len(chosen) + (H.n - v) >= t:
            take = cmask | (1 << v)
            if all(m & take != m for m in masks):
                chosen.append(v)
                cmask = take
            v += 1
        elif chosen:
            cmask ^= 1 << chosen[-1]
            v = chosen.pop() + 1
        else:
            return None
    return tuple(chosen)


_OVERLAY_EXACT_CAP = 24


def independent_free_overlay(
    r: int, k: int, trials: int = 200, seed: int = 0
) -> tuple[Hypergraph, str]:
    """A k-graph on r vertices in which every ceil(r/2) vertices span an
    edge. Returns (graph, mode) where mode says how that was verified.

    When ceil(r/2) == k the only such graph is the complete one, which is
    returned outright. Otherwise trial t draws min(8r, C(r,k)) of the
    k-sets from ``Random(derived_seed(seed, t))``, until one passes; exact
    verification for r <= 24, sampled above.
    """
    if k < 2:
        raise SizeError("uniformity must be at least 2")
    t = ceil(r / 2)
    if t < k:
        raise SizeError(f"no {k}-graph on {r} vertices can hit every {t}-set")
    if t == k:
        return Hypergraph.complete(r, k), "forced-complete"
    all_sets = list(combinations(range(r), k))
    budget = min(8 * r, len(all_sets))
    exact = r <= _OVERLAY_EXACT_CAP
    for trial in range(trials):
        rng = random.Random(derived_seed(seed, trial))
        H = Hypergraph(r, k, tuple(sorted(rng.sample(all_sets, budget))))
        if exact:
            if find_independent_set(H, t) is None:
                return H, "exact"
        elif all(
            any(em & m == em for em in H.edge_masks)
            for m in (mask_of(rng.sample(range(r), t)) for _ in range(20000))
        ):
            return H, "sampled"
    raise NotFound(
        f"no independent-set-free overlay on {r} vertices in {trials} trials",
        "trials",
    )


# ---------------------------------------------------------------------------
# Resilient template
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResilientTemplate:
    """k-graph T with flexible set Z of size r; survives any small
    divisibility-respecting removal from Z. provenance records how each
    layer was built and the achieved size constant L."""

    k: int
    T: Hypergraph
    Z: tuple[int, ...]
    provenance: Mapping[str, object]

    @property
    def r(self) -> int:
        return len(self.Z)


def layered_template_size(r: int, k: int) -> int:
    """Vertex count of the layered template at flexible-set size r: the lift
    at scale s = ceil(r/2) has 3ks + s vertices, and 2s - r are trimmed."""
    s = ceil(r / 2)
    return 3 * k * s - s + r


def build_resilient_template(
    r: int, k: int, seed: int = 0, trials: int = 200
) -> ResilientTemplate:
    """Compose the three layers into a resilient template.

    The bipartite scale is s = ceil(r/2); when r is odd the highest Z id of
    the lift is dropped (it sits at the top of the id range, so no other id
    moves). The bipartite search climbs the degree caps 4, 5, ..., 10 and
    keeps the first that succeeds. The overlay, min(8r, C(r,k)) random
    k-sets (see :func:`independent_free_overlay`), lands on the surviving
    Z ids.
    """
    if r < 6:
        raise SizeError("template needs r >= 6")
    if k < 2:
        raise SizeError("uniformity must be at least 2")
    s = ceil(r / 2)
    caps = range(4, 11)
    for used_cap in caps:
        try:
            R = search_montgomery(s, used_cap, trials=trials, seed=seed)
            break
        except NotFound:
            continue
    else:
        raise NotFound(
            f"no bipartite template at scale {s} for caps {list(caps)}", "trials"
        )
    lift = lift_k_partite(R, k)
    trim = 2 * s - r
    n_T = layered_template_size(r, k)
    kept = [e for e in lift.graph.edges if all(v < n_T for v in e)]
    Z_ids = tuple(lift.Z[:r])
    overlay, overlay_mode = independent_free_overlay(r, k, trials=trials, seed=seed)
    overlay_edges = [
        tuple(sorted(Z_ids[v] for v in e)) for e in overlay.edges
    ]
    T = Hypergraph.from_edges(n_T, k, kept + overlay_edges)
    L = ceil(max(T.n, T.edge_count()) / r)
    provenance = {
        "layers": "bipartite+lift+overlay",
        "s": s,
        "degree_cap": used_cap,
        "trimmed": trim,
        "overlay_mode": overlay_mode,
        "overlay_edges": len(overlay_edges),
        "v": T.n,
        "e": T.edge_count(),
        "L": L,
        "seed": seed,
    }
    return ResilientTemplate(k=k, T=T, Z=Z_ids, provenance=provenance)


def compact_template(r: int, k: int) -> ResilientTemplate:
    """The complete k-graph on r vertices viewed as a template. Every
    divisibility-respecting removal leaves a complete graph, so resilience
    is immediate; used when a host is too small to hold the lifted build."""
    if r < k or r % k:
        raise SizeError(f"compact template needs k | r, got r={r}, k={k}")
    T = Hypergraph.complete(r, k)
    provenance = {
        "layers": "complete",
        "v": T.n,
        "e": T.edge_count(),
        "L": ceil(max(T.n, T.edge_count()) / r),
    }
    return ResilientTemplate(k=k, T=T, Z=tuple(range(r)), provenance=provenance)


_TEMPLATE_EXHAUSTIVE_CAP = 10 ** 5


def feasible_removals(T: ResilientTemplate) -> list[int]:
    """Removal sizes the resilience guarantee covers: |W| < r/2 with the
    vertex count staying divisible by k."""
    r = T.r
    return [j for j in range(r) if 2 * j < r and (T.T.n - j) % T.k == 0]


def verify_resilient_template(
    T: ResilientTemplate, mode: str = "auto", samples: int = 500, seed: int = 0
) -> SweepReport:
    """Sweep removals W from Z and demand a perfect matching every time.

    mode "exhaustive" forces the full sweep, "sampled" forces sampling,
    "auto" goes exhaustive while the sweep size stays under 10^5. With no
    feasible removal size either mode reports ok after 0 removals.
    """
    if any(not 0 <= z < T.T.n for z in T.Z):
        raise SizeError("flexible set reaches outside the template's vertices")
    sizes = feasible_removals(T)
    total = sum(comb(T.r, j) for j in sizes)
    if mode == "auto":
        mode = "exhaustive" if total <= _TEMPLATE_EXHAUSTIVE_CAP else "sampled"
    if not sizes:
        return _sweep(bool, mode, (), None, samples)
    # Search T itself with W already covered: the same branching as on the
    # induced copy, whose relabelling keeps the vertex and edge order. One
    # searcher, set up once, and one dead-state memo serve every removal,
    # since a dead mask says nothing about which part of it was W.
    search = _pm_searcher(T.T.edges, T.T.n)
    dead: set[int] = set()
    rng = random.Random(seed)
    Z = list(T.Z)
    return _sweep(
        lambda W: search(mask_of(W), dead)[0] == "perfect",
        mode,
        (W for j in sizes for W in combinations(T.Z, j)),
        lambda: tuple(sorted(rng.sample(Z, rng.choice(sizes)))),
        samples,
    )


# ---------------------------------------------------------------------------
# Absorbing structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsorbingStructure:
    """One absorber per template edge, planted inside a host graph.

    vertex_map sends template ids to host ids; placements are keyed by the
    template edge (template ids). Absorbers share host vertices only where
    their template edges share vertices.
    """

    template: ResilientTemplate
    placements: tuple[tuple[tuple[int, ...], Absorber], ...]
    host: Hypergraph
    X: frozenset[int]
    vertex_map: tuple[tuple[int, int], ...]

    @property
    def Z_host(self) -> tuple[int, ...]:
        vmap = dict(self.vertex_map)
        return tuple(sorted(vmap[z] for z in self.template.Z))


def build_absorbing_structure(
    host: Hypergraph,
    T: ResilientTemplate,
    embed_Z: Sequence[int],
    Q: int | None = None,
    budget: int | None = None,
    min_order: int = 0,
) -> AbsorbingStructure:
    """Embed the template into the host and put an absorber on every edge.

    Z lands on the caller's rich set (sorted template Z to sorted embed_Z);
    the other template vertices take the lowest unused host ids. Template
    edges are processed in lexicographic order, each absorber forbidden
    from touching anything already used except its own roots. Q (None: 2k),
    budget and min_order go to every :func:`find_rooted_absorber` call.

    Raises SizeError when embed_Z does not fit the template or the host is
    too small for it, and NotFound when some template edge gets no
    absorber: the finder's reason ("exhausted" or "budget") is kept, and
    ``details["template_edge"]`` names the edge in template ids.
    """
    embed_Z = tuple(sorted(embed_Z))
    if len(embed_Z) != T.r:
        raise SizeError(f"need {T.r} rich vertices, got {len(embed_Z)}")
    if len(set(embed_Z)) != len(embed_Z):
        raise SizeError("rich set has repeats")
    if any(not 0 <= v < host.n for v in embed_Z):
        raise SizeError("rich vertex outside the host")

    vmap: dict[int, int] = dict(zip(sorted(T.Z), embed_Z))
    fresh = (v for v in range(host.n) if v not in set(embed_Z))
    for v in range(T.T.n):
        if v not in vmap:
            try:
                vmap[v] = next(fresh)
            except StopIteration:
                raise SizeError("host too small for the template") from None

    used: set[int] = set(vmap.values())
    placements: list[tuple[tuple[int, ...], Absorber]] = []
    for edge in T.T.edges:
        roots = tuple(sorted(vmap[v] for v in edge))
        try:
            A = find_rooted_absorber(
                host, roots, Q, used - set(roots), budget=budget, min_order=min_order
            )
        except NotFound as exc:
            raise NotFound(
                f"no absorber for template edge {edge} on roots {roots}: {exc}",
                exc.reason,
                details={"template_edge": edge},
            ) from None
        used.update(A.vertices)
        placements.append((edge, A))
    return AbsorbingStructure(
        template=T,
        placements=tuple(placements),
        host=host,
        X=frozenset(used),
        vertex_map=tuple(sorted(vmap.items())),
    )


def structure_matching_after_removal(
    S: AbsorbingStructure, W_removed: Iterable[int]
) -> Matching:
    """Matching covering exactly the structure minus the removed flexible
    vertices: find a perfect matching of the template without them, then
    take covering matchings on its edges and noncovering matchings on the
    rest. Raises SizeError for a removal the guarantee does not cover (a
    size outside :func:`feasible_removals`), and NotFound("exhausted") when
    the template has no perfect matching without the removed vertices; the
    search has no budget.
    """
    W = frozenset(W_removed)
    vmap = dict(S.vertex_map)
    back = {h: t for t, h in vmap.items()}
    Zh = set(S.Z_host)
    if not W <= Zh:
        raise SizeError("removed vertices must come from the flexible set")
    T = S.template
    sizes = feasible_removals(T)
    if len(W) not in sizes:
        raise SizeError(f"cannot remove {len(W)} flexible vertices: the feasible sizes are {sizes}")

    # T itself with the removed vertices covered at the start: the same
    # branching as on an induced copy of T - W, as in verify_resilient_template
    G = T.T
    W_mask = mask_of(back[h] for h in W)
    status, picked, _ = _pm_searcher(G.edges, G.n)(W_mask, set())
    if status != "perfect":
        raise NotFound(
            f"template lost its matching after removing {tuple(sorted(W))}", "exhausted"
        )
    in_matching = {G.edges[i] for i in picked}
    pieces: list[tuple[int, ...]] = []
    for edge, A in S.placements:
        chosen = A.covering if edge in in_matching else A.noncovering
        pieces.extend(chosen.edges)
    out = Matching.from_edges(pieces)
    if out.covered != S.X - W:
        raise DiracLabError("structure matching missed its target set")
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_template(T: ResilientTemplate, path) -> None:
    """The k-graph goes to `path` in the text format; Z, provenance and the
    uniformity go to a JSON sidecar at `path`.json."""
    write_khg(T.T, path, comment="resilient template")
    sidecar = {
        "k": T.k,
        "Z": list(T.Z),
        "provenance": dict(T.provenance),
    }
    write_text(f"{path}.json", json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def read_template(path) -> ResilientTemplate:
    graph = read_khg(path)
    try:
        sidecar = json.loads(read_text(f"{path}.json"))
        k = json_int(sidecar["k"], "k")
        Z = tuple(json_int(z, "Z id") for z in sidecar["Z"])
        provenance = dict(sidecar["provenance"])
    except FormatError as exc:
        raise FormatError(f"bad template sidecar for {path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad template sidecar for {path}: {exc!r}") from None
    if k != graph.k:
        raise FormatError(f"sidecar says k={k} but graph is {graph.k}-uniform")
    if any(not 0 <= z < graph.n for z in Z):
        raise FormatError("sidecar Z outside the graph")
    return ResilientTemplate(k=k, T=graph, Z=Z, provenance=provenance)
