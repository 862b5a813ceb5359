"""Absorbers and the machinery that mass-produces sparse ones.

An absorber is a small gadget whose edge set splits into two matchings: the
covering matching hits every vertex, the noncovering matching hits every
vertex except a designated root tuple. Swapping one matching for the other
toggles the roots in or out, which is how a near-perfect matching gets
finished off. This module provides the verifier, a bounded exact search,
the contractible composition with its contraction, a girth-based sparsity
test, and a pattern-driven construction that builds sparse r-absorbers from
high-girth biregular bipartite graphs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from .errors import DiracLabError, FormatError, NotFound, ShapeError, SizeError
from .hypercore import Hypergraph, berge_girth_of, derived_seed, json_int
from .matchpower import Matching, _pm_within, bipartite_matching

__all__ = [
    "BipartitePattern",
    "complete_bipartite_pattern",
    "projective_plane_pattern",
    "generalized_quadrangle_pattern",
    "peel_matchings",
    "pattern_for",
    "Absorber",
    "verify_absorber",
    "is_k_sparse",
    "find_rooted_absorber",
    "ContractibleAbsorber",
    "ContractedAbsorber",
    "assemble_contractible",
    "contract_absorber",
    "find_sparse_r_absorber",
    "absorber_record",
    "dumps_absorber",
    "parse_absorber",
]


# ---------------------------------------------------------------------------
# High-girth biregular bipartite patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BipartitePattern:
    """A regular bipartite graph whose degree and girth are read off its
    edges.

    The two sides are indexed independently: left ids run 0..left-1, right
    ids 0..right-1, and edges are (left, right) pairs in lexicographic
    order. The constructor checks the ranges, the order and regularity; the
    girth is computed on first use and kept.
    """

    left: int
    right: int
    edges: tuple[tuple[int, int], ...]
    provenance: str

    def __post_init__(self):
        if self.left < 1 or self.right < 1:
            raise ShapeError("pattern sides must be nonempty")
        prev = None
        ldeg = [0] * self.left
        rdeg = [0] * self.right
        for a, b in self.edges:
            if not (0 <= a < self.left and 0 <= b < self.right):
                raise ShapeError(f"edge ({a},{b}) out of range")
            if prev is not None and (a, b) <= prev:
                raise ShapeError("pattern edges must be strictly increasing")
            prev = (a, b)
            ldeg[a] += 1
            rdeg[b] += 1
        if len(set(ldeg) | set(rdeg)) != 1:
            raise ShapeError("pattern is not regular")

    @property
    def degree(self) -> int:
        return len(self.edges) // self.left

    @cached_property
    def girth(self) -> int | float:
        return berge_girth_of([(a, self.left + b) for a, b in self.edges])

    @classmethod
    def build(cls, left: int, right: int, edges: Iterable[tuple[int, int]], provenance: str) -> "BipartitePattern":
        es = tuple(sorted(set((a, b) for a, b in edges)))
        if not es:
            raise ShapeError("pattern needs at least one edge")
        return cls(left, right, es, provenance)


def complete_bipartite_pattern(q: int) -> BipartitePattern:
    """The complete bipartite graph on q+q vertices: q-regular, girth 4."""
    if q < 2:
        raise SizeError("complete bipartite pattern needs q >= 2")
    edges = [(a, b) for a in range(q) for b in range(q)]
    return BipartitePattern.build(q, q, edges, f"complete({q})")


def _proj_points(dim: int, p: int) -> list[tuple[int, ...]]:
    """Canonical representatives of projective points over GF(p): first
    nonzero coordinate scaled to 1, enumerated in lexicographic order."""
    return sorted(
        (0,) * lead + (1,) + tail
        for lead in range(dim)
        for tail in product(range(p), repeat=dim - lead - 1)
    )


_PATTERN_PRIMES = (2, 3, 5, 7, 11, 13)


def projective_plane_pattern(p: int) -> BipartitePattern:
    """Point-line incidence of the projective plane of prime order p.

    (p+1)-regular on p^2+p+1 points and as many lines; the incidence graph
    has girth 6 because two points span a unique line.
    """
    if p not in _PATTERN_PRIMES:
        raise SizeError(f"plane order must be a small prime, got {p}")
    pts = _proj_points(3, p)
    index = {v: i for i, v in enumerate(pts)}
    edges = []
    for li, line in enumerate(pts):
        for v, pi in index.items():
            if (line[0] * v[0] + line[1] * v[1] + line[2] * v[2]) % p == 0:
                edges.append((pi, li))
    P = BipartitePattern.build(len(pts), len(pts), edges, f"plane({p})")
    if P.degree != p + 1 or P.girth != 6:
        raise DiracLabError(f"plane({p}) has degree {P.degree} and girth {P.girth}")
    return P


def generalized_quadrangle_pattern(p: int) -> BipartitePattern:
    """Point-line incidence of the symplectic quadrangle over GF(p).

    Points are the projective points of 4-space; lines are the projective
    lines on which the alternating form x1*y2 - x2*y1 + x3*y4 - x4*y3
    vanishes identically. The incidence graph is (p+1)-regular with girth 8
    (for p=2 this is the 30-vertex cage).
    """
    if p not in _PATTERN_PRIMES:
        raise SizeError(f"quadrangle order must be a small prime, got {p}")
    pts = _proj_points(4, p)
    index = {v: i for i, v in enumerate(pts)}

    def form(u, v):
        return (u[0] * v[1] - u[1] * v[0] + u[2] * v[3] - u[3] * v[2]) % p

    def normalize(vec):
        for c in vec:
            if c % p:
                inv = pow(c % p, p - 2, p)
                return tuple(x * inv % p for x in vec)
        return None

    lines: set[frozenset[int]] = set()
    for i, u in enumerate(pts):
        for v in pts[i + 1:]:
            if form(u, v) != 0:
                continue
            members = {index[u], index[v]}
            for t in range(1, p):
                w = normalize(tuple(u[c] + t * v[c] for c in range(4)))
                members.add(index[w])
            lines.add(frozenset(members))
    ordered = sorted(lines, key=sorted)
    edges = [(pi, li) for li, line in enumerate(ordered) for pi in line]
    P = BipartitePattern.build(len(pts), len(ordered), edges, f"quadrangle({p})")
    if P.degree != p + 1 or P.girth != 8:
        raise DiracLabError(f"quadrangle({p}) has degree {P.degree} and girth {P.girth}")
    return P


def peel_matchings(P: BipartitePattern, count: int, seed: int = 0) -> BipartitePattern:
    """Delete `count` perfect matchings from a regular pattern, lowering its
    degree without lowering its girth. The matchings are found by augmenting
    paths over a seeded vertex order, so the result is reproducible."""
    if count == 0:
        return P
    if not 0 < count < P.degree:
        raise SizeError(f"can peel 1..{P.degree - 1} matchings, asked for {count}")
    if P.left != P.right:
        raise ShapeError("peeling needs equal sides")
    rng = random.Random(seed)
    remaining = set(P.edges)
    for _ in range(count):
        adj = [[] for _ in range(P.left)]
        for a, b in sorted(remaining):
            adj[a].append(b)
        for row in adj:
            rng.shuffle(row)
        order = list(range(P.left))
        rng.shuffle(order)
        partner = bipartite_matching(adj, order, frozenset())
        if partner is None:
            raise DiracLabError("regular bipartite graph lost its matching")
        for b, a in partner.items():
            remaining.remove((a, b))
    out = BipartitePattern.build(P.left, P.right, remaining, P.provenance + f"-peel{count}")
    if out.degree != P.degree - count or out.girth < P.girth:
        raise DiracLabError(
            f"peeling left degree {out.degree} and girth {out.girth}, "
            f"from degree {P.degree} and girth {P.girth}"
        )
    return out


def pattern_for(K: int, q: int, seed: int = 0) -> BipartitePattern:
    """A q-regular bipartite pattern of girth at least K from the stock
    catalog, peeled down to the requested degree when the base is bigger.

    Bipartite girths are even, so an odd K is served by the next even one.
    """
    if q < 2:
        raise SizeError("pattern degree must be at least 2")
    need = K + (K % 2)
    if need <= 4:
        return complete_bipartite_pattern(q)
    if need == 6:
        base_of = projective_plane_pattern
    elif need == 8:
        base_of = generalized_quadrangle_pattern
    else:
        raise SizeError(f"no stock pattern with girth {need}")
    p = next((p for p in _PATTERN_PRIMES if p + 1 >= q), None)
    if p is None:
        raise SizeError(f"no stock pattern of degree {q}")
    base = base_of(p)
    return peel_matchings(base, base.degree - q, seed=seed)


# ---------------------------------------------------------------------------
# Absorber types and verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Absorber:
    """Root tuple plus the two matchings whose union is the edge set.

    The roots fill r = len(roots) // k sets of size k: r is 1 for an
    absorber and more for a sparse r-absorber.
    """

    roots: tuple[int, ...]
    covering: Matching
    noncovering: Matching

    @cached_property
    def vertices(self) -> frozenset[int]:
        return self.covering.covered | self.noncovering.covered

    @property
    def order(self) -> int:
        return len(self.vertices) - len(self.roots)

    @property
    def r(self) -> int:
        edges = self.edges
        return len(self.roots) // len(edges[0]) if edges else 0

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.covering.edges) + tuple(self.noncovering.edges)


def verify_absorber(A: Absorber, host: Hypergraph | None = None) -> tuple[bool, str | None]:
    """Check the absorber invariants on a root tuple of any positive multiple
    of k entries (k from the host when one is given, else from the edges),
    and host membership when a host is given. The root count is checked
    first. Returns (ok, reason); reason is None on success."""
    if not A.covering.edges:
        return False, "covering matching is empty"
    k = host.k if host is not None else len(A.covering.edges[0])
    if not A.roots or len(A.roots) % k:
        return False, f"root count {len(A.roots)} is not a positive multiple of {k}"
    for e in A.edges:
        if len(e) != k:
            return False, f"edge {e} is not a {k}-set"
        if host is not None and not host.has_edge(e):
            return False, f"edge {e} is not a host edge"
    if len(set(A.roots)) != len(A.roots):
        return False, "repeated root"
    if set(A.covering.edges) & set(A.noncovering.edges):
        return False, "an edge appears in both matchings"
    V = A.covering.covered
    if not set(A.roots) <= V:
        return False, "some root is not covered by the covering matching"
    if A.noncovering.covered != V - set(A.roots):
        return False, "noncovering matching does not cover exactly the non-roots"
    return True, None


def is_k_sparse(A: Absorber, K: int) -> bool:
    """Whether the absorber keeps girth at least K even after the root tuple
    is added as one extra edge. A root tuple duplicating an existing edge
    counts as a 2-cycle, so the trivial absorber is never sparse for K >= 3."""
    if len(set(A.roots)) != len(A.roots):
        raise SizeError("roots must be distinct")
    extra = tuple(sorted(A.roots))
    return berge_girth_of(list(A.edges) + [extra]) >= K


# ---------------------------------------------------------------------------
# Bounded exact search for rooted absorbers
# ---------------------------------------------------------------------------

def find_rooted_absorber(
    G: Hypergraph,
    roots: Sequence[int],
    Q: int | None = None,
    forbidden: Iterable[int] = (),
    budget: int | None = None,
    min_order: int = 0,
) -> Absorber:
    """Exact search for an absorber of order at most Q on the given roots;
    Q=None, the default, caps the order at 2k.

    Orders are tried from small to large (so the first hit has minimum
    order; pass min_order to skip the degenerate low orders). Order 0 is a
    lookup of the root tuple among the host edges, charged one node. Within an
    order, covering matchings are built first, since the roots are the tight
    constraint: by the edges at the lowest uncovered root, then by the free
    edges after the last one taken, so each set of non-root edges is tried
    once. One loop walks a stack of lazy candidate frames in the depth-first
    preorder of that branching, so charges and budget stops follow it. Each
    complete covering is finished by a perfect-matching search on its
    non-root vertices, avoiding the covering edges. That search is the
    fail-first kernel that :func:`~diraclab.matchpower.find_perfect_matching`
    runs, so the noncovering matching is the first one it finds. All
    candidate edges avoid `forbidden`.

    The budget counts edges tried, in the covering enumeration and in the
    non-root searches alike (plus the one node of the order-0 lookup).
    Raises NotFound("exhausted") when the whole space is empty,
    NotFound("budget") when the budget runs out first, and SizeError for a
    negative Q or min_order.
    """
    k = G.k
    roots = tuple(roots)
    if len(roots) != k or len(set(roots)) != k:
        raise SizeError(f"roots must be {k} distinct vertices")
    if any(not 0 <= x < G.n for x in roots):
        raise SizeError("root out of range")
    forb = frozenset(forbidden)
    if forb.intersection(roots):
        raise SizeError("roots overlap the forbidden set")
    Q = 2 * k if Q is None else Q
    if Q < 0:
        raise SizeError(f"order cap must be nonnegative, got {Q}")
    if min_order < 0:
        raise SizeError(f"min_order must be nonnegative, got {min_order}")
    root_set = frozenset(roots)
    nodes = 0

    def charge(count: int) -> None:
        nonlocal nodes
        nodes += count
        if budget is not None and nodes > budget:
            raise NotFound(
                f"budget of {budget} nodes exhausted searching order <= {Q}", "budget"
            )

    def verified(A: Absorber) -> Absorber:
        ok, reason = verify_absorber(A, G)
        if not ok:
            raise DiracLabError(f"rooted search built a broken absorber: {reason}")
        return A

    # host edges avoiding `forbidden`, listed on first need: coverings that
    # stay on the roots' incidence lists never use them
    free: list[tuple[int, ...]] = []
    for order in range(min_order, Q + 1):
        if order % k:
            continue
        if order == 0:
            # the only order-0 absorber is the root tuple itself as an edge
            charge(1)
            edge = tuple(sorted(roots))
            if G.has_edge(edge):
                return verified(Absorber(roots, Matching((edge,)), Matching(())))
            continue
        a = order // k + 1
        # one frame (pool, untried positions, blocked vertices) per open node
        chosen, covered, start, stack = [], set(), 0, []
        while True:
            if len(chosen) < a:
                if root_set <= covered:
                    if not free:
                        free.extend(e for e in G.edges if forb.isdisjoint(e))
                    stack.append((free, iter(range(start, len(free))), covered))
                else:
                    pivot = min(x for x in roots if x not in covered)
                    stack.append((G.edges, iter(G.incident[pivot]), covered | forb))
            elif root_set <= covered:
                left = None if budget is None else budget - nodes + 1
                status, pm, used = _pm_within(G, covered - root_set, left, frozenset(chosen))
                # the kernel counts its root call as a node and stops at left + 1,
                # so this charge raises exactly when the kernel hit the budget
                charge(used - 1)
                if status == "perfect":
                    return verified(
                        Absorber(roots, Matching.from_edges(chosen), Matching.from_edges(pm))
                    )
            # back up to the deepest frame with an untried candidate; the top
            # frame's edge is on the path while len(chosen) equals len(stack)
            while stack:
                pool, untried, blocked = stack[-1]
                if len(chosen) == len(stack):
                    covered.difference_update(chosen.pop())
                for p in untried:
                    if blocked.isdisjoint(pool[p]):
                        break
                else:
                    stack.pop()
                    continue
                charge(1)
                chosen.append(pool[p])
                covered.update(pool[p])
                start = p + 1 if pool is free else 0
                break
            else:
                break
    raise NotFound(
        f"no absorber of order <= {Q} rooted at {roots}", "exhausted"
    )


# ---------------------------------------------------------------------------
# Contractible absorbers and contraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractibleAbsorber:
    """k disjoint rooted edges glued to k-1 interior absorbers.

    rooted_edges are ordered tuples whose first entry is the root; the j-th
    interior absorber is rooted on the j-th tails of all k rooted edges (the
    j-th "column"). `assembled` is the whole thing viewed as one absorber.
    """

    roots: tuple[int, ...]
    rooted_edges: tuple[tuple[int, ...], ...]
    subabsorbers: tuple[Absorber, ...]
    assembled: Absorber


@dataclass(frozen=True)
class ContractedAbsorber:
    """Result of collapsing each rooted edge to a single vertex.

    The new graph lives on compact ids: interior vertices first (in sorted
    original order), then the k merged root vertices in rooted-edge order.
    sub_images are the k-1 interior absorbers transported to the new ids;
    each is an absorber rooted on the merged vertices, and the graph is
    exactly their union.
    """

    graph: Hypergraph
    roots: tuple[int, ...]
    sub_images: tuple[Absorber, ...]


def assemble_contractible(
    roots: Sequence[int],
    rooted_edges: Sequence[Sequence[int]],
    subabsorbers: Sequence[Absorber],
    host: Hypergraph | None = None,
) -> ContractibleAbsorber:
    """Glue rooted edges and interior absorbers into one verified absorber.

    The covering matching of the assembly is the rooted edges plus the
    noncovering matchings of the interior absorbers; the noncovering
    matching is the union of their covering matchings. Shape violations
    raise ShapeError naming the broken constraint.
    """
    roots = tuple(roots)
    k = len(roots)
    if k < 2 or len(set(roots)) != k:
        raise ShapeError("roots must be at least 2 distinct vertices")
    redges = tuple(tuple(e) for e in rooted_edges)
    if len(redges) != k:
        raise ShapeError(f"need {k} rooted edges, got {len(redges)}")
    for i, e in enumerate(redges):
        if len(e) != k or len(set(e)) != k:
            raise ShapeError(f"rooted edge {i} is not a {k}-set")
        if e[0] != roots[i]:
            raise ShapeError(f"rooted edge {i} must start with root {roots[i]}")
    rooted_verts = [v for e in redges for v in e]
    if len(set(rooted_verts)) != k * k:
        raise ShapeError("rooted edges overlap")

    subs = tuple(subabsorbers)
    if len(subs) != k - 1:
        raise ShapeError(f"need {k - 1} interior absorbers, got {len(subs)}")
    claimed: set[int] = set(rooted_verts)
    for j, sub in enumerate(subs):
        column = tuple(redges[i][j + 1] for i in range(k))
        if sub.roots != column:
            raise ShapeError(
                f"interior absorber {j} must be rooted on column {column}, "
                f"got {sub.roots}"
            )
        ok, reason = verify_absorber(sub, host)
        if not ok:
            raise ShapeError(f"interior absorber {j} is invalid: {reason}")
        interior = sub.vertices - set(sub.roots)
        if claimed.intersection(interior):
            raise ShapeError(f"interior absorber {j} reuses vertices of another part")
        claimed.update(interior)

    cov = Matching.from_edges(
        list(redges) + [e for sub in subs for e in sub.noncovering.edges]
    )
    non = Matching.from_edges([e for sub in subs for e in sub.covering.edges])
    assembled = Absorber(roots, cov, non)
    ok, reason = verify_absorber(assembled, host)
    if not ok:
        raise ShapeError(f"assembly is not an absorber: {reason}")
    return ContractibleAbsorber(roots, redges, subs, assembled)


def contract_absorber(CA: ContractibleAbsorber) -> ContractedAbsorber:
    """Collapse each rooted edge to one vertex and transport the interior
    absorbers' edges to the new ids.

    Two interior edges that become identical after the collapse (possible
    only when two interior absorbers are single edges) raise ShapeError.
    """
    k = len(CA.roots)
    interiors = sorted(
        v for sub in CA.subabsorbers for v in sub.vertices - set(sub.roots)
    )
    vmap: dict[int, int] = {v: i for i, v in enumerate(interiors)}
    m = len(interiors)
    for i, e in enumerate(CA.rooted_edges):
        for v in e:
            vmap[v] = m + i
    new_roots = tuple(range(m, m + k))

    def image(edge: tuple[int, ...]) -> tuple[int, ...]:
        out = tuple(sorted(vmap[v] for v in edge))
        if len(set(out)) != len(edge):
            raise ShapeError(f"edge {edge} collapses onto itself")
        return out

    all_images: list[tuple[int, ...]] = []
    sub_images: list[Absorber] = []
    for sub in CA.subabsorbers:
        cov = Matching.from_edges(image(e) for e in sub.covering.edges)
        non = Matching.from_edges(image(e) for e in sub.noncovering.edges)
        sub_images.append(Absorber(new_roots, cov, non))
        all_images.extend(cov.edges)
        all_images.extend(non.edges)
    if len(set(all_images)) != len(all_images):
        raise ShapeError("contraction identifies two interior edges")

    graph = Hypergraph.from_edges(m + k, k, all_images)
    for A in sub_images:
        ok, reason = verify_absorber(A, graph)
        if not ok:
            raise DiracLabError(f"contracted interior lost the absorber property: {reason}")
    return ContractedAbsorber(
        graph=graph,
        roots=new_roots,
        sub_images=tuple(sub_images),
    )


# ---------------------------------------------------------------------------
# Pattern-driven sparse r-absorbers
# ---------------------------------------------------------------------------

def find_sparse_r_absorber(
    G: Hypergraph,
    roots: Sequence[int],
    K: int,
    q: int,
    trials: int = 40,
    seed: int = 0,
    forbidden: Iterable[int] = (),
) -> Absorber:
    """Build a K-sparse r-absorber on the given r*k roots from a high-girth
    pattern.

    The pattern's edge set splits into left-vertex stars and right-vertex
    stars (two perfect matchings of the star hypergraph). Pattern edges
    become host vertices through a random injection, except that r*k edges
    of one fixed right star map to the roots. Each left star then yields a
    block of the covering matching via a perfect matching inside its image,
    and each right star (the root-carrying one shrunk) yields a block of
    the noncovering matching. Girth transfers from the pattern because the
    injection is injective; the result is re-verified and re-checked for
    sparsity anyway.

    The pattern is peeled with the plain seed, and trial t's injection is
    drawn from ``Random(derived_seed(seed, t))``; the first success (lowest
    trial index) wins. NotFound("trials") carries per-trial diagnostics
    under ``details["failures"]``, naming the star that failed.
    """
    k = G.k
    roots = tuple(roots)
    if q % k != 0:
        raise SizeError(f"pattern degree q={q} must be divisible by k={k}")
    rk = len(roots)
    if rk == 0 or rk % k != 0:
        raise SizeError(f"root count must be a positive multiple of {k}")
    if len(set(roots)) != rk:
        raise SizeError("roots must be distinct")
    if any(not 0 <= x < G.n for x in roots):
        raise SizeError("root out of range")
    if rk > q:
        raise SizeError(f"need at most q={q} roots, got {rk}")
    forb = frozenset(forbidden)
    if forb.intersection(roots):
        raise SizeError("roots overlap the forbidden set")
    r = rk // k

    F = pattern_for(K, q, seed=seed)
    left_star = [[] for _ in range(F.left)]
    right_star = [[] for _ in range(F.right)]
    for ei, (a, b) in enumerate(F.edges):
        left_star[a].append(ei)
        right_star[b].append(ei)
    deleted = tuple(right_star[0][:rk])
    kept = [ei for ei in range(len(F.edges)) if ei not in set(deleted)]
    pool = sorted(set(range(G.n)) - set(roots) - forb)
    if len(kept) > len(pool):
        raise SizeError(
            f"host offers {len(pool)} usable vertices but the pattern needs {len(kept)}"
        )

    failures: list[dict] = []
    for t in range(trials):
        rng = random.Random(derived_seed(seed, t))
        placed = rng.sample(pool, len(kept))
        phi = dict(zip(kept, placed))
        for i, ei in enumerate(deleted):
            phi[ei] = roots[i]

        def star_matching(ids: Sequence[int]) -> list[tuple[int, ...]] | None:
            img = sorted(phi[ei] for ei in ids)
            if len(img) == k:
                return [tuple(img)] if G.has_edge(img) else None
            status, pm, _ = _pm_within(G, img)
            return pm if status == "perfect" else None

        cov_edges: list[tuple[int, ...]] = []
        non_edges: list[tuple[int, ...]] = []
        bad = None
        for a in range(F.left):
            got = star_matching(left_star[a])
            if got is None:
                bad = ("left", a)
                break
            cov_edges.extend(got)
        if bad is None:
            for b in range(F.right):
                ids = [ei for ei in right_star[b] if ei not in set(deleted)]
                if not ids:
                    continue
                got = star_matching(ids)
                if got is None:
                    bad = ("right", b)
                    break
                non_edges.extend(got)
        if bad is not None:
            failures.append({"trial": t, "star": bad})
            continue

        A = Absorber(roots, Matching.from_edges(cov_edges), Matching.from_edges(non_edges))
        ok, reason = verify_absorber(A, G)
        if ok and is_k_sparse(A, K):
            return A
        failures.append({"trial": t, "star": None, "reason": reason or "not sparse"})

    raise NotFound(
        f"no {K}-sparse {r}-absorber found in {trials} trials",
        "trials",
        details={"failures": tuple(failures)},
    )


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def absorber_record(A: Absorber) -> dict:
    """The record of an absorber. r is not written: a reader derives it
    from the roots. The ``sparsity_k`` key stays null for stable bytes."""
    return {
        "roots": list(A.roots),
        "covering": [list(e) for e in A.covering.edges],
        "noncovering": [list(e) for e in A.noncovering.edges],
        "order": A.order,
        "sparsity_k": None,
    }


def dumps_absorber(A: Absorber) -> str:
    """One JSON line per absorber; keys sorted for byte-stable output."""
    return json.dumps(absorber_record(A), sort_keys=True)


def parse_absorber(line: str) -> Absorber:
    """Read one absorber record. An ``"r"`` key, which older records carry,
    must be a JSON integer that agrees with the root count."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad absorber record: {exc}") from None
    try:
        roots = tuple(json_int(v, "root") for v in rec["roots"])
        cov = Matching.from_edges([json_int(v, "edge vertex") for v in e] for e in rec["covering"])
        non = Matching.from_edges([json_int(v, "edge vertex") for v in e] for e in rec["noncovering"])
        r = rec.get("r")
        if r is not None:
            json_int(r, "r")
    except FormatError as exc:
        raise FormatError(f"bad absorber record: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad absorber record: {exc!r}") from None
    A = Absorber(roots, cov, non)
    if r is not None and r != A.r:
        raise FormatError(f"bad absorber record: r={r} disagrees with {len(roots)} roots")
    if "order" in rec and rec["order"] != A.order:
        raise FormatError(f"recorded order {rec['order']} but edges give {A.order}")
    return A
