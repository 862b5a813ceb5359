"""Matching engines: exact perfect-matching search, the set-family matching
condition with disjoint representatives, matching a small set into a flexible
set, and the block-partition almost-perfect procedure.

All searches are deterministic: branching follows canonical (lexicographic)
orders, and randomness only enters through explicit seeds. Budgets count
search nodes, never wall-clock time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import FormatError, NotFound, ShapeError, SizeError
from .hypercore import Hypergraph, mask_of, write_text

__all__ = [
    "Matching",
    "MatchResult",
    "SweepReport",
    "BlockReport",
    "find_perfect_matching",
    "aharoni_haxell_holds",
    "find_disjoint_representatives",
    "bipartite_matching",
    "match_into_flexible",
    "blockwise_almost_perfect",
    "verify_matching",
    "parse_matching",
    "dumps_matching",
    "write_matching",
]


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, each strictly ascending,
    stored in lexicographic order."""

    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        prev = None
        for e in self.edges:
            if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                raise ShapeError(f"matching edge {tuple(e)} is not strictly ascending")
            if prev is not None and e < prev:
                raise ShapeError("matching edges not in lexicographic order")
            prev = e
            for v in e:
                if v in seen:
                    raise ShapeError(f"vertex {v} covered by two matching edges")
                seen.add(v)

    @classmethod
    def from_edges(cls, edges: Iterable[Iterable[int]]) -> "Matching":
        return cls(tuple(sorted(tuple(sorted(e)) for e in edges)))

    @cached_property
    def covered(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a perfect-matching search.

    ``matching`` is the best matching found regardless of status; ``status``
    says how to read it: "perfect" covers everything, "none" means the whole
    search space was exhausted (a proof that no perfect matching exists), and
    "partial" means the node budget ran out first.
    """

    status: str
    matching: Matching
    uncovered: tuple[int, ...]
    nodes_explored: int


@dataclass(frozen=True)
class SweepReport:
    """Outcome of a first-violation sweep over candidate sets.

    ``ok`` says whether every candidate checked passed; ``violating`` is the
    first that did not (None when ok). ``checked`` counts the candidates
    tried and ``mode`` says whether they were all of them ("exhaustive") or
    a seeded sample ("sampled").
    """

    ok: bool
    violating: tuple[int, ...] | None
    checked: int
    mode: str


@dataclass(frozen=True)
class BlockReport:
    matching: Matching
    uncovered: tuple[int, ...]
    failed_blocks: tuple[tuple[int, ...], ...]
    blocks_total: int


def find_perfect_matching(H: Hypergraph, budget: int | None = None) -> MatchResult:
    """Exact perfect-matching search with fail-first branching.

    Branches on the uncovered vertex with the fewest available edges (ties
    broken by lowest id), trying its edges in canonical order. With no budget
    the search is exhaustive, so status "none" is a proof of non-existence.

    Covered-vertex masks whose branches all failed are remembered as dead;
    a child whose mask is dead is counted as a node and never descended
    into. This is sound because the branching is a function of the covered
    mask alone: the vertex picked and the edge order depend on nothing
    else, so a revisit would replay the same failed subtree, at the same
    depth, and could not find a longer partial matching than the one
    already kept. The matching returned, and "none" as a proof, are the
    same as without the memo; only ``nodes_explored`` shrinks. The memo
    holds at most one entry per failed inner node. Masks where some
    uncovered vertex has no available edge are leaves, kept apart for the
    one search and never in the memo, and a revisit of one is counted as a
    node without recomputing it.

    The search is :func:`_pm_searcher`, on bitsets over edge indices. Its
    counts are the list lengths the rule above compares, so the branching,
    the matching and the node count are those of a scan over every vertex.
    """
    n, k = H.n, H.k
    if n == 0:
        return MatchResult("perfect", Matching(()), (), 0)
    if n % k != 0:
        return MatchResult("none", Matching(()), tuple(range(n)), 0)
    status, picked, nodes = _pm_searcher(H.edges, n)(0, set(), budget)
    m = Matching.from_edges(H.edges[i] for i in picked)
    unc = () if status == "perfect" else tuple(sorted(set(range(n)) - m.covered))
    return MatchResult(status, m, unc, nodes)


def _pm_searcher(
    edges: Sequence[Sequence[int]], n: int
) -> Callable[[int, set[int], int | None], tuple[str, list[int], int]]:
    """The exact-cover search behind :func:`find_perfect_matching`,
    :func:`_pm_within`, :func:`find_disjoint_representatives` and the
    template checks, set up once for one edge list. Returns
    ``search(start, dead, budget)``, which covers the columns outside the
    ``start`` mask with disjoint edges avoiding it.

    Each edge is an ascending tuple of column ids. Columns below ``n`` are
    primary and must be covered exactly once; any higher column is
    secondary and may be covered at most once (Knuth's secondary columns).
    A perfect matching of a k-graph on n vertices is the case with no
    secondary column.

    ``search`` returns ``(status, edge indices, nodes)``: the indices form
    the exact cover, or the longest partial one seen. It is one loop over an
    explicit stack, one frame ``(covered, avail, live, untried candidates)``
    per open node of the current path, and returns from inside the loop.

    ``dead`` is the memo of covered masks shown to fail. A mask enters it
    only when its frame runs out of candidates and is popped: never on a
    zero count (which opens no frame), a memo hit or a budget stop. It holds
    the covered secondary columns too, so a dead mask means the primary
    columns outside it have no cover by edges avoiding it, whatever the
    start, and a caller may share the memo between searches on the same
    edges. The status stays exact; only the partial matching kept after a
    failure may be shorter than a fresh search's.

    A frame looks each candidate's child mask up in ``dead`` before it
    descends. A dead child only adds a node, becomes ``best`` if longer and
    ends the search if that spends the budget. Its visit would do no more:
    a memo hit opens no frame, and no frame opens on a cover, so no dead
    mask is one. The nodes, ``best`` and budget stops are a visit's.

    ``stuck`` holds, for one call of ``search``, the masks visited with
    some live column of count 0. Such a visit opens no frame, and the
    count is a function of the mask, so a later child with that mask is
    treated as a dead one: it adds a node, becomes ``best`` if longer and
    ends the search if that spends the budget, exactly as its visit would,
    without the copy of ``live``, the edge removals and the counts. A mask
    with a zero count only ever enters ``stuck``: ``dead`` keeps popped
    frames alone, whose columns all had an available edge, so a memo
    shared between searches, or read back as a refutation, holds no leaf.

    ``avail`` holds the edges that avoid every covered column, and ``live``
    lists uncovered primary columns in ascending order; an empty ``live``
    is a cover. The counts ``(avail & inc[v]).bit_count()`` for v in
    ``live`` (the column sizes of Dancing Links) are the lengths of the
    available-edge lists of a scan over all vertices, and the set bits of
    ``avail & inc[v]``, low to high, are v's available edges in incidence
    order; so the column picked (fewest available edges, lowest id on
    ties), the edge order and every node count are those of that scan.
    The counts are one list comprehension over ``live``: a chain of
    bound-method ``map`` calls ran 1.6-1.8x slower on 15-40 columns of
    160- to 500-bit masks (Python 3.11), and no faster at 17,000 bits.

    Primary columns with the same incidence int are twins: a vertex of a
    layered template and its fresh-part copies, or columns on no edge.
    Every edge holds all of a class or none of it. ``live`` leaves out
    each twin above the lowest of its class, unless ``start`` covered the
    lowest. A twin left out has the same count and the same candidate
    edges as the lowest and loses the tie on id, and the edge that covers
    one covers both; so the pick, the edge order, every node count,
    ``best`` and the memo are unchanged, and ``live`` is empty exactly at
    a cover. When ``start`` covered the lowest twin, the others kept have
    no available edge and end the search at once, as they did before.
    No edge covers the lowest twin while another stays uncovered, so
    whether ``start`` covered it shows in the covered mask: ``live`` is
    still a function of the covered mask alone, and sharing the memo
    stays sound.
    """
    E = len(edges)
    cols = max(n, max((e[-1] + 1 for e in edges), default=0))
    # set bits in a bytearray: growing an int bit by bit copies it each time
    rows = [bytearray((E + 7) // 8) for _ in range(cols)]
    emask = []
    for i, e in enumerate(edges):
        byte, bit = i >> 3, 1 << (i & 7)
        for v in e:
            rows[v][byte] |= bit
        emask.append(mask_of(e))
    inc = [int.from_bytes(row, "little") for row in rows]
    ninc = [~b for b in inc]
    # twin[v]: the lowest primary column on the same edges as v
    twin = [inc.index(b) for b in inc[:n]]

    def search(
        start: int, dead: set[int], budget: int | None = None
    ) -> tuple[str, list[int], int]:
        chosen: list[int] = []
        best: list[int] = []
        stuck: set[int] = set()
        covered, avail, nodes = start, (1 << E) - 1, 0
        for v in range(cols):
            if start >> v & 1:
                avail &= ninc[v]
        live = [v for v in range(n) if not start >> v & 1 and (twin[v] == v or start >> twin[v] & 1)]
        stack: list[tuple[int, int, list[int], int]] = []
        while True:
            nodes += 1
            if budget is not None and nodes > budget:
                return "partial", best, nodes
            if not live:
                return "perfect", chosen, nodes
            # a child was looked up in the memo before the descent; only the
            # start is visited with an empty stack
            if stack or covered not in dead:
                cnts = [(avail & inc[v]).bit_count() for v in live]
                c = min(cnts)
                if c:
                    stack.append((covered, avail, live, avail & inc[live[cnts.index(c)]]))
                else:
                    stuck.add(covered)
            # back up to the deepest frame with a candidate whose child is
            # neither dead nor stuck; its last edge is on the path while
            # len(chosen) == len(stack)
            while stack:
                covered, avail, live, cand = stack[-1]
                if len(chosen) == len(stack):
                    chosen.pop()
                while cand:
                    low = cand & -cand
                    cand ^= low
                    i = low.bit_length() - 1
                    child = covered | emask[i]
                    if child not in dead and child not in stuck:
                        break
                    nodes += 1
                    if len(chosen) >= len(best):
                        best = chosen + [i]
                    if budget is not None and nodes > budget:
                        return "partial", best, nodes
                else:
                    stack.pop()
                    dead.add(covered)
                    continue
                stack[-1] = covered, avail, live, cand
                break
            else:
                return "none", best, nodes
            chosen.append(i)
            if len(chosen) > len(best):
                best[:] = chosen
            covered |= emask[i]
            live = live[:]
            for u in edges[i]:
                avail &= ninc[u]
                if u < n and twin[u] == u:
                    live.remove(u)

    return search


def _pm_within(
    H: Hypergraph,
    verts: Iterable[int],
    budget: int | None = None,
    banned: frozenset[tuple[int, ...]] = frozenset(),
) -> tuple[str, list[tuple[int, ...]], int]:
    """The :func:`_pm_searcher` search on the subgraph of ``H`` induced on
    ``verts``, without the edges in ``banned``. Returns ``(status, edges in
    H's ids, nodes)``, the same as :func:`find_perfect_matching` on the
    ``induced`` copy: ascending ids number the local vertices and list the
    local edges in canonical order, so the branching is the same.
    """
    vs = sorted(verts)
    n, k = len(vs), H.k
    if n % k:
        return "none", [], 0
    edges = [e for e in combinations(vs, k) if H.has_edge(e) and e not in banned]
    pos = {v: i for i, v in enumerate(vs)}
    local = [tuple(pos[v] for v in e) for e in edges]
    status, picked, nodes = _pm_searcher(local, n)(0, set(), budget)
    return status, [edges[i] for i in picked], nodes


def _max_matching(
    edges: Sequence[Sequence[int]],
    nv: int,
    target: int | None = None,
) -> tuple[list[int], int]:
    """Branch-and-bound maximum matching over edge tuples on ``nv`` vertices.

    Branches on the lowest coverable vertex: either one of its available
    edges is used, or the vertex is banned (left uncovered for good). Returns
    (best edge-index list, nodes); the list is a maximum matching, or with
    ``target`` set, the first matching of that size found.

    One loop walks a stack of frames ``(covered, banned, v, untried edges
    at v)``; the ban child comes last, so its parent's frame is popped first.
    Nodes are visited and counted in that branching's depth-first preorder,
    so node counts and matchings follow it.
    """
    if not edges:
        return [], 0
    k = len(edges[0])
    masks = [mask_of(e) for e in edges]
    incident: list[list[int]] = [[] for _ in range(nv)]
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)

    best: list[int] = []
    chosen: list[int] = []
    nodes = 0
    stack: list[tuple[int, int, int, Iterator[int]]] = []
    covered, banned = 0, mask_of(v for v in range(nv) if not incident[v])
    while True:
        nodes += 1
        if len(chosen) > len(best):
            best[:] = chosen
            if target is not None and len(best) >= target:
                return best, nodes
        blocked = covered | banned
        want = len(best) + 1 if target is None else min(target, len(best) + 1)
        free = ~blocked & ((1 << nv) - 1)
        if free and len(chosen) + (nv - blocked.bit_count()) // k >= want:
            v = (free & -free).bit_length() - 1
            stack.append((covered, banned, v, iter(incident[v])))
        if not stack:
            return best, nodes
        # the top frame's edge is on the path while len(chosen) equals len(stack)
        covered, banned, v, untried = stack[-1]
        if len(chosen) == len(stack):
            chosen.pop()
        blocked = covered | banned
        for i in untried:
            if not masks[i] & blocked:
                chosen.append(i)
                covered |= masks[i]
                break
        else:
            stack.pop()
            banned |= 1 << v


def _sweep(
    holds: Callable[[tuple[int, ...]], bool],
    mode: str,
    every: Iterable[tuple[int, ...]],
    draw: Callable[[], tuple[int, ...]] | None,
    samples: int,
) -> SweepReport:
    """The first-violation sweep behind :func:`aharoni_haxell_holds` and
    the two template removal checks.

    Mode "exhaustive" walks the candidates of ``every``; mode "sampled"
    makes ``samples`` calls of ``draw``, one per candidate, and none when
    ``draw`` is None. A caller with nothing to check passes no candidates
    and no ``draw``, so its arguments are still checked and the report is
    ok after 0 candidates. The sweep stops at the first candidate that
    fails ``holds``. Both sources are consumed lazily, so the candidates,
    their order and every random draw are the caller's own.
    """
    if samples < 0:
        raise SizeError(f"samples must be nonnegative, got {samples}")
    if mode not in ("exhaustive", "sampled"):
        raise SizeError(f"unknown mode {mode!r}")
    if mode == "sampled":
        every = (draw() for _ in range(samples if draw else 0))
    checked = 0
    for C in every:
        checked += 1
        if not holds(C):
            return SweepReport(False, C, checked, mode)
    return SweepReport(True, None, checked, mode)


_AH_EXACT_CAP = 12


def aharoni_haxell_holds(
    links: Sequence[Hypergraph],
    mode: str = "exhaustive",
    samples: int = 200,
    seed: int = 0,
) -> SweepReport:
    """Check the matching condition that guarantees disjoint representatives.

    The condition: for every nonempty index set I, the union of the chosen
    link graphs must contain a matching larger than k' * (|I| - 1), where
    k' is the links' common uniformity. Exhaustive mode sweeps all nonempty
    subsets in (size, lex) order and reports the first violator; more than
    12 families is a SizeError. Sampled mode checks ``samples`` random nonempty
    subsets and is evidence, not proof.
    """
    t = len(links)
    if t == 0:
        return _sweep(bool, mode, (), None, samples)
    k = links[0].k
    n = max(L.n for L in links)
    for L in links:
        if L.k != k:
            raise SizeError(f"family uniformity mismatch: {L.k} != {k}")

    def satisfied(I: Sequence[int]) -> bool:
        need = k * (len(I) - 1) + 1
        edges = sorted(set().union(*(links[i].edges for i in I)))
        if len(edges) < need:
            return False
        sel, _ = _max_matching(edges, n, target=need)
        return len(sel) >= need

    def subsets() -> Iterator[tuple[int, ...]]:
        # the cap raises once the sweep starts walking, after its own checks
        if t > _AH_EXACT_CAP:
            raise SizeError(f"exhaustive subset sweep limited to {_AH_EXACT_CAP} families, got {t}")
        for size in range(1, t + 1):
            yield from combinations(range(t), size)

    rng = random.Random(seed)
    return _sweep(
        satisfied,
        mode,
        subsets(),
        lambda: tuple(sorted(rng.sample(range(t), rng.randint(1, t)))),
        samples,
    )


def find_disjoint_representatives(links: Sequence[Hypergraph]) -> tuple[tuple[int, ...], ...]:
    """One edge per family, pairwise vertex-disjoint, by exact cover.

    Family f is primary column f, which some edge must cover once, and
    vertex v is secondary column t + v, covered at most once, with t the
    number of families; each edge e of family f becomes the row
    ``(f, t + e[0], ...)``. The :func:`_pm_searcher` kernel then takes the
    family with the fewest edges still free of the chosen vertices first
    (lowest index on ties) and tries its edges in canonical order, so the
    result is deterministic. Where several systems exist, the one returned
    need not be the first in family order. The search is exhaustive:
    raises NotFound("exhausted") when no system exists.
    """
    t = len(links)
    rows = [(f,) + tuple(t + v for v in e) for f, L in enumerate(links) for e in L.edges]
    status, picked, _ = _pm_searcher(rows, t)(0, set())
    if status == "none":
        raise NotFound("no system of disjoint representatives exists", reason="exhausted")
    return tuple(tuple(v - t for v in rows[i][1:]) for i in sorted(picked))


def bipartite_matching(
    adj: Sequence[Sequence[int]], order: Iterable[int], banned: frozenset[int]
) -> dict[int, int] | None:
    """Match every left vertex in ``order`` to a right neighbour outside
    ``banned`` by augmenting paths (Kuhn). Neighbours are tried in ``adj``
    order. Returns the partner map, right vertex to left vertex, or None as
    soon as some left vertex cannot be matched."""
    partner: dict[int, int] = {}
    return partner if all(_augment(adj, partner, a, set(banned)) for a in order) else None


def _augment(adj: Sequence[Sequence[int]], partner: dict[int, int], a: int, seen: set[int]) -> bool:
    """Flip an augmenting path from left vertex ``a`` into ``partner``, found
    depth first in ``adj`` order past the right vertices in ``seen``."""
    for b in adj[a]:
        if b in seen:
            continue
        seen.add(b)
        if b not in partner or _augment(adj, partner, partner[b], seen):
            partner[b] = a
            return True
    return False


def match_into_flexible(G: Hypergraph, W: Iterable[int], Z: Iterable[int]) -> Matching:
    """Match every vertex of W along edges whose other k-1 vertices lie in Z.

    Builds, for each w, the family of (k-1)-sets f with f ∪ {w} an edge of G
    and f ⊆ Z, then searches for pairwise-disjoint representatives. The
    resulting matching has exactly |W| edges, each with one vertex in W.
    """
    ws = sorted(set(W))
    if ws and not (0 <= ws[0] and ws[-1] < G.n):
        raise SizeError("vertices of W out of range")
    zs = frozenset(Z)
    if zs.intersection(ws):
        raise SizeError("W and Z must be disjoint")
    links = []
    for w in ws:
        # dropping w from edges that all contain it keeps their canonical order
        residues = (tuple(v for v in G.edges[i] if v != w) for i in G.incident[w])
        kept = tuple(f for f in residues if zs.issuperset(f))
        links.append(Hypergraph(G.n, G.k - 1, kept))
    reps = find_disjoint_representatives(links)
    return Matching.from_edges(
        tuple(sorted((w,) + f)) for w, f in zip(ws, reps)
    )


def blockwise_almost_perfect(
    H: Hypergraph, Q: int, seed: int, verts: Iterable[int] | None = None
) -> BlockReport:
    """Random block partition of ``verts`` (default: every vertex), one
    exact PM attempt per block.

    Shuffles ``sorted(verts)`` with the given seed, cuts off floor(|verts|/Q)
    blocks of size Q (the remainder stays uncovered), and solves each block
    on H's own edges, so every id in the report is an id of H. Blocks whose
    search fails are reported, never raised.
    """
    order = sorted(set(verts)) if verts is not None else list(range(H.n))
    if order and not (0 <= order[0] and order[-1] < H.n):
        raise SizeError("block vertices out of range")
    if Q < 1:
        raise SizeError(f"block size must be positive, got {Q}")
    if Q % H.k != 0:
        raise SizeError(f"block size {Q} must be divisible by k={H.k}")
    if Q > len(order):
        raise SizeError(f"block size {Q} exceeds vertex count {len(order)}")
    random.Random(seed).shuffle(order)
    nblocks = len(order) // Q
    uncovered = set(order[nblocks * Q :])
    failed: list[tuple[int, ...]] = []
    edges: list[tuple[int, ...]] = []
    for b in range(nblocks):
        block = sorted(order[b * Q : (b + 1) * Q])
        status, found, _ = _pm_within(H, block)
        if status == "perfect":
            edges.extend(found)
        else:
            failed.append(tuple(block))
            uncovered.update(block)
    return BlockReport(
        matching=Matching.from_edges(edges),
        uncovered=tuple(sorted(uncovered)),
        failed_blocks=tuple(failed),
        blocks_total=nblocks,
    )


def verify_matching(
    H: Hypergraph, matching, require_perfect: bool = False
) -> tuple[bool, str | None]:
    """Independent matching checker, deliberately free of bitmask machinery.

    Accepts a Matching (edges as stored; its constructor refuses an
    unsorted edge, and the ascent check here does not rely on that) or any
    iterable of edges (each sorted first). Checks membership by
    :meth:`Hypergraph.has_edge`, building no set of all host edges,
    pairwise disjointness, and (optionally) full coverage.
    """
    edges = list(matching.edges) if isinstance(matching, Matching) else [
        tuple(sorted(e)) for e in matching
    ]
    seen: set[int] = set()
    for e in edges:
        if list(e) != sorted(e) or not H.has_edge(e):
            return False, f"edge {e} is not an edge of the host"
        for v in e:
            if v in seen:
                return False, f"vertex {v} covered twice"
            seen.add(v)
    if require_perfect and seen != set(range(H.n)):
        missing = sorted(set(range(H.n)) - seen)
        return False, f"vertices not covered: {missing[:8]}"
    return True, None


# ---------------------------------------------------------------------------
# matching text format: one edge per line, ascending ids
# ---------------------------------------------------------------------------

def parse_matching(text: str) -> Matching:
    edges = []
    covered: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            ids = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex id") from None
        if any(ids[i] >= ids[i + 1] for i in range(len(ids) - 1)):
            raise FormatError(f"line {lineno}: vertex ids must be strictly ascending")
        if shared := covered.intersection(ids):
            raise FormatError(f"line {lineno}: vertex {min(shared)} covered by two matching edges")
        covered.update(ids)
        edges.append(ids)
    return Matching.from_edges(edges)


def dumps_matching(m: Matching) -> str:
    return "".join(" ".join(str(v) for v in e) + "\n" for e in m.edges)


def write_matching(m: Matching, path) -> None:
    write_text(path, dumps_matching(m))
