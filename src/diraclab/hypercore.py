"""Core k-uniform hypergraph type and exact structural computations.

Vertices are integers ``0..n-1``. Edges are k-element subsets stored as sorted
tuples; the edge list itself is kept in lexicographic order, so equal
hypergraphs compare equal structurally. Performance-sensitive operations work
on per-edge integer bitmasks.

The module also provides the ``.khg`` text format (one header line, one edge
per line) used by every command-line surface in the package, and the one
UTF-8 file reader and writer through which every artifact is read and written.
"""

from __future__ import annotations

import io
import math
import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from hashlib import sha256
from itertools import chain, combinations, islice, repeat
from operator import contains, itemgetter, lt
from typing import Iterable, Sequence

from .errors import DiracLabError, FormatError, ShapeError, SizeError

__all__ = [
    "Hypergraph",
    "DensityResult",
    "min_d_degree",
    "induced",
    "girth",
    "berge_girth_of",
    "k_density",
    "mask_of",
    "derived_seed",
    "parse_khg",
    "dumps_khg",
    "read_khg",
    "write_khg",
    "read_text",
    "write_text",
    "json_int",
]


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into an integer bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def derived_seed(master_seed: int, index: int) -> int:
    """The package's one seed derivation: the first 8 bytes of
    sha256("<master>:<index>"), big-endian. Trial or stage i of a seeded
    run draws from ``Random(derived_seed(seed, i))``, which does not
    depend on whether streams 0..i-1 ran and replays none of them."""
    digest = sha256(f"{master_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _edges_canonical(edges: tuple, n: int, k: int) -> bool:
    """True when every edge is a strictly ascending k-tuple within 0..n-1
    and the list is strictly increasing. False sends the constructor to
    :func:`_first_fault`, which finds the first bad edge. Neither route below
    builds a copy of the edges or of their columns.

    A dense list, one with C(n, k) <= 4·len(edges), is first tried as one
    walk of ``combinations(range(n), k)``: ``e in it`` consumes the iterator
    up to the match, so every edge is found exactly when the list is a
    subsequence of the lexicographic run of k-subsets, which is what
    canonical means. This accept cannot widen what is accepted: each edge
    it passes equals a k-subset under ``==``, and for vertices that compare
    as numbers (ints, numpy integers, floats) the size, range, ascent and
    order checks of ``_first_fault`` then pass too. A miss, or an exception
    from a comparison (an array edge's ambiguous truth value), falls through.
    Past the 4x rule the walk, which may visit every k-subset, measures
    slower than the column passes, so sparse lists go straight to them:
    a contracted absorber (about 26 edges on up to 87 vertices) validates
    over 25x faster by the column passes than by the walk.

    The column passes check sizes, each adjacent pair of columns, the
    range and the order of consecutive edges, each in one C-level pass.
    """
    if not edges:
        return True
    if math.comb(n, k) <= 4 * len(edges):
        it = combinations(range(n), k)
        try:
            if all(map(contains, repeat(it), edges)):
                return True
        except (TypeError, ValueError):
            pass
    try:
        if not all(map(k.__eq__, map(len, edges))):
            return False
        col = [itemgetter(j) for j in range(k)]
        return (
            all(all(map(lt, map(a, edges), map(b, edges))) for a, b in zip(col, col[1:]))
            and min(map(col[0], edges)) >= 0
            and max(map(col[-1], edges)) < n
            and all(map(lt, edges, islice(edges, 1, None)))
        )
    except TypeError:
        return False


def _first_fault(edges: Sequence, n: int, k: int) -> tuple[int, DiracLabError] | None:
    """``(index, error)`` for the first malformed edge, or None. Within an
    edge the checks run size, range, ascent; across edges the first offender
    wins. The constructor raises the error, and ``parse_khg`` names its line."""
    prev = None
    for i, e in enumerate(edges):
        if len(e) != k:
            return i, SizeError(f"edge {e} has size {len(e)}, expected {k}")
        if any(v < 0 or v >= n for v in e):
            return i, SizeError(f"edge {e} out of range for n={n}")
        if any(e[j] >= e[j + 1] for j in range(len(e) - 1)):
            return i, ShapeError(f"edge {e} is not strictly ascending")
        if prev is not None and e <= prev:
            if e == prev:
                return i, ShapeError(f"duplicate edge {e}")
            return i, ShapeError("edge list is not in lexicographic order")
        prev = e
    return None


def _integer(value, what: str) -> int:
    """``value`` as an int, through ``__index__`` (so numpy integers pass);
    a float or other non-integer is a ``SizeError`` naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise SizeError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on vertices ``0..n-1``.

    Parameters
    ----------
    n : number of vertices (isolated vertices are allowed).
    k : uniformity, at least 1.
    edges : tuple of sorted k-tuples, lexicographically ordered, no duplicates.

    Use :meth:`from_edges` to build from unordered input; the raw constructor
    expects already-canonical data and validates it. Every instance,
    :meth:`complete` and the random hosts included, goes through this
    check; masks and incidence lists are lazy.
    """

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, k = _integer(self.n, "vertex count n"), _integer(self.k, "uniformity k")
        if n < 0:
            raise SizeError(f"vertex count must be nonnegative, got {self.n}")
        if k < 1:
            raise SizeError(f"uniformity must be at least 1, got {self.k}")
        if _edges_canonical(self.edges, n, k):
            return
        fault = _first_fault(self.edges, n, k)
        if fault is not None:
            raise fault[1]

    @classmethod
    def from_edges(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """Canonicalize arbitrary edge input (dedup, sort) and validate."""
        canon = tuple(sorted({tuple(sorted(e)) for e in edges}))
        return cls(n, k, canon)

    @classmethod
    def complete(cls, n: int, k: int) -> "Hypergraph":
        """Every k-subset of ``0..n-1`` is an edge.

        The edges go through a list because ``tuple()`` on the bare iterator
        grows by resizing, which puts the half-built tuple back among the
        collector's youngest objects, so every collection the new edges
        trigger walks it again.
        """
        return cls(n, k, tuple(list(combinations(range(n), k))))

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(e) for e in self.edges)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the indices of edges containing it."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return tuple(tuple(lst) for lst in inc)

    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, vertices: Iterable[int]) -> bool:
        """True when the vertices, in any order, form an edge: a binary
        search of the sorted ``edges`` tuple, so a few lookups on a large
        host build no set of all its edges."""
        e = tuple(sorted(vertices))
        i = bisect_left(self.edges, e)
        return i < len(self.edges) and self.edges[i] == e

    def support(self) -> frozenset[int]:
        """Vertices that appear in at least one edge."""
        return frozenset(v for e in self.edges for v in e)


def min_d_degree(H: Hypergraph, d: int) -> tuple[int, tuple[int, ...]]:
    """Minimum degree over all d-subsets of the vertex set, with one argmin.

    Returns ``(value, witness)`` where ``witness`` is the lexicographically
    first d-set attaining the minimum. Each edge's d-subsets are counted once,
    so the cost is O(m C(k,d) + C(n,d)) rather than one pass over the edges
    per d-set; at d = 1 the degrees are the lengths of ``H.incident``.
    """
    if d < 1 or d > H.k - 1:
        raise SizeError(f"d must satisfy 1 <= d <= k-1, got d={d}, k={H.k}")
    if H.n < d:
        raise SizeError(f"need at least d={d} vertices, have {H.n}")
    if d == 1:
        degs = list(map(len, H.incident))
        low = min(degs)
        return low, (degs.index(low),)
    counts = Counter(chain.from_iterable(map(combinations, H.edges, repeat(d))))
    best = None
    best_set: tuple[int, ...] = ()
    for S in combinations(range(H.n), d):
        deg = counts.get(S, 0)
        if best is None or deg < best:
            best, best_set = deg, S
            if best == 0:
                break
    return best, best_set


def induced(H: Hypergraph, S: Iterable[int]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Subgraph induced on ``S``, relabeled to ``0..|S|-1``.

    Returns ``(graph, old_ids)`` where ``old_ids[new] = old``; the map is the
    ascending enumeration of ``S``.
    """
    old_ids = tuple(sorted(set(S)))
    if any(v < 0 or v >= H.n for v in old_ids):
        raise SizeError("induced set out of range")
    pos = {v: i for i, v in enumerate(old_ids)}
    keep = frozenset(old_ids)
    # pos is increasing, so the kept edges stay in lexicographic order
    edges = [tuple(pos[v] for v in e) for e in H.edges if keep.issuperset(e)]
    return Hypergraph(len(old_ids), H.k, tuple(edges)), old_ids


# ---------------------------------------------------------------------------
# Berge girth
# ---------------------------------------------------------------------------

def berge_girth_of(edge_sets: Sequence[Iterable[int]]) -> int | float:
    """Length of a shortest Berge cycle in an arbitrary set system.

    A Berge cycle of length l >= 2 is a sequence of l distinct edges with
    distinct connector vertices v_i in e_i ∩ e_{i+1} (cyclically). Duplicate
    members of ``edge_sets`` count as distinct edges, so any repeated edge of
    size >= 2 yields girth 2. Returns ``math.inf`` when acyclic.

    Berge cycles of length l correspond exactly to simple cycles of length 2l
    in the vertex-edge incidence graph, so this runs the textbook BFS girth
    computation on that bipartite graph and halves the result. Edge nodes
    are numbered first, so every cycle's lowest node is an edge node i, and
    the BFS rooted at i, entering only nodes above i, still finds it.
    """
    edges = [tuple(sorted(set(e))) for e in edge_sets]
    ne = len(edges)
    vid = {v: ne + i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    total = ne + len(vid)
    adj: list[list[int]] = [[] for _ in range(total)]
    for j, e in enumerate(edges):
        for v in e:
            adj[j].append(vid[v])
            adj[vid[v]].append(j)

    best = math.inf
    dist = [-1] * total
    parent = [0] * total
    for root in range(ne):
        if best == 4:
            break
        dist[root] = 0
        parent[root] = -1
        queue = [root]
        for u in queue:
            if 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if w < root:
                    continue
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
        for u in queue:
            dist[u] = -1
    return math.inf if best == math.inf else best // 2


def girth(H: Hypergraph) -> int | float:
    """Berge girth of the hypergraph (``math.inf`` when Berge-acyclic)."""
    return berge_girth_of(H.edges)


# ---------------------------------------------------------------------------
# k-density: max over edge subsets with >k vertices of (e'-1)/(v'-k)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityResult:
    """Exact k-density value with one maximizing edge subset."""

    value: Fraction
    witness: tuple[tuple[int, ...], ...] | None


class _Dinic:
    """Small integer max-flow solver (enough for the density networks).

    ``max_flow`` augments from whatever flow the arcs already carry, so a
    caller may change capacities between calls. Blocking flows are found by
    an iterative search, since augmenting paths in a residual network can
    be as long as the network has nodes. One residual search, ``_levels``,
    gives both the level graph and the source side of a minimum cut: the
    last search of ``max_flow`` misses the sink, so it walks every node the
    source reaches, and the network keeps its levels. Its cuts are checked
    through :func:`k_density` against the tests' oracle.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.level: list[int] = []

    def add(self, u: int, v: int, c: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _levels(self, s: int, t: int) -> list[int]:
        """BFS levels from ``s``, left unset past the level of ``t``."""
        adj, to, cap = self.adj, self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            if u == t:
                break
            nxt = level[u] + 1
            for a in adj[u]:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = nxt
                    queue.append(v)
        return level

    def max_flow(self, s: int, t: int) -> int:
        adj, to, cap = self.adj, self.to, self.cap
        flow = 0
        while True:
            level = self._levels(s, t)
            if level[t] < 0:
                self.level = level
                return flow
            it = [0] * self.n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    f = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= f
                        cap[a ^ 1] += f
                    flow += f
                    path.clear()
                    u = s
                    continue
                arcs = adj[u]
                i = it[u]
                want = level[u] + 1
                while i < len(arcs):
                    a = arcs[i]
                    if cap[a] > 0 and level[to[a]] == want:
                        break
                    i += 1
                it[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                    continue
                # dead end: retreat one arc and skip it
                if not path:
                    break
                u = to[path.pop() ^ 1]
                it[u] += 1

    def source_side(self) -> set[int]:
        """Nodes reachable from the source in the residual graph (call after
        max_flow): the nodes that its last level search reached."""
        return {v for v, lv in enumerate(self.level) if lv >= 0}


def k_density(H: Hypergraph) -> DensityResult:
    """Exact maximum of ``(e(H')-1)/(v(H')-k)`` over subgraphs with v(H') > k.

    Returns 0 (witness ``None``) when no qualifying subgraph exists, which
    happens exactly when the hypergraph has fewer than two edges. The value is
    an exact :class:`~fractions.Fraction`.

    It solves the maximization by ratio iteration over min-cuts, with no
    size cap. The tests hold its values to an independent oracle that
    scores every edge subset of up to 20 edges (``_density_enumerate`` in
    ``tests/recursive_searches.py``), and its values and witnesses to a
    route that builds a fresh network per anchor.

    The iteration asks, for each anchor edge in turn, whether some edge
    set holding it beats the current ratio lam, and moves to the ratio
    of the minimal such set when one does. An anchor a is refuted once: if
    no set holding a beats lam, none beats any higher ratio either, since
    v' >= k. So moving past a sets a's source arc to 0 (its flow cancelled
    along its own paths) and augments the flow from there; an improving
    step at a rebuilds the network at the new ratio without the anchors
    below a and resumes at a. Every maximizer of an improving step beats
    lam, so it holds no refuted edge and scores the same without them; the
    residual source side is the minimal maximizer for every maximum flow.
    So the steps and witnesses are those of asking every anchor afresh.
    """
    k = H.k
    edges = H.edges
    m = len(edges)
    if m < 2:
        return DensityResult(Fraction(0), None)
    support = sorted(H.support())
    vpos = {v: i for i, v in enumerate(support)}
    nv = len(support)
    s, t = m + nv, m + nv + 1

    full_union = mask_of(v for e in edges for v in e)
    lam = Fraction(m - 1, full_union.bit_count() - k)
    witness_idx = list(range(m))
    first = 0
    while True:
        # Project-selection network for lam = p/q on the unrefuted edges
        # first..m-1: rejecting an edge cuts its q-arc, keeping an edge forces
        # its vertices' p-arcs into the cut, and the anchor's infinite arc
        # keeps it selected. Anchors below a have source arc 0, so the max of
        # q*e' - p*v' over sets of edges a..m-1 holding a is q*(m - a) - mincut.
        p, q = lam.numerator, lam.denominator
        inf = q * m + p * nv + 1
        net = _Dinic(m + nv + 2)
        cap = net.cap
        src_arc, out_arcs, sink_arc = {}, {}, []
        for i in range(first, m):
            src_arc[i] = len(cap)
            net.add(s, i, q)
            arcs = []
            for v in edges[i]:
                arcs.append((len(cap), vpos[v]))
                net.add(i, m + vpos[v], inf)
            out_arcs[i] = arcs
        for j in range(nv):
            sink_arc.append(len(cap))
            net.add(m + j, t, p)
        flow = 0
        for a in range(first, m):
            if a > first:
                # the old anchor is refuted: cancel its flow along its own
                # length-3 paths, which keeps the flow feasible, and drop it
                arc = src_arc[a - 1]
                flow -= cap[arc ^ 1]
                cap[arc] = cap[arc ^ 1] = 0
                for e_arc, j in out_arcs[a - 1]:
                    d = cap[e_arc ^ 1]
                    cap[e_arc] += d
                    cap[e_arc ^ 1] = 0
                    cap[sink_arc[j]] += d
                    cap[sink_arc[j] ^ 1] -= d
            arc = src_arc[a]
            cap[arc] = inf - cap[arc ^ 1]
            flow += net.max_flow(s, t)
            # improving iff (e'-1) - lam*(v'-k) > 0, scaled by q:
            if q * (m - a) - flow > q - p * k:
                # The residual source side of any maximum flow is the minimal
                # min cut, so the selection does not depend on the warm start.
                side = net.source_side()
                sel = [i for i in range(a, m) if i in side]
                um = 0
                for i in sel:
                    um |= H.edge_masks[i]
                new = Fraction(len(sel) - 1, um.bit_count() - k)
                if new <= lam:
                    raise DiracLabError("parametric density step failed to improve")
                lam = new
                witness_idx = sel
                break
        else:
            break
        first = a
    witness = tuple(edges[i] for i in sorted(witness_idx))
    return DensityResult(lam, witness)


# ---------------------------------------------------------------------------
# .khg text format and file access
# ---------------------------------------------------------------------------

def parse_khg(text: str) -> Hypergraph:
    """Parse the ``khg 1 <k> <n> <m>`` text format.

    Blank lines and ``#`` comments are ignored. A malformed edge is a
    :class:`FormatError` naming its line and the constructor's reason;
    faults on the lines are reported before a wrong edge count.
    """
    header: tuple[int, int, int] | None = None
    edges: list[tuple[int, ...]] = []
    linenos: list[int] = []
    late = None  # a non-integer line ends the edges; a fault above it wins
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 5 or parts[0] != "khg" or parts[1] != "1":
                raise FormatError(f"line {lineno}: expected header 'khg 1 <k> <n> <m>'")
            try:
                k, n, m = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer header field") from None
            if k < 2:
                raise FormatError(f"line {lineno}: uniformity must be at least 2")
            if n < 0 or m < 0:
                what, value = ("vertex", n) if n < 0 else ("edge", m)
                raise FormatError(f"line {lineno}: {what} count must be nonnegative, got {value}")
            header = (k, n, m)
            continue
        try:
            edges.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            late = FormatError(f"line {lineno}: non-integer vertex id")
            break
        linenos.append(lineno)
    if header is None:
        raise FormatError("missing header line")
    k, n, m = header
    try:
        H = Hypergraph(n, k, tuple(edges))
    except (SizeError, ShapeError):
        # the header is checked, so the constructor can only fault an edge
        index, reason = _first_fault(edges, n, k)
        raise FormatError(f"line {linenos[index]}: {reason}") from None
    if late is not None:
        raise late
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, file has {len(edges)}")
    return H


def dumps_khg(H: Hypergraph, comment: str | None = None) -> str:
    """Serialize to canonical ``.khg`` text (sorted edges, one per line)."""
    if H.k < 2:
        raise FormatError("khg files require uniformity at least 2")
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(f"khg 1 {H.k} {H.n} {len(H.edges)}")
    for e in H.edges:
        out.append(" ".join(str(v) for v in e))
    return "\n".join(out) + "\n"


def read_khg(path) -> Hypergraph:
    return parse_khg(read_text(path))


def write_khg(H: Hypergraph, path, comment: str | None = None) -> None:
    write_text(path, dumps_khg(H, comment=comment))


def read_text(path) -> str:
    """The file at ``path`` decoded as UTF-8; with :func:`write_text`, the
    package's only file access. Undecodable bytes are a FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc.reason}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, replacing the file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def json_int(value, what: str) -> int:
    """``value`` when it is a JSON integer, else a FormatError naming it.
    The JSON record readers take every id and count through this: int()
    would truncate 0.9, read "2" and take true as 1 (bool is an int
    subclass), so a corrupted record would read as another."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value
