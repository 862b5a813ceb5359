"""Seeded experiments on random hosts.

This module covers the measurement side of the package: sampling binomial
random hypergraphs, grinding a host down to a degree floor edge by edge,
and three batch experiments (threshold resilience, degree inheritance under
subset sampling, neighbourhood load).  Trial t draws from the seed
``derived_seed(master_seed, t)`` and a second stage of it from a seed derived
from that one, so reports are byte-identical however the loop is scheduled.

Reports are written as a small versioned CSV dialect whose first line is
``#diraclab-csv <name> v1``; readers refuse versions they do not know.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, compress
from math import ceil, comb, isfinite, sqrt
from random import Random
from typing import Iterable, Mapping, Sequence, TypeVar, get_args, get_type_hints

from .errors import DiracLabError, FormatError, SizeError
from .hypercore import Hypergraph, derived_seed, induced, min_d_degree, read_text
from .matchpower import find_perfect_matching
from .thresholds import _frac, conjectured_density, parity_barrier, space_barrier

__all__ = [
    "WILSON_Z",
    "CSV_VERSION",
    "RESILIENCE_COLUMNS",
    "INHERITANCE_COLUMNS",
    "LOAD_COLUMNS",
    "INHERITANCE_BOUND_FORM",
    "EXPERIMENTS",
    "ExperimentConfig",
    "TrialRecord",
    "ExperimentResult",
    "CsvTable",
    "DegradeResult",
    "LoadReport",
    "derived_seed",
    "sample_hk",
    "build_host",
    "degrade_to_degree",
    "wilson_interval",
    "resilience_threshold",
    "resilience_experiment",
    "inheritance_experiment",
    "neighborhood_load_check",
    "load_experiment",
    "run_experiment",
    "parse_key_values",
    "parse_config",
    "dumps_config",
    "read_config",
    "dumps_table",
    "parse_table",
    "experiment_rows",
    "experiment_csv",
    "summary_lines",
]

# 97.5% normal quantile, pinned so Wilson intervals never drift with the
# platform's math library.
WILSON_Z = 1.959963984540054

_T = TypeVar("_T")


def sample_hk(n: int, k: int, p: float, seed: int = 0) -> Hypergraph:
    """Sample the binomial random k-graph: each k-set kept with probability p.

    Candidate k-sets are visited in lexicographic order and every one of them
    consumes exactly one ``random()`` draw, so a fixed seed pins the outcome
    with no short-circuiting at p = 0 or p = 1. The kept k-sets go through a
    list, as in :meth:`Hypergraph.complete`, so the collector does not walk
    a half-built edge tuple again at every collection.
    """
    if not 1 <= k <= n:
        raise SizeError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise SizeError(f"inclusion probability must be in [0, 1], got {p}")
    rng = Random(seed)
    edges = [c for c in combinations(range(n), k) if rng.random() < p]
    return Hypergraph(n, k, tuple(edges))


def build_host(kind: str, n: int, k: int, d: int, p: float, seed: int) -> Hypergraph:
    """The host of one kind from ``_HOSTS``: "complete", the "space" or
    "parity" barrier at degree d, or "random", :func:`sample_hk` with p and
    seed. Any other kind is a SizeError."""
    if kind == "complete":
        return Hypergraph.complete(n, k)
    if kind == "space":
        return space_barrier(n, k, d)
    if kind == "parity":
        return parity_barrier(n, k, d)
    if kind == "random":
        return sample_hk(n, k, p, seed)
    raise SizeError(f"host kind must be one of {_HOSTS}, got {kind!r}")


# ---------------------------------------------------------------------------
# degradation schedules


@dataclass(frozen=True)
class DegradeResult:
    graph: Hypergraph
    deleted: tuple[tuple[int, ...], ...]
    min_degree: int


def degrade_to_degree(
    G: Hypergraph,
    d: int,
    target: int,
    policy: str = "random",
    seed: int = 0,
) -> DegradeResult:
    """Delete edges one at a time while every d-degree stays >= target.

    An edge is deletable when all of its d-subsets currently have degree at
    least target + 1, so no single deletion can break the floor.  Policy
    "random" removes a uniformly random deletable edge each step; "greedy"
    removes the deletable edge whose loss leaves the smallest d-degree
    anywhere (the adversarial schedule), breaking ties by lexicographic edge
    order.  Stops when nothing is deletable.

    Degrees only go down, so the deletable set only shrinks.  The d-sets
    get dense ids: at d = 1 the ids are the vertices, each edge's ids are
    its own vertices and a vertex's holders are its ``G.incident`` entry
    (read, never written); at d >= 2 a dict numbers each d-subset the first
    time an edge holds it, each edge keeps the tuple of its ids, and each
    id has a list of its holders.  Degrees are a list indexed by id.  The
    deletable list is built from the tight d-sets alone, those at degree
    exactly target: their holders are unlisted and the rest, in edge order,
    are deletable.  A deletion walks the edge's ids and drops from the list
    just the holders of an id whose degree falls to the target.  Over a
    whole "random" run on m edges that is O(m C(k,d)) Python steps for the
    bookkeeping, plus one list shift per removal from the deletable list.
    "greedy" keeps a heap of (key, edge index) instead, where an edge's key
    is its least d-degree: a deletion pushes a fresh entry for each listed
    holder whose key it lowers, and a pop skips entries that are stale or
    no longer listed.

    Raises SizeError when the host already sits below the target.
    The returned minimum degree is recomputed from scratch on the survivor.
    """
    if not 1 <= d < G.k:
        raise SizeError(f"need 1 <= d < k, got d={d}, k={G.k}")
    if target < 0:
        raise SizeError(f"degree target must be nonnegative, got {target}")
    if policy not in ("random", "greedy"):
        raise SizeError(f"unknown policy {policy!r}")
    if G.n < d:
        raise SizeError(f"need at least d={d} vertices, have {G.n}")

    edges = G.edges
    m = len(edges)
    if d == 1:
        ids, holders = edges, G.incident
    else:
        index: dict[tuple[int, ...], int] = {}
        ids, holders = [], []
        for i, e in enumerate(edges):
            own = []
            for S in combinations(e, d):
                j = index.get(S)
                if j is None:
                    index[S] = j = len(holders)
                    holders.append([i])
                else:
                    holders[j].append(i)
                own.append(j)
            ids.append(tuple(own))
    deg = list(map(len, holders))
    # at d >= 2 a d-set in no edge has no id; its degree is 0
    start = min(deg) if len(deg) == comb(G.n, d) else 0
    if start < target:
        raise SizeError(
            f"minimum {d}-degree is {start}, already below target {target}"
        )

    # unlist the holders of the tight d-sets; the rest are deletable, in
    # ascending edge index, so the list stays in the order of G.edges
    listed = bytearray(b"\x01") * m
    for tight in compress(holders, map(target.__eq__, deg)):
        for i in tight:
            listed[i] = 0
    deletable = list(compress(range(m), listed))
    alive = bytearray(b"\x01") * m
    greedy = policy == "greedy"
    if greedy:
        # an edge's key is the least degree among its d-subsets; ties go to
        # the lower index, the lexicographically first edge
        key = [0] * m
        for i in deletable:
            key[i] = min(map(deg.__getitem__, ids[i]))
        heap = [(key[i], i) for i in deletable]
        heapify(heap)

    rng = Random(seed)
    deleted: list[tuple[int, ...]] = []
    while True:
        if greedy:
            while heap and (not listed[heap[0][1]] or heap[0][0] != key[heap[0][1]]):
                heappop(heap)
            if not heap:
                break
            i = heappop(heap)[1]
        else:
            if not deletable:
                break
            i = deletable.pop(rng.randrange(len(deletable)))
        listed[i] = alive[i] = 0
        deleted.append(edges[i])
        for x in ids[i]:
            deg[x] -= 1
            low = deg[x]
            if low == target:
                for j in holders[x]:
                    if listed[j]:
                        listed[j] = 0
                        if not greedy:
                            del deletable[bisect_left(deletable, j)]
            elif greedy:
                for j in holders[x]:
                    if listed[j] and low < key[j]:
                        key[j] = low
                        heappush(heap, (low, j))

    out = Hypergraph(G.n, G.k, tuple(compress(edges, alive)))
    final, _ = min_d_degree(out, d)
    if final < target:
        raise DiracLabError("degradation broke the degree floor")
    return DegradeResult(out, tuple(deleted), final)


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval (z = WILSON_Z) for a binomial proportion."""
    if total <= 0:
        raise SizeError("interval needs at least one observation")
    if not 0 <= successes <= total:
        raise SizeError(f"successes {successes} out of range for total {total}")
    phat, z = successes / total, WILSON_Z
    denom = 1.0 + z * z / total
    centre = phat + z * z / (2 * total)
    half = z * sqrt(phat * (1.0 - phat) / total + z * z / (4 * total * total))
    return ((centre - half) / denom, (centre + half) / denom)


# ---------------------------------------------------------------------------
# experiment configuration


_POLICIES = ("random", "greedy")
_PHAT_MODES = ("nominal", "empirical")
_HOSTS = ("complete", "space", "parity", "random")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs for one experiment batch, loadable from a key = value file.

    ``name`` labels the CSV report header.  Unused knobs are harmless: the
    resilience run ignores Q and eta, the inheritance run ignores gamma and
    the policy, and so on.  ``budget`` of 0 means unlimited search nodes.
    """

    name: str
    n: int
    k: int
    d: int = 1
    p: float = 1.0
    gamma: float = 0.0
    eta: float = 0.0
    Q: int = 0
    lam: float = 0.0
    trials: int = 1
    master_seed: int = 0
    out: str = ""
    policy: str = "random"
    phat: str = "nominal"
    host: str = "random"
    timing: bool = False
    budget: int = 0

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise SizeError("name must be nonempty with no whitespace")
        if self.n < 0 or self.k < 1 or self.d < 0:
            raise SizeError(f"bad dimensions n={self.n}, k={self.k}, d={self.d}")
        for field in ("p", "eta", "lam"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise SizeError(f"{field} must be in [0, 1], got {value}")
        if not isfinite(self.gamma):
            raise SizeError(f"need a finite number for gamma, got {self.gamma}")
        if self.gamma < 0:
            raise SizeError(f"gamma must be nonnegative, got {self.gamma}")
        if self.Q < 0:
            raise SizeError(f"Q must be nonnegative, got {self.Q}")
        if self.trials < 1:
            raise SizeError(f"need at least one trial, got {self.trials}")
        if self.policy not in _POLICIES:
            raise SizeError(f"policy must be one of {_POLICIES}, got {self.policy!r}")
        if self.phat not in _PHAT_MODES:
            raise SizeError(f"phat must be one of {_PHAT_MODES}, got {self.phat!r}")
        if self.host not in _HOSTS:
            raise SizeError(f"host must be one of {_HOSTS}, got {self.host!r}")
        if self.budget < 0:
            raise SizeError(f"budget must be nonnegative, got {self.budget}")

    def search_budget(self) -> int | None:
        return self.budget or None


def dumps_config(cfg: ExperimentConfig) -> str:
    """Flat key = value text; ``parse_config`` round-trips it losslessly."""
    lines = []
    for f in fields(cfg):
        key, value = f.name, getattr(cfg, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def parse_key_values(text: str, cls: type[_T], aliases: Mapping[str, str] = {}) -> _T:
    """Parse ``key = value`` lines into the dataclass ``cls``.

    Blank lines and # comments are skipped. Keys are the field names of
    ``cls``, or a key of ``aliases`` naming one; fields without a default
    are required. Each value is read as its field's annotated type, taking
    X from ``X | None``: bools are ``true`` or ``false``. An unknown,
    duplicate, missing or malformed key raises FormatError.
    """
    types = get_type_hints(cls)
    values: dict[str, object] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        name = aliases.get(key, key)
        if name not in types:
            raise FormatError(f"unknown config key {key!r}")
        if name in values:
            raise FormatError(f"duplicate config key {key!r}")
        typ = next((t for t in get_args(types[name]) if t is not type(None)), types[name])
        if typ is bool:
            if value not in ("true", "false"):
                raise FormatError(f"{key} must be true or false, got {value!r}")
            values[name] = value == "true"
        elif typ in (int, float):
            try:
                values[name] = typ(value)
            except ValueError:
                wants = "an integer" if typ is int else "a number"
                raise FormatError(f"{key} wants {wants}, got {value!r}") from None
        else:
            values[name] = value
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in values:
            raise FormatError(f"missing required config key {f.name!r}")
    return cls(**values)


def parse_config(text: str) -> ExperimentConfig:
    """Parse an experiment config; see ``parse_key_values``."""
    return parse_key_values(text, ExperimentConfig)


def read_config(path) -> ExperimentConfig:
    return parse_config(read_text(path))


# ---------------------------------------------------------------------------
# trial records and the CSV report dialect


@dataclass(frozen=True)
class TrialRecord:
    """One report row; ``data`` maps the columns beyond trial and seed."""

    index: int
    seed: int
    data: Mapping[str, object]


@dataclass(frozen=True)
class ExperimentResult:
    """Batch outcome: per-trial records plus one summary row.

    ``summary_row`` is aligned to ``columns`` and closes the CSV report;
    ``summary`` is the richer mapping behind it (printed by the CLI and
    embedded in JSON output).
    """

    config: ExperimentConfig
    columns: tuple[str, ...]
    records: tuple[TrialRecord, ...]
    summary: Mapping[str, object]
    summary_row: tuple[object, ...]


CSV_VERSION = "v1"
_CSV_MAGIC = "#diraclab-csv"


@dataclass(frozen=True)
class CsvTable:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return " ".join(str(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return " ".join(str(v) for v in sorted(value))
    text = str(value)
    if "," in text or "\n" in text:
        raise FormatError(f"cell value {text!r} would break the row format")
    return text


def dumps_table(name: str, columns: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    lines = [f"{_CSV_MAGIC} {name} {CSV_VERSION}", ",".join(columns)]
    width = len(columns)
    for row in rows:
        cells = [_cell(v) for v in row]
        if len(cells) != width:
            raise FormatError(f"row has {len(cells)} cells, header has {width}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> CsvTable:
    """Parse the report dialect; rejects headers from unknown versions."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_CSV_MAGIC + " "):
        raise FormatError(f"missing '{_CSV_MAGIC}' header line")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise FormatError(f"malformed header {lines[0]!r}")
    _, name, version = parts
    if version != CSV_VERSION:
        raise FormatError(
            f"unsupported report version {version!r}; this reader understands {CSV_VERSION}"
        )
    if len(lines) < 2:
        raise FormatError("missing column row")
    columns = tuple(lines[1].split(","))
    rows = []
    for line in lines[2:]:
        if not line:
            continue
        cells = tuple(line.split(","))
        if len(cells) != len(columns):
            raise FormatError(f"row {line!r} does not match the column row")
        rows.append(cells)
    return CsvTable(name, columns, tuple(rows))


def experiment_rows(result: ExperimentResult) -> list[tuple[object, ...]]:
    """One ``(trial, seed, *data)`` row per record, aligned to ``columns``."""
    return [
        (rec.index, rec.seed) + tuple(rec.data.get(c) for c in result.columns[2:])
        for rec in result.records
    ]


def experiment_csv(result: ExperimentResult) -> str:
    rows = experiment_rows(result) + [result.summary_row]
    return dumps_table(result.config.name, result.columns, rows)


def summary_lines(result: ExperimentResult) -> list[str]:
    """Key: value lines for terminal output, in insertion order."""
    out = []
    for key, value in result.summary.items():
        if isinstance(value, float):
            out.append(f"{key}: {value!r}")
        else:
            out.append(f"{key}: {value}")
    return out


# ---------------------------------------------------------------------------
# resilience: degrade random hosts to the threshold, count surviving matchings


RESILIENCE_COLUMNS = (
    "trial",
    "seed",
    "n",
    "k",
    "d",
    "p",
    "gamma",
    "threshold",
    "min_deg",
    "pm_found",
    "nodes",
    "seconds",
)


def resilience_threshold(d: int, k: int, gamma: float, p_hat, n: int) -> int:
    """ceil((conjectured density + gamma) * p_hat * C(n-d, k-d)), exactly."""
    bound = (conjectured_density(d, k) + _frac(gamma)) * _frac(p_hat) * comb(n - d, k - d)
    return ceil(bound)


def resilience_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Sample hosts, degrade them to the degree threshold, test for matchings.

    Each trial samples the binomial k-graph under its own derived seed (the
    row's seed column), computes the threshold from the configured gamma
    and p-hat convention, deletes edges by the configured policy while
    every d-degree stays at or above the threshold, drawing from
    ``derived_seed(seed, 1)`` so as not to replay the sampling draws, then
    runs the exact matching search on the survivor.  Hosts that start
    below the threshold are recorded as infeasible rows (blank pm_found)
    and excluded from the frequency; a failed search is recorded, never
    raised.
    """
    if not 1 <= cfg.d < cfg.k <= cfg.n:
        raise SizeError(f"need 1 <= d < k <= n, got d={cfg.d}, k={cfg.k}, n={cfg.n}")
    records: list[TrialRecord] = []
    thresholds_seen: set[int] = set()
    feasible = 0
    successes = 0
    batch_tick = time.perf_counter() if cfg.timing else None
    for t in range(cfg.trials):
        seed = derived_seed(cfg.master_seed, t)
        tick = time.perf_counter() if cfg.timing else None
        G = sample_hk(cfg.n, cfg.k, cfg.p, seed)
        if cfg.phat == "nominal":
            p_hat = _frac(cfg.p)
        else:
            p_hat = Fraction(len(G.edges), comb(cfg.n, cfg.k))
        # A host with a perfect matching needs positive degrees everywhere,
        # so the enforced floor never drops below 1 even when the density
        # formula bottoms out at p = 0.
        threshold = max(resilience_threshold(cfg.d, cfg.k, cfg.gamma, p_hat, cfg.n), 1)
        thresholds_seen.add(threshold)
        host_min, _ = min_d_degree(G, cfg.d)
        data: dict[str, object] = {
            "n": cfg.n,
            "k": cfg.k,
            "d": cfg.d,
            "p": cfg.p,
            "gamma": cfg.gamma,
            "threshold": threshold,
        }
        if host_min < threshold:
            data.update({"min_deg": host_min, "pm_found": None, "nodes": None})
        else:
            worn = degrade_to_degree(G, cfg.d, threshold, policy=cfg.policy, seed=derived_seed(seed, 1))
            res = find_perfect_matching(worn.graph, budget=cfg.search_budget())
            found = res.status == "perfect"
            feasible += 1
            successes += int(found)
            data.update(
                {
                    "min_deg": worn.min_degree,
                    "pm_found": found,
                    "nodes": res.nodes_explored,
                }
            )
        data["seconds"] = f"{time.perf_counter() - tick:.3f}" if cfg.timing else None
        records.append(TrialRecord(t, seed, data))

    frequency = successes / feasible if feasible else None
    common_threshold = thresholds_seen.pop() if len(thresholds_seen) == 1 else None
    summary: dict[str, object] = {
        "trials": cfg.trials,
        "feasible": feasible,
        "infeasible": cfg.trials - feasible,
        "pm_successes": successes,
        "pm_frequency": frequency,
        "threshold": common_threshold,
        "policy": cfg.policy,
        "phat": cfg.phat,
        "density_proxy": "conjectured_density",
        "density": str(conjectured_density(cfg.d, cfg.k)),
    }
    if feasible:
        low, high = wilson_interval(successes, feasible)
        summary["wilson_low"] = low
        summary["wilson_high"] = high
    else:
        summary["wilson_low"] = None
        summary["wilson_high"] = None
    summary_row = (
        "summary",
        cfg.master_seed,
        cfg.n,
        cfg.k,
        cfg.d,
        cfg.p,
        cfg.gamma,
        common_threshold,
        None,
        frequency,
        None,
        f"{time.perf_counter() - batch_tick:.3f}" if cfg.timing else None,
    )
    return ExperimentResult(cfg, RESILIENCE_COLUMNS, tuple(records), summary, summary_row)


# ---------------------------------------------------------------------------
# inheritance: do random subsets keep the host's degree profile?


INHERITANCE_COLUMNS = ("trial", "seed", "subset", "min_deg", "target", "ok")

# The failure probability this experiment estimates is bounded by a term of
# this shape; c is an absolute constant the measurement does not pin down,
# so only the observed frequency is reported.
INHERITANCE_BOUND_FORM = "C(Q,d) * (delta + exp(-c * eta^2 * Q))"

_INHERIT_EXHAUSTIVE_CAP = 2000


def inheritance_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Measure how often a Q-subset inherits the host's relative min degree.

    The host's profile is mu = min d-degree / C(n-d, k-d); a subset S of size
    Q passes when its induced graph has minimum d-degree at least
    (mu - eta/2) * C(Q-d, k-d), compared exactly.  All C(n, Q) subsets are
    checked when that count is small; otherwise cfg.trials subsets are drawn,
    one derived seed each.
    """
    if not 1 <= cfg.d < cfg.k:
        raise SizeError(f"need 1 <= d < k, got d={cfg.d}, k={cfg.k}")
    Q = cfg.Q
    if not cfg.k <= Q <= cfg.n:
        raise SizeError(f"need k <= Q <= n, got Q={Q}, k={cfg.k}, n={cfg.n}")
    host = build_host(cfg.host, cfg.n, cfg.k, cfg.d, cfg.p, cfg.master_seed)
    mu = Fraction(min_d_degree(host, cfg.d)[0], comb(cfg.n - cfg.d, cfg.k - cfg.d))
    target = (mu - _frac(cfg.eta) / 2) * comb(Q - cfg.d, cfg.k - cfg.d)
    total = comb(cfg.n, Q)
    exhaustive = total <= _INHERIT_EXHAUSTIVE_CAP

    def check(t: int, S: tuple[int, ...]) -> TrialRecord:
        sub, _ = induced(host, S)
        md, _ = min_d_degree(sub, cfg.d)
        return TrialRecord(
            t,
            derived_seed(cfg.master_seed, t),
            {"subset": S, "min_deg": md, "target": target, "ok": md >= target},
        )

    records: list[TrialRecord] = []
    if exhaustive:
        for t, S in enumerate(combinations(range(cfg.n), Q)):
            records.append(check(t, S))
    else:
        for t in range(cfg.trials):
            rng = Random(derived_seed(cfg.master_seed, t))
            records.append(check(t, tuple(sorted(rng.sample(range(cfg.n), Q)))))

    ok_count = sum(1 for rec in records if rec.data["ok"])
    checked = len(records)
    frequency = ok_count / checked
    summary = {
        "mode": "exhaustive" if exhaustive else "sampled",
        "subsets": checked,
        "ok": ok_count,
        "frequency": frequency,
        "mu_host": str(mu),
        "target": str(target),
        "eta": cfg.eta,
        "bound_form": INHERITANCE_BOUND_FORM,
    }
    summary_row = ("summary", cfg.master_seed, None, None, target, frequency)
    return ExperimentResult(cfg, INHERITANCE_COLUMNS, tuple(records), summary, summary_row)


# ---------------------------------------------------------------------------
# neighbourhood load: edges through one vertex that touch a small set


LOAD_COLUMNS = ("trial", "seed", "vertex", "set", "count", "bound", "ratio")


@dataclass(frozen=True)
class LoadReport:
    """Worst observed load against the 2|X| p-hat C(n-2, k-2) reference line."""

    max_ratio: float
    max_count: int
    bound: Fraction
    set_size: int
    pairs_checked: int
    worst_vertex: int
    worst_set: tuple[int, ...]


def _load_pairs(
    G: Hypergraph, lam: float, samples: int, seed: int
) -> tuple[LoadReport, list[tuple[int, int, tuple[int, ...], int]]]:
    """The report of :func:`neighborhood_load_check` and the sampled pairs
    behind it, each as ``(seed, vertex, set, load)`` in sample order."""
    if G.k < 2:
        raise SizeError(f"needs uniformity at least 2, got k={G.k}")
    if G.n < 2:
        raise SizeError(f"needs at least 2 vertices, got n={G.n}")
    if not 0.0 <= lam <= 1.0:
        raise SizeError(f"lam must be in [0, 1], got {lam}")
    if samples < 1:
        raise SizeError(f"need at least one sample, got {samples}")
    x_size = min(int(_frac(lam) * G.n), G.n - 1)
    total = comb(G.n, G.k)
    p_hat = Fraction(len(G.edges), total) if total else Fraction(0)
    bound = 2 * x_size * p_hat * comb(G.n - 2, G.k - 2)
    inc, edges = G.incident, G.edges
    pairs = []
    for i in range(samples):
        s = derived_seed(seed, i)
        rng = Random(s)
        w = rng.randrange(G.n)
        X = tuple(sorted(rng.sample([v for v in range(G.n) if v != w], x_size)))
        xset = frozenset(X)
        pairs.append((s, w, X, sum(1 for j in inc[w] if not xset.isdisjoint(edges[j]))))
    # max keeps the first of equal loads, the earliest worst pair
    _, w, X, top = max(pairs, key=lambda pair: pair[3])
    report = LoadReport(_load_ratio(top, bound), top, bound, x_size, samples, w, X)
    return report, pairs


def _load_ratio(count: int, bound: Fraction) -> float:
    return float(Fraction(count) / bound) if bound > 0 else 0.0


def neighborhood_load_check(
    G: Hypergraph, lam: float, samples: int = 200, seed: int = 0
) -> LoadReport:
    """Sample vertex/set pairs and compare each load to the reference line.

    A pair is a vertex w and a set X of floor(lam * n) other vertices; its
    load is the number of edges containing w and meeting X.  The reference
    is 2 |X| p-hat C(n-2, k-2) with the empirical density p-hat; the report
    carries the worst ratio seen.  An edgeless host scores 0.
    """
    return _load_pairs(G, lam, samples, seed)[0]


def load_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-pair report for the neighbourhood load check on the config's host."""
    host = build_host(cfg.host, cfg.n, cfg.k, cfg.d, cfg.p, cfg.master_seed)
    rep, pairs = _load_pairs(host, cfg.lam, cfg.trials, cfg.master_seed)
    bound = rep.bound
    records = tuple(
        TrialRecord(
            i,
            s,
            {"vertex": w, "set": X, "count": count, "bound": bound, "ratio": _load_ratio(count, bound)},
        )
        for i, (s, w, X, count) in enumerate(pairs)
    )
    summary = {
        "pairs": cfg.trials,
        "set_size": rep.set_size,
        "bound": str(bound),
        "max_count": rep.max_count,
        "max_ratio": rep.max_ratio,
    }
    summary_row = ("summary", cfg.master_seed, None, None, rep.max_count, bound, rep.max_ratio)
    return ExperimentResult(cfg, LOAD_COLUMNS, records, summary, summary_row)


EXPERIMENTS = {
    "resilience": resilience_experiment,
    "inheritance": inheritance_experiment,
    "load": load_experiment,
}


def run_experiment(kind: str, cfg: ExperimentConfig) -> ExperimentResult:
    if kind not in EXPERIMENTS:
        raise SizeError(f"unknown experiment {kind!r}; expected one of {tuple(EXPERIMENTS)}")
    return EXPERIMENTS[kind](cfg)
