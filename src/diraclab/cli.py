"""The ``diraclab`` command line.

Every subcommand writes its primary artifact to ``--out`` when given and to
stdout otherwise; files are UTF-8.  Exit codes: 0 on success, 1 when a search
or a verification fails (no matching, rejected absorber or an artifact a verify
command cannot decode, pipeline failure), 2 on usage errors, on paths that
cannot be opened and on any other malformed or undecodable input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import partial
from math import comb

from .absorbing import (
    assemble_contractible,
    contract_absorber,
    dumps_absorber,
    find_rooted_absorber,
    find_sparse_r_absorber,
    is_k_sparse,
    parse_absorber,
    pattern_for,
    verify_absorber,
)
from .errors import FormatError, NotFound, ShapeError, SizeError
from .hypercore import (
    Hypergraph, derived_seed, dumps_khg, girth, k_density, read_khg, read_text, write_khg, write_text
)
from .lab import (
    EXPERIMENTS,
    build_host,
    dumps_table,
    experiment_csv,
    experiment_rows,
    parse_key_values,
    read_config,
    run_experiment,
    summary_lines,
)
from .matchpower import (
    Matching,
    dumps_matching,
    find_perfect_matching,
    parse_matching,
    verify_matching,
    write_matching,
)
from .pipeline import PipelineParams, dirac_perfect_matching
from .templates import (
    build_resilient_template,
    compact_template,
    read_template,
    verify_resilient_template,
    write_template,
)
from .thresholds import exact_dirac_threshold

# Malformed input: a usage error (exit 2) from main, but a verification
# failure (exit 1) where it is the artifact a verify command checks, even
# when the corruption already trips the parser.
_INPUT_ERRORS = (FormatError, ShapeError, SizeError)

MDK_COLUMNS = ("n", "k", "d", "m", "ratio", "witness_file", "graphs_enumerated", "seconds")


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _verdict(ok: bool, line: str) -> int:
    """A verify command's outcome: ``ok: <line>`` on stdout and exit 0, or
    ``rejected: <line>`` on stderr and exit 1."""
    print(f"ok: {line}" if ok else f"rejected: {line}", file=sys.stdout if ok else sys.stderr)
    return 0 if ok else 1


def _parse_ids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise SizeError(f"expected space-separated vertex ids, got {text!r}") from None


def _jcell(value: object):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, frozenset, set)):
        return sorted(value) if isinstance(value, (set, frozenset)) else list(value)
    return value


def _json_table(name: str, columns, rows, summary=None) -> str:
    """The ``--format json`` table: one object per row, keyed by column."""
    payload = {
        "name": name,
        "columns": list(columns),
        "rows": [{c: _jcell(v) for c, v in zip(columns, row)} for row in rows],
    }
    if summary is not None:
        payload["summary"] = {k: _jcell(v) for k, v in summary.items()}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    H = build_host(args.kind, args.n, args.k, args.d, args.p, args.seed)
    _emit(dumps_khg(H), args.out)
    return 0


def _cmd_pm(args) -> int:
    H = read_khg(args.input)
    res = find_perfect_matching(H, budget=args.budget)
    if res.status == "perfect":
        out = args.out or f"{args.input}.matching"
        _emit(dumps_matching(res.matching), out)
        print(f"perfect matching with {len(res.matching.edges)} edges -> {out}")
        return 0
    print(
        f"no perfect matching: status={res.status} "
        f"uncovered={len(res.uncovered)} nodes={res.nodes_explored}",
        file=sys.stderr,
    )
    return 1


def _cmd_mdk(args) -> int:
    routes = ("pruned", "unpruned") if args.route == "both" else (args.route,)
    witness_file = f"{args.out}.witness.khg" if args.out else ""
    rows = []
    outcomes = set()
    witness = None
    for route in routes:
        tick = time.perf_counter()
        rec = exact_dirac_threshold(args.n, args.k, args.d, route=route)
        seconds = time.perf_counter() - tick
        witness = rec.extremal_witness
        outcomes.add((rec.m_value, witness.edges))
        ratio = Fraction(rec.m_value, comb(args.n - args.d, args.k - args.d))
        rows.append(
            (
                args.n,
                args.k,
                args.d,
                rec.m_value,
                ratio,
                witness_file,
                rec.graphs_enumerated,
                f"{seconds:.3f}",
            )
        )
    if len(outcomes) != 1:
        values = sorted({m for m, _ in outcomes})
        why = f"m values {values}" if len(values) > 1 else "witnesses differ"
        print(f"route disagreement: {why}", file=sys.stderr)
        return 1
    if args.out and witness is not None:
        write_khg(witness, witness_file, comment=f"extremal witness for n={args.n} k={args.k} d={args.d}")
    table = _json_table if args.format == "json" else dumps_table
    _emit(table("mdk", MDK_COLUMNS, rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    H = read_khg(args.input)
    try:
        m = parse_matching(read_text(args.matching))
        ok, why = verify_matching(H, m, require_perfect=args.perfect)
    except _INPUT_ERRORS as exc:
        ok, why = False, str(exc)
    return _verdict(ok, f"{len(m.edges)} edges, {len(m.covered)} vertices covered" if ok else why)


def _cmd_absorber(args) -> int:
    if args.action == "find":
        host = read_khg(args.input)
        forbidden = _parse_ids(args.forbidden) if args.forbidden else ()
        A = find_rooted_absorber(
            host,
            _parse_ids(args.roots),
            args.order_cap,
            forbidden=forbidden,
            budget=args.budget,
            min_order=args.min_order,
        )
        _emit(dumps_absorber(A) + "\n", args.out)
        return 0
    if args.action == "verify":
        host = read_khg(args.host) if args.host else None
        try:
            A = parse_absorber(read_text(args.input).strip())
            ok, why = verify_absorber(A, host)
            if ok and args.sparsity is not None and not is_k_sparse(A, args.sparsity):
                ok, why = False, f"not {args.sparsity}-sparse"
        except _INPUT_ERRORS as exc:
            ok, why = False, str(exc)
        return _verdict(ok, f"order {A.order} on roots {' '.join(map(str, A.roots))}" if ok else why)

    # contract: build the standard two-interior contractible shape on a
    # complete 3-graph and collapse its rooted triples. Each interior places
    # every pattern edge but its 3 root edges on a fresh vertex, beside the 9
    # rooted vertices, so this default host fits both exactly.
    n = args.n
    if n is None:
        n = 9 + 2 * (len(pattern_for(args.K, args.q).edges) - 3)
    host = Hypergraph.complete(n, 3)
    rooted = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    col1, col2 = (1, 4, 7), (2, 5, 8)
    base = set(range(9))
    sub1 = find_sparse_r_absorber(
        host, col1, args.K, q=args.q, seed=derived_seed(args.seed, 0), forbidden=base - set(col1)
    )
    sub2 = find_sparse_r_absorber(
        host,
        col2,
        args.K,
        q=args.q,
        seed=derived_seed(args.seed, 1),
        forbidden=(base - set(col2)) | (sub1.vertices - set(col1)),
    )
    CA = assemble_contractible((0, 3, 6), rooted, (sub1, sub2), host)
    C = contract_absorber(CA)
    dens = k_density(C.graph)
    print(
        f"contracted: n={C.graph.n} m={len(C.graph.edges)} "
        f"girth={girth(C.graph)} k_density={dens.value}"
    )
    if args.out:
        write_khg(C.graph, args.out, comment=f"contracted absorber K={args.K}")
    return 0


def _cmd_template(args) -> int:
    if args.action == "build":
        if not args.out:
            print("template build needs --out (it writes a .khg plus sidecar)", file=sys.stderr)
            return 2
        if args.mode == "compact":
            T = compact_template(args.r, args.k)
        else:
            T = build_resilient_template(args.r, args.k, seed=args.seed)
        write_template(T, args.out)
        print(f"template: r={T.r} k={T.k} v={T.T.n} edges={len(T.T.edges)}")
        return 0
    try:
        T = read_template(args.input)
        rep = verify_resilient_template(T, mode=args.mode, samples=args.samples, seed=args.seed)
    except _INPUT_ERRORS as exc:
        return _verdict(False, str(exc))
    if rep.ok:
        return _verdict(True, f"mode={rep.mode} removals_checked={rep.checked}")
    bad = " ".join(map(str, rep.violating))
    return _verdict(False, f"removal [{bad}] leaves no perfect matching")


def _cmd_pipeline(args) -> int:
    H = read_khg(args.input)
    params = PipelineParams()
    if args.params:
        # "lambda" is the documented spelling of lam, a Python keyword
        params = parse_key_values(read_text(args.params), PipelineParams, aliases={"lambda": "lam"})
    report = dirac_perfect_matching(H, args.d, args.gamma, params=params, seed=args.seed)
    _emit(report.to_json(), args.out)
    if report.status == "success" and report.matching is not None and args.out:
        write_matching(Matching.from_edges(report.matching), args.out + ".matching")
    return 0 if report.status == "success" else 1


def _cmd_experiment(args) -> int:
    cfg = read_config(args.config)
    result = run_experiment(args.kind, cfg)
    out = args.out or (cfg.out or None)
    if args.format == "json":
        _emit(_json_table(cfg.name, result.columns, experiment_rows(result), result.summary), out)
    else:
        _emit(experiment_csv(result), out)
        if out:
            for line in summary_lines(result):
                print(line)
    return 0


# ---------------------------------------------------------------------------
# parser


def _count(text: str, low: int = 0) -> int:
    """argparse type for an integer of at least ``low``, by default a
    nonnegative one."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(
            f"must be at least {low}, got {value}" if low else f"must be nonnegative, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="diraclab",
        description="Degree thresholds and perfect matchings in uniform hypergraphs.",
    )
    top.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    top.add_argument("--out", default=None, help="write the primary artifact here instead of stdout")
    top.add_argument("--format", choices=("csv", "json"), default="csv", help="table output encoding")
    top.add_argument(
        "--budget", type=_count, default=None, help="search node budget where a search runs"
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a hypergraph as .khg")
    gen.add_argument("kind", choices=("random", "complete", "space", "parity"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--d", type=int, default=1, help="degree parameter for the barrier kinds")
    gen.add_argument("--p", type=float, default=0.5, help="edge probability for kind random")
    gen.set_defaults(func=_cmd_gen)

    pm = sub.add_parser("pm", help="exact perfect-matching search on a .khg file")
    pm.add_argument("--in", dest="input", required=True)
    pm.set_defaults(func=_cmd_pm)

    mdk = sub.add_parser("mdk", help="exact Dirac threshold by full enumeration")
    mdk.add_argument("--n", type=int, required=True)
    mdk.add_argument("--k", type=int, required=True)
    mdk.add_argument("--d", type=int, required=True)
    mdk.add_argument("--route", choices=("pruned", "unpruned", "both"), default="both")
    mdk.set_defaults(func=_cmd_mdk)

    ab = sub.add_parser("absorber", help="find, verify, or contract absorbers")
    absub = ab.add_subparsers(dest="action", required=True)
    abf = absub.add_parser("find", help="exact rooted-absorber search")
    abf.add_argument("--in", dest="input", required=True)
    abf.add_argument("--roots", required=True, help="space-separated vertex ids")
    abf.add_argument("--forbidden", default="", help="space-separated vertex ids to avoid")
    abf.add_argument("--order-cap", type=int, default=None, help="largest absorber order (default 2k)")
    abf.add_argument("--min-order", type=_count, default=0)
    abv = absub.add_parser("verify", help="check a stored absorber record")
    abv.add_argument("--in", dest="input", required=True)
    abv.add_argument("--host", default=None, help="optional .khg whose edges must contain the absorber")
    # every Berge cycle has at least 2 edges, so a bound below 3 passes all
    abv.add_argument(
        "--sparsity", type=partial(_count, low=3), default=None,
        help="also require Berge girth >= this (at least 3)",
    )
    abc = absub.add_parser("contract", help="build and collapse the two-interior shape (k=3)")
    abc.add_argument("--K", type=int, required=True, help="sparsity level for the interior absorbers")
    abc.add_argument("--q", type=int, default=3)
    abc.add_argument("--n", type=int, default=None, help="host size override")
    ab.set_defaults(func=_cmd_absorber)

    tp = sub.add_parser("template", help="build or verify matching templates")
    tpsub = tp.add_subparsers(dest="action", required=True)
    tpb = tpsub.add_parser("build")
    tpb.add_argument("--r", type=int, required=True)
    tpb.add_argument("--k", type=int, required=True)
    tpb.add_argument("--mode", choices=("resilient", "compact"), default="resilient")
    tpv = tpsub.add_parser("verify")
    tpv.add_argument("--in", dest="input", required=True, help="path base written by template build")
    tpv.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto")
    tpv.add_argument("--samples", type=_count, default=500)
    tp.set_defaults(func=_cmd_template)

    pl = sub.add_parser("pipeline", help="end-to-end perfect matching construction")
    plsub = pl.add_subparsers(dest="action", required=True)
    plr = plsub.add_parser("run")
    plr.add_argument("--in", dest="input", required=True)
    plr.add_argument("--d", type=int, required=True)
    plr.add_argument("--gamma", type=float, required=True)
    plr.add_argument("--params", default=None, help="key = value file of pipeline knobs")
    pl.set_defaults(func=_cmd_pipeline)

    ex = sub.add_parser("experiment", help="seeded experiment batches from a config file")
    ex.add_argument("kind", choices=EXPERIMENTS)
    ex.add_argument("--config", required=True)
    ex.set_defaults(func=_cmd_experiment)

    ver = sub.add_parser("verify", help="re-check a stored matching against its graph")
    ver.add_argument("--matching", required=True, help="matching file")
    ver.add_argument("--in", dest="input", required=True, help="the matched graph (.khg)")
    ver.add_argument("--perfect", action="store_true", help="the matching must also be perfect")
    ver.set_defaults(func=_cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NotFound as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except (*_INPUT_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
