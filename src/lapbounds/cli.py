"""Command-line harness: invariants, bound checks, seeded fuzzing, sweeps.

Exit codes for every subcommand: 0 when no verdict is VIOLATED and every
agreement flag is true, 2 when any verdict is VIOLATED, 3 when an agreement
failure is the only problem, 1 for usage and parse errors.

Output is deterministic for a fixed (configuration, seed): no timestamps or
absolute paths ever enter a report, counterexample files are referenced by
basename, and repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
from pathlib import Path
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence, Union)

from .bounds import (BOUND_IDS, EQUALITY, HOLDS, NOT_APPLICABLE, VIOLATED,
                     BoundResult, GraphContext, _legal, evaluate_catalog)
from .errors import (LapboundsError, NoNonzeroEigenvaluesError, ParseError,
                     RetryExhaustedError)
from .families import FamilySpec, generate, gnp_connected, iter_family, random_tree
from .graphs import Graph, format_edge_list, parse_edge_list
from .majorization import check_grone, check_grone_merris
from .rng import SplitMix64, splitmix64
from .spectra import Spectrum, spanning_trees_exact, spectra_of

MAX_N = 64  # vertex cap for --graph, --family, sweep specs and fuzz n-max
# check, sweep and fuzz solve this many consecutive instances at a time, the
# graphs of one n as one stack; only one n-group of a chunk is alive at once
FUZZ_CHUNK = 64

CSV_COLUMNS = ("graph_id", "n", "m") + BoundResult._fields


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 (2 is taken by VIOLATED)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt_real(x: float) -> str:
    """Shortest decimal that round-trips back to the same float."""
    return repr(float(x))


def _fmt_cell(value) -> str:
    """A CSV cell: empty for None, true/false, floats as _fmt_real."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_real(value)
    return str(value)


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _parse_grid(text: str, kind: str,
                number: Callable[[str], Union[float, int]]) -> tuple:
    """A comma-separated --alphas (kind "alpha", number float) or --ks
    (kind "k", number int) grid, each value checked as the catalog checks
    it."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            val = number(tok)
        except ValueError:
            raise ParseError(f"bad {kind} {tok!r}") from None
        out.append(_legal(kind, val))
    return tuple(out)


def _parse_bounds(text: Optional[str]) -> Optional[tuple[str, ...]]:
    if text is None:
        return None
    ids = tuple(_legal("bound", tok.strip())
                for tok in text.split(",") if tok.strip())
    if not ids:
        raise ParseError("empty bound filter")
    return ids


# an instance is (index, graph_id, n, build): its vertex count is known
# before build() makes the graph
_Instance = tuple[int, str, int, Callable[[], Graph]]


class _Record(NamedTuple):
    """What the report needs of one instance, once its graph is dropped."""

    index: int
    graph_id: str
    n: int
    m: Optional[int]  # None when the instance could not be generated
    results: list[BoundResult]
    # fuzz only: the outcome, "holds" or "fails", of each majorization check
    # that ran, and the report entries of the VIOLATED verdicts
    majorization: Optional[dict[str, str]] = None
    violations: tuple[dict, ...] = ()


def _rows_to_csv(rows: list[dict], columns=CSV_COLUMNS) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt_cell(row[col]) for col in columns] for row in rows)
    return buf.getvalue()


def _rows_to_json(rows: list[dict]) -> str:
    """json.dumps(rows, indent=2), byte for byte, for a list of flat dicts,
    through json's C encoder, which cannot indent.

    The encoder puts each key of a row on its own line with the item
    separator; only the framing of the rows is added here. An encoded
    string holds no raw newline, a key starts with a quote and an encoded
    scalar never ends in "}", so "},\n    {" occurs only between two rows,
    and a row's body is empty only for an empty dict.
    """
    if not rows:
        return "[]"
    text = json.dumps(rows, separators=(",\n    ", ": "))
    return "[\n  " + ",\n  ".join(
        "{\n    " + body + "\n  }" if body else "{}"
        for body in text[2:-2].split("},\n    {")) + "\n]"


def _emit(args, report: Union[list, dict]) -> None:
    """Print a report as JSON or as CSV.

    A report is a list of rows over CSV_COLUMNS (check, sweep, fuzz CSV),
    written by _rows_to_json or _rows_to_csv, or a document (fuzz JSON,
    invariants), written by json.dumps(indent=2) or as key-value CSV rows.
    """
    if args.format == "json":
        print(_rows_to_json(report) if isinstance(report, list)
              else json.dumps(report, indent=2))
    elif isinstance(report, list):
        sys.stdout.write(_rows_to_csv(report))
    else:
        sys.stdout.write(_rows_to_csv(
            [{"key": key, "value": json.dumps(value)
              if isinstance(value, (dict, list)) else value}
             for key, value in report.items()], ("key", "value")))


def _exit_code(results: Sequence[BoundResult]) -> int:
    if any(r.verdict == VIOLATED for r in results):
        return 2
    if any(not r.agreement for r in results):
        return 3
    return 0


def _check_cap(n: int, what: str, parser: _Parser) -> None:
    if n > MAX_N:
        parser.error(f"{what} has {n} vertices, above the cap of {MAX_N}")


def _checked_specs(args, parser: _Parser, allow_range: bool) -> list[FamilySpec]:
    """Parse --family and apply the vertex cap before any graph is built.

    A range is expanded lazily, so a huge one stops at its first spec above
    the cap instead of being built whole.
    """
    specs = []
    for spec in iter_family(args.family, allow_range=allow_range):
        _check_cap(spec.order, spec.label(), parser)
        specs.append(spec)
    return specs


def _resolve_input(args, parser: _Parser) -> _Instance:
    """The one instance that --graph or --family names."""
    if bool(args.graph) == bool(args.family):
        parser.error("exactly one of --graph and --family is required")
    if args.graph:
        g = parse_edge_list(Path(args.graph).read_text())
        _check_cap(g.n, args.graph, parser)
        return 0, Path(args.graph).name, g.n, lambda: g
    spec, = _checked_specs(args, parser, allow_range=False)
    return 0, args.family.strip(), spec.order, functools.partial(generate, spec)


def _grids(args) -> tuple:
    """The parsed --alphas, --ks and --bounds."""
    return (_parse_grid(args.alphas, "alpha", float),
            _parse_grid(args.ks, "k", int), _parse_bounds(args.bounds))


def _majorization_checks() -> dict[str, Callable]:
    """The fuzz report's majorization checks; GRONE needs a connected graph."""
    return {"GRONE": check_grone, "GRONE_MERRIS": check_grone_merris}


def _record(index: int, graph_id: str, g: Graph, spec: Spectrum, args, grids,
            out_dir: Optional[Path]) -> _Record:
    """Evaluate one solved graph; with out_dir (fuzz) also run the
    majorization checks and write the graph's counterexample files."""
    alphas, ks, bound_ids = grids
    ctx = GraphContext(g, spec)
    results = evaluate_catalog(g, alphas, ks,
                               strict_applicability=args.strict_applicability,
                               bound_ids=bound_ids, ctx=ctx)
    if out_dir is None:
        return _Record(index, graph_id, g.n, g.m, results)
    violated = [r for r in results if r.verdict == VIOLATED]
    edges = [list(e) for e in g.edges] if violated else None
    violations = tuple({
        "index": index,
        "graph_id": graph_id,
        "bound_id": r.bound_id,
        "param": r.param,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "margin": r.margin,
        "n": g.n,
        "m": g.m,
        "edges": edges,  # one list, shared by the graph's entries
        "file": f"{r.bound_id}_{index}.el",
    } for r in violated)
    majorization = {
        name: "holds" if check(ctx.degrees, ctx.spec).holds else "fails"
        for name, check in _majorization_checks().items()
        if name != "GRONE" or ctx.gclass.is_connected}
    # several violated parameters of one bound share one file
    files = dict.fromkeys([v["file"] for v in violations]
                          + [f"{name}_{index}.el" for name, outcome
                             in majorization.items() if outcome == "fails"])
    if files:
        text = format_edge_list(g)
        for fname in files:
            (out_dir / fname).write_text(text)
    return _Record(index, graph_id, g.n, g.m, results, majorization,
                   violations)


def _solve_group(group: list[_Instance], args, grids,
                 out_dir: Optional[Path]) -> list[_Record]:
    """Build the graphs of one n, solve them as one stack and evaluate them;
    the graphs die when this returns.

    With out_dir (fuzz) an instance that cannot be generated gives a record
    without m; otherwise its RetryExhaustedError ends the run.
    """
    records, built = [], []
    for index, graph_id, n, build in group:
        try:
            built.append((index, graph_id, build()))
        except RetryExhaustedError:
            if out_dir is None:
                raise
            records.append(_Record(index, graph_id, n, None, []))
    spectra = spectra_of([g for _, _, g in built])
    for (index, graph_id, g), spec in zip(built, spectra):
        records.append(_record(index, graph_id, g, spec, args, grids, out_dir))
    return records


def _records(instances: Iterable[_Instance], args, grids,
             out_dir: Optional[Path] = None) -> Iterator[_Record]:
    """The solve stage: one record per instance, in index order.

    Instances are taken FUZZ_CHUNK at a time. Within a chunk the graphs of
    one n are built, solved together by spectra_of, evaluated and dropped
    before the next n is built, so only one n-group of graphs is alive.
    Groups go by declared n: a built graph of another n ends the run with
    spectra_of's ValueError.
    """
    instances = iter(instances)
    while chunk := list(itertools.islice(instances, FUZZ_CHUNK)):
        groups: dict[int, list[_Instance]] = {}  # keyed by n
        for instance in chunk:
            groups.setdefault(instance[2], []).append(instance)
        records = {rec.index: rec for group in groups.values()
                   for rec in _solve_group(group, args, grids, out_dir)}
        yield from (records[index] for index, *_ in chunk)


def _report(args, records: Iterable[_Record],
            fuzz: Optional[dict] = None) -> int:
    """Fold the records into the report, print it, return the exit code.

    Without fuzz (check, sweep, fuzz CSV) the report is the rows. With fuzz
    (fuzz JSON) it is that aggregate report, whose empty tallies and lists
    are filled in here.
    """
    rows: list[dict] = []
    code = 0
    for rec in records:
        # exit codes in rising severity: clean, agreement failure, VIOLATED
        code = max(code, _exit_code(rec.results), key=(0, 3, 2).index)
        if fuzz is None:
            rows.extend({"graph_id": rec.graph_id, "n": rec.n, "m": rec.m,
                         **r._asdict()} for r in rec.results)
            continue
        fuzz["corpus"]["sizes"].append(rec.n)
        if rec.m is None:
            fuzz["corpus"]["generation_failures"].append(
                {"index": rec.index, "n": rec.n})
            continue
        fuzz["violations"].extend(rec.violations)
        for r in rec.results:
            fuzz["tallies"][r.bound_id][r.verdict.lower()] += 1
            if not r.agreement:
                fuzz["agreement_failures"].append({
                    "index": rec.index,
                    "graph_id": rec.graph_id,
                    "bound_id": r.bound_id,
                    "param": r.param,
                    "verdict": r.verdict,
                    "predicted_equality": r.predicted_equality,
                })
        for name, tally in fuzz["majorization"].items():
            tally[rec.majorization.get(name, "skipped")] += 1
    _emit(args, rows if fuzz is None else fuzz)
    return code


def cmd_invariants(args, parser: _Parser) -> int:
    _, graph_id, _, build = _resolve_input(args, parser)
    alphas = _parse_grid(args.alphas, "alpha", float)
    ks = _parse_grid(args.ks, "k", int)
    g = build()
    ctx = GraphContext(g)
    spec = ctx.spec

    s_vals: dict[str, Optional[float]] = {}
    for a in sorted(alphas):
        try:
            s_vals[_fmt_real(a)] = ctx.s_alpha(a)
        except NoNonzeroEigenvaluesError:
            s_vals[_fmt_real(a)] = None
    t_vals = {str(k): ctx.s_alpha(k) for k in sorted(ks)}

    _emit(args, {
        "graph_id": graph_id,
        "n": g.n,
        "m": g.m,
        "degrees": list(ctx.degrees),
        "conjugate": list(ctx.conjugate),
        "component_count": spec.component_count,
        "h": spec.h,
        "spectrum": [_sig12(v) for v in spec.mu],
        "s_alpha": s_vals,
        "moments": t_vals,
        "kirchhoff": ctx.kirchhoff if spec.component_count == 1 else None,
        "lee": ctx.lee_value,
        "first_zagreb": ctx.zagreb,
        "spanning_trees": str(spanning_trees_exact(g)),
    })
    return 0


def cmd_check(args, parser: _Parser) -> int:
    instance = _resolve_input(args, parser)
    return _report(args, _records([instance], args, _grids(args)))


def cmd_sweep(args, parser: _Parser) -> int:
    specs = _checked_specs(args, parser, allow_range=True)
    grids = _grids(args)
    return _report(args, _records(
        ((i, spec.label(), spec.order, functools.partial(generate, spec))
         for i, spec in enumerate(specs)), args, grids))


def _fuzz_sizes(rng: SplitMix64, n: int) -> tuple[int, ...]:
    """Random clique sizes summing to n, blocks of at most 5."""
    sizes = []
    remaining = n
    while remaining > 0:
        s = 1 + rng.below(min(remaining, 5))
        sizes.append(s)
        remaining -= s
    return tuple(sizes)


def _fuzz_graph(model: str, rng: SplitMix64, n: int, p: float) -> Graph:
    if model == "gnp":
        return gnp_connected(n, p, rng.next_u64())
    if model == "tree":
        return random_tree(n, rng.next_u64())
    return generate(FamilySpec(kind="clique_union", sizes=_fuzz_sizes(rng, n)))


def _fuzz_instances(args) -> Iterator[_Instance]:
    """One instance per index, each with its own stream: n is drawn from it
    first, and the graph from the rest of it when the instance is built."""
    for i in range(args.count):
        rng = SplitMix64(splitmix64(args.seed, i))
        n = rng.randrange(args.n_min, args.n_max)
        yield i, f"{args.model}-{i}", n, functools.partial(
            _fuzz_graph, args.model, rng, n, args.p)


def cmd_fuzz(args, parser: _Parser) -> int:
    grids = _grids(args)
    alphas, ks, bound_ids = grids
    if args.count < 1:
        parser.error("--count must be >= 1")
    if not (2 <= args.n_min <= args.n_max <= MAX_N):
        parser.error(f"need 2 <= n-min <= n-max <= {MAX_N}")
    if not (0.0 < args.p <= 1.0):
        parser.error("--p must lie in (0, 1]")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = _records(_fuzz_instances(args), args, grids, out_dir)
    if args.format == "csv":
        return _report(args, records)
    active = bound_ids if bound_ids is not None else BOUND_IDS
    report = {
        "config": {
            "seed": args.seed,
            "count": args.count,
            "model": args.model,
            "p": args.p,
            "n_min": args.n_min,
            "n_max": args.n_max,
            "alphas": list(alphas),
            "ks": list(ks),
            "strict_applicability": args.strict_applicability,
            "bounds": list(active),
        },
        "corpus": {"sizes": [], "generation_failures": []},
        "tallies": {bid: {v.lower(): 0 for v in (HOLDS, EQUALITY, VIOLATED,
                                                 NOT_APPLICABLE)}
                    for bid in active},
        "majorization": {name: {"holds": 0, "fails": 0, "skipped": 0}
                         for name in _majorization_checks()},
        "violations": [],
        "agreement_failures": [],
    }
    return _report(args, records, report)


def build_parser() -> _Parser:
    parser = _Parser(prog="lapbounds",
                     description="Laplacian spectral invariants and "
                                 "degree-sequence bound verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--alphas", default="-2,-1,-0.5,0.5,2,3",
                       help="comma-separated exponent grid (avoid 0 and 1); "
                            "use --alphas=-2,... for negative leading values")
        p.add_argument("--ks", default="1,2,3,4",
                       help="comma-separated integer moment orders, each >= 1")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_catalog_filters(p: _Parser) -> None:
        p.add_argument("--bounds", help="comma-separated bound ids")
        p.add_argument("--strict-applicability", action="store_true",
                       help="mark merged-sequence non-monotone cases "
                            "NOT_APPLICABLE for P2_LOWER and KF_NEW")

    def add_graph_input(p: _Parser) -> None:
        p.add_argument("--graph", help="path to an edge-list file")
        p.add_argument("--family", help="family DSL string, e.g. K:4")

    p_inv = sub.add_parser("invariants", help="print invariants")
    add_graph_input(p_inv)
    add_common(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_check = sub.add_parser("check", help="evaluate the bound catalog")
    add_graph_input(p_check)
    add_common(p_check)
    add_catalog_filters(p_check)
    p_check.set_defaults(func=cmd_check)

    p_fuzz = sub.add_parser("fuzz", help="seeded random corpus evaluation")
    add_common(p_fuzz)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--model", choices=("gnp", "tree", "clique-union"),
                        default="gnp")
    p_fuzz.add_argument("--p", type=float, default=0.5,
                        help="edge probability for the gnp model")
    p_fuzz.add_argument("--n-min", type=int, default=4)
    p_fuzz.add_argument("--n-max", type=int, default=12)
    p_fuzz.add_argument("--out-dir", default="counterexamples",
                        help="directory for violating edge lists")
    add_catalog_filters(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_sweep = sub.add_parser("sweep", help="evaluate a family range")
    p_sweep.add_argument("--family", required=True,
                         help="family DSL string, ranges allowed, e.g. K:3..12")
    add_common(p_sweep)
    add_catalog_filters(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (LapboundsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # an exponent grid beyond the float range
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
