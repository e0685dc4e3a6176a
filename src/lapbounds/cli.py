"""Command-line harness: invariants, bound checks, seeded fuzzing, sweeps.

Exit codes for every subcommand: 0 when no verdict is VIOLATED and every
agreement flag is true, 2 when any verdict is VIOLATED, 3 when an agreement
failure is the only problem, 1 for a usage or input error. Five other
causes also exit 1: a numeric overflow in any row; a --family G(n, p) graph
with no connected draw within the retry cap (fuzz lists such an instance
under corpus.generation_failures instead, or with --format csv names it in
a note on stderr); a Jacobi solver that cannot be built (no C compiler, a
compiler error, or a __pycache__ that cannot be written), whose error line
names the compiler command; a failed solve (JacobiConvergenceError or
SpectralInconsistencyError); and an --out-dir that cannot be created.

Output is deterministic for a fixed (configuration, seed): no timestamps or
absolute paths ever enter a report, counterexample files are referenced by
basename, and repeated runs are byte-identical.
"""
from __future__ import annotations

import functools
import io
import itertools
import json
import operator
import sys
import types
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple,
                    NoReturn, Optional, Sequence, Union)

from .bounds import (BOUND_IDS, EQUALITY, HOLDS, NOT_APPLICABLE, VIOLATED,
                     BoundResult, GraphContext, _legal, evaluate_catalog)
from .errors import (LapboundsError, NoNonzeroEigenvaluesError, ParseError,
                     RetryExhaustedError)
from .families import FamilySpec, generate, gnp_connected, iter_family, random_tree
from .graphs import Graph, format_edge_list, parse_edge_list
from .majorization import check_grone, check_grone_merris
from .rng import SplitMix64, splitmix64
from .spectra import Spectrum, spanning_trees_exact, spectra_of

if TYPE_CHECKING:
    import argparse

MAX_N = 64  # vertex cap for --graph, --family, sweep specs and fuzz n-max
# check, sweep and fuzz build and solve this many consecutive instances at a
# time, in one spectra_of call; only one chunk's graphs are alive at once
FUZZ_CHUNK = 64

CSV_COLUMNS = ("graph_id", "n", "m") + BoundResult._fields
# the fuzz report's majorization checks, in report order
MAJORIZATION_CHECKS = ("GRONE", "GRONE_MERRIS")


def _fmt_real(x: float) -> str:
    """Shortest decimal that round-trips back to the same float."""
    return repr(float(x))


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


# an instance is (index, graph_id, n, build): the report gives n for an
# instance that build() cannot generate
_Instance = tuple[int, str, int, Callable[[], Graph]]


def _json_block(items: Sequence[str], indent: str,
                brackets: str = "[]") -> str:
    """json.dumps(indent=2) of a list at this indent, given the JSON of its
    items; with brackets "{}" of a dict, given its '"key": value' members."""
    if not items:
        return brackets
    sep = ",\n  " + indent
    return f"{brackets[0]}{sep[1:]}{sep.join(items)}\n{indent}{brackets[1]}"


def _dict_template(keys: Sequence[str], indent: str) -> str:
    """json.dumps(indent=2) of a dict with these keys at this indent, a %s
    slot for each value."""
    return _json_block([f'"{key}": %s' for key in keys], indent, "{}")


# a row of a row report, up to its result's cells; those cells
_JSON_ROW_START = "{\n    " + "".join(f'"{key}": %s,\n    '
                                       for key in CSV_COLUMNS[:3])
_JSON_CELLS = ",\n    ".join(f'"{key}": %s' for key in BoundResult._fields)
# a fuzz report's violation entry
_JSON_VIOLATION = _dict_template(
    ("index", "graph_id", "bound_id", "param", "lhs", "rhs", "margin", "n",
     "m", "edges", "file"), "    ")
# the counts of one bound's verdicts and of one majorization check's
# outcomes in a fuzz report, in report order
_VERDICTS = (HOLDS, EQUALITY, VIOLATED, NOT_APPLICABLE)
_MAJORIZATION_KEYS = ("holds", "fails", "skipped")
_JSON_TALLY = _dict_template([v.lower() for v in _VERDICTS], "    ")
_JSON_MAJORIZATION = _dict_template(_MAJORIZATION_KEYS, "    ")


def _json_scalars(values: Iterable) -> tuple[str, ...]:
    """The JSON of each scalar, from one call of json's C encoder: with
    ensure_ascii no scalar's JSON holds a newline."""
    text = json.dumps(list(values), separators=("\n", ":"))[1:-1]
    return tuple(text.split("\n")) if text else ()


def _json_dict(d: dict, indent: str, values: Iterable[str]) -> str:
    """json.dumps(indent=2) of d at this indent, given its values' JSON."""
    return _json_block([f"{key}: {value}" for key, value
                        in zip(_json_scalars(d), values)], indent, "{}")


class _Record(NamedTuple):
    """The facts a report needs of one instance, once its graph is dropped;
    the folds, _report and _fuzz_report, render them in either format."""

    index: int
    graph_id: str
    n: int
    m: Optional[int]  # None when the instance could not be generated
    results: list[BoundResult]
    # fuzz only: the outcome, "holds" or "fails", of each majorization check
    # that ran, and the graph's edges when a verdict is VIOLATED
    majorization: Optional[dict[str, str]] = None
    edges: tuple[tuple[int, int], ...] = ()


# a result's cells that depend on its plan row alone, and the others
_PLAN_CELLS = operator.itemgetter(0, 1, 2, 6, 7, 8)
_ROW_VALUES = operator.itemgetter(3, 4, 5)
# row templates by the identity of their plan cells' values: an entry holds
# those values, so no other object can take their ids while it is cached
_ROW_TEMPLATES: dict[tuple[int, ...], tuple[list, list[str]]] = {}
_ROW_TEMPLATES_MAX = 64


def _json_rows(rec: _Record) -> str:
    """The record's rows, as json.dumps(indent=2) writes them in a list.

    Only lhs, rhs and margin are encoded per record, in one encoder call.
    The other cells, bound_id, param and applicable, which the plan row
    fixes, and the verdict and flags, which repeat over a family's graphs,
    come from a template cached by their identities; the record's
    graph_id, n and m then start each row.
    """
    plan = list(map(_PLAN_CELLS, rec.results))
    key = tuple(map(id, itertools.chain.from_iterable(plan)))
    try:
        parts = _ROW_TEMPLATES[key][1]
    except KeyError:
        cells = [text.replace("%", "%%") for text in
                 _json_scalars(itertools.chain.from_iterable(plan))]
        parts = ["", *(_JSON_CELLS % (*cells[i:i + 3], "%s", "%s", "%s",
                                      *cells[i + 3:i + 6]) + "\n  },\n  "
                       for i in range(0, len(cells), 6))]
        parts[-1] = parts[-1][:-len(",\n  ")]  # no separator after the last
        if len(_ROW_TEMPLATES) >= _ROW_TEMPLATES_MAX:
            _ROW_TEMPLATES.clear()
        _ROW_TEMPLATES[key] = plan, parts
    start = _JSON_ROW_START % (json.dumps(rec.graph_id).replace("%", "%%"),
                               rec.n, rec.m)
    return start.join(parts) % _json_scalars(itertools.chain.from_iterable(
        map(_ROW_VALUES, rec.results)))


def _counterexample(name: str, index: int) -> str:
    """The basename of the counterexample file that a VIOLATED bound or a
    failed majorization check, by its id, writes for instance index."""
    return f"{name}_{index}.el"


def _json_violations(rec: _Record, violated: Sequence[BoundResult]) -> str:
    """The fuzz report's violation entries of one record, one for each of
    its VIOLATED results, each naming the result's counterexample file; the
    record's edge block is written once and shared by its entries."""
    pair = _json_block(("%s", "%s"), "        ")
    edges = _json_block([pair % edge for edge in rec.edges], "      ")
    graph_id = json.dumps(rec.graph_id)
    cells = _json_scalars(itertools.chain.from_iterable(
        (r.bound_id, r.param, r.lhs, r.rhs, r.margin,
         _counterexample(r.bound_id, rec.index)) for r in violated))
    return ",\n    ".join([
        _JSON_VIOLATION % (rec.index, graph_id, *cells[i:i + 5], rec.n, rec.m,
                           edges, cells[i + 5])
        for i in range(0, len(cells), 6)])


def _csv_rows(rec: _Record) -> Iterator[tuple]:
    """The record's rows over CSV_COLUMNS, a bool as true or false."""
    for r in rec.results:
        yield (rec.graph_id, rec.n, rec.m, *[
            "true" if c is True else "false" if c is False else c for c in r])


def _rows_to_csv(rows: Iterable[tuple], columns=CSV_COLUMNS) -> str:
    import csv  # only a CSV report loads it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _json_fuzz(*, config: dict, sizes: list[int],
               generation_failures: list[dict], tallies: dict,
               majorization: dict, violations: list[str],
               agreement_failures: list[dict]) -> str:
    """json.dumps(indent=2) of the fuzz report made of these sections, in
    report order, with sizes and generation_failures under corpus. Each
    tally holds its counts in _JSON_TALLY's order and each majorization
    check's in _JSON_MAJORIZATION's; violations holds the JSON text of its
    entries (see _json_violations).

    Counts and indices are ints and print as they are, each bound's and
    check's counts through a fixed template; every other key, string and
    float goes through json's C encoder, so json's pure-Python encoder
    never runs.
    """
    return _dict_template(("config", "corpus", "tallies", "majorization",
                           "violations", "agreement_failures"), "") % (
        _json_dict(config, "  ", (
            _json_block(_json_scalars(value), "    ")
            if isinstance(value, list) else json.dumps(value)
            for value in config.values())),
        _dict_template(("sizes", "generation_failures"), "  ") % (
            _json_block(list(map(str, sizes)), "    "),
            _json_block([_json_dict(failure, "      ",
                                    map(str, failure.values()))
                         for failure in generation_failures], "    ")),
        _json_dict(tallies, "  ", [_JSON_TALLY % tuple(counts.values())
                                   for counts in tallies.values()]),
        _json_dict(majorization, "  ", [
            _JSON_MAJORIZATION % tuple(counts.values())
            for counts in majorization.values()]),
        _json_block(violations, "  "),
        _json_block([_json_dict(failure, "    ",
                                _json_scalars(failure.values()))
                     for failure in agreement_failures], "  "))


def _exit_code(violated: bool, disagreed: bool) -> int:
    """2 when a verdict is VIOLATED, else 3 when an agreement flag is
    false, else 0."""
    return 2 if violated else 3 if disagreed else 0


def _usage_error(message: str) -> NoReturn:
    """Exit 1 with the top-level usage and message, as the full parser's
    error does."""
    build_parser().error(message)


def _check_cap(n: int, what: str) -> None:
    if n > MAX_N:
        _usage_error(f"{what} has {n} vertices, above the cap of {MAX_N}")


def _checked_specs(args, allow_range: bool) -> list[FamilySpec]:
    """Parse --family and apply the vertex cap before any graph is built.

    A range is expanded lazily, so a huge one stops at its first spec above
    the cap instead of being built whole.
    """
    specs = []
    for spec in iter_family(args.family, allow_range=allow_range):
        _check_cap(spec.order, spec.label())
        specs.append(spec)
    return specs


def _resolve_input(args) -> _Instance:
    """The one instance that --graph or --family names."""
    if bool(args.graph) == bool(args.family):
        _usage_error("exactly one of --graph and --family is required")
    if args.graph:
        g = parse_edge_list(Path(args.graph).read_text(), functools.partial(
            _check_cap, what=args.graph))
        return 0, Path(args.graph).name, g.n, lambda: g
    spec, = _checked_specs(args, allow_range=False)
    return 0, args.family.strip(), spec.order, functools.partial(generate, spec)


def _grids(args) -> tuple:
    """The catalog settings (alphas, ks, bound_ids, strict): the parsed
    --alphas, --ks and --bounds, and --strict-applicability."""
    return (_parse_grid(args.alphas, "alpha", float),
            _parse_grid(args.ks, "k", int), _parse_bounds(args.bounds),
            args.strict_applicability)


def _majorization(ctx: GraphContext) -> dict[str, str]:
    """The outcome, "holds" or "fails", of each majorization check that runs
    on ctx's graph; GRONE needs a connected graph."""
    verdicts = {}
    if ctx.gclass.is_connected:
        verdicts["GRONE"] = check_grone(ctx.degrees, ctx.spec)
    verdicts["GRONE_MERRIS"] = check_grone_merris(ctx.degrees, ctx.spec)
    return {name: "holds" if verdict.holds else "fails"
            for name, verdict in verdicts.items()}


def _record(index: int, graph_id: str, g: Graph, spec: Spectrum,
            settings: tuple, out_dir: Optional[Path]) -> _Record:
    """Evaluate one solved graph under the catalog settings of _grids; with
    out_dir (fuzz) also run the majorization checks, write the graph's
    counterexample files and keep its edges when a verdict is VIOLATED.
    The record is the same whatever format the report takes."""
    alphas, ks, bound_ids, strict = settings
    ctx = GraphContext(g, spec)
    results = evaluate_catalog(g, alphas, ks, strict_applicability=strict,
                               bound_ids=bound_ids, ctx=ctx)
    if out_dir is None:
        return _Record(index, graph_id, g.n, g.m, results)
    majorization = _majorization(ctx)
    violated = [r.bound_id for r in results if r.verdict == VIOLATED]
    # several violated parameters of one bound share one file
    failed = [name for name, outcome in majorization.items()
              if outcome == "fails"]
    files = dict.fromkeys(_counterexample(name, index)
                          for name in violated + failed)
    if files:
        text = format_edge_list(g)
        for fname in files:
            (out_dir / fname).write_text(text)
    return _Record(index, graph_id, g.n, g.m, results, majorization,
                   g.edges if violated else ())


def _records(instances: Iterable[_Instance], settings: tuple,
             out_dir: Optional[Path] = None) -> Iterator[_Record]:
    """The solve stage: one record per instance, in index order, under the
    catalog settings of _grids.

    Instances are taken FUZZ_CHUNK at a time: a chunk's graphs are built,
    solved together by one spectra_of call and evaluated one by one, and
    dropped before the next chunk is built. With out_dir (fuzz) an instance
    that cannot be generated gives a record without m; otherwise its
    RetryExhaustedError ends the run.
    """
    instances = iter(instances)
    while chunk := list(itertools.islice(instances, FUZZ_CHUNK)):
        graphs: list[Optional[Graph]] = []
        for *_, build in chunk:
            try:
                graphs.append(build())
            except RetryExhaustedError:
                if out_dir is None:
                    raise
                graphs.append(None)
        spectra = iter(spectra_of([g for g in graphs if g is not None]))
        # a generator expression: no loop variable keeps the chunk's last
        # graph alive while the next chunk is built
        yield from (_Record(index, graph_id, n, None, []) if g is None else
                    _record(index, graph_id, g, next(spectra), settings,
                            out_dir)
                    for (index, graph_id, n, _), g in zip(chunk, graphs))


def _report(args, records: Iterable[_Record]) -> int:
    """Fold the records into a row report (check, sweep, fuzz CSV), print
    it, return the exit code.

    The report is the rows, kept as the JSON text of each record's rows or
    as CSV rows; no row is ever a dict. An instance that could not be
    generated (fuzz CSV) has no rows, and a note on stderr names it.
    """
    rows: list = []
    missing = []
    violated = disagreed = False
    for rec in records:
        violated = violated or any(r.verdict == VIOLATED for r in rec.results)
        disagreed = disagreed or not all(r.agreement for r in rec.results)
        if rec.m is None:
            missing.append(str(rec.index))
        elif args.format == "csv":
            rows.extend(_csv_rows(rec))
        elif rec.results:
            rows.append(_json_rows(rec))
    if args.format == "json":
        print(_json_block(rows, ""))
    else:
        sys.stdout.write(_rows_to_csv(rows))
    if missing:
        print(f"note: {len(missing)} instances could not be generated and "
              f"have no rows: indices {', '.join(missing)}", file=sys.stderr)
    return _exit_code(violated, disagreed)


def _fuzz_report(args, records: Iterable[_Record], grids) -> int:
    """Fold the records into fuzz's JSON report, print it, return the exit
    code.

    Each section of the report is a local here, and _json_fuzz lays them
    out. A bound's tally is keyed by verdict, and each record's VIOLATED
    results, as they are tallied, become its violation entries (see
    _json_violations). _exit_code reads the tallies' VIOLATED counts and
    the agreement failures.
    """
    alphas, ks, bound_ids, strict = grids
    active = BOUND_IDS if bound_ids is None else bound_ids
    config = {
        "seed": args.seed,
        "count": args.count,
        "model": args.model,
        "p": args.p,
        "n_min": args.n_min,
        "n_max": args.n_max,
        "alphas": list(alphas),
        "ks": list(ks),
        "strict_applicability": strict,
        "bounds": list(active),
    }
    sizes, generation_failures, violations, agreement_failures = [], [], [], []
    tallies = {bid: dict.fromkeys(_VERDICTS, 0) for bid in active}
    majorization = {name: dict.fromkeys(_MAJORIZATION_KEYS, 0)
                    for name in MAJORIZATION_CHECKS}
    for rec in records:
        sizes.append(rec.n)
        if rec.m is None:
            generation_failures.append({"index": rec.index, "n": rec.n})
            continue
        violated = []
        for r in rec.results:
            tallies[r.bound_id][r.verdict] += 1
            if r.verdict == VIOLATED:
                violated.append(r)
            if not r.agreement:
                agreement_failures.append({
                    "index": rec.index,
                    "graph_id": rec.graph_id,
                    "bound_id": r.bound_id,
                    "param": r.param,
                    "verdict": r.verdict,
                    "predicted_equality": r.predicted_equality,
                })
        if violated:
            violations.append(_json_violations(rec, violated))
        for name, tally in majorization.items():
            tally[rec.majorization.get(name, "skipped")] += 1
    print(_json_fuzz(config=config, sizes=sizes,
                     generation_failures=generation_failures, tallies=tallies,
                     majorization=majorization, violations=violations,
                     agreement_failures=agreement_failures))
    return _exit_code(any(tally[VIOLATED] for tally in tallies.values()),
                      bool(agreement_failures))


def cmd_invariants(args) -> int:
    _, graph_id, _, build = _resolve_input(args)
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

    doc = {
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
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        sys.stdout.write(_rows_to_csv(
            ((key, json.dumps(value) if isinstance(value, (dict, list))
              else value) for key, value in doc.items()), ("key", "value")))
    return 0


def cmd_check(args) -> int:
    instance = _resolve_input(args)
    return _report(args, _records([instance], _grids(args)))


def cmd_sweep(args) -> int:
    specs = _checked_specs(args, allow_range=True)
    grids = _grids(args)
    return _report(args, _records(
        ((i, spec.label(), spec.order, functools.partial(generate, spec))
         for i, spec in enumerate(specs)), grids))


def _fuzz_sizes(rng: SplitMix64, n: int) -> tuple[int, ...]:
    """Random clique sizes summing to n, blocks of at most 5."""
    sizes = []
    remaining = n
    while remaining > 0:
        s = 1 + rng.below(min(remaining, 5))
        sizes.append(s)
        remaining -= s
    return tuple(sizes)


# each fuzz model, in --model's order, and how it builds an instance's
# n-vertex graph from the rest of the instance's stream and --p
_FUZZ_MODELS: dict[str, Callable[[SplitMix64, int, float], Graph]] = {
    "gnp": lambda rng, n, p: gnp_connected(n, p, rng.next_u64()),
    "tree": lambda rng, n, p: random_tree(n, rng.next_u64()),
    "clique-union": lambda rng, n, p: generate(FamilySpec(
        kind="clique_union", sizes=_fuzz_sizes(rng, n))),
}


def _fuzz_instances(args) -> Iterator[_Instance]:
    """One instance per index, each with its own stream: n is drawn from it
    first, and the graph from the rest of it when the instance is built."""
    for i in range(args.count):
        rng = SplitMix64(splitmix64(args.seed, i))
        n = rng.randrange(args.n_min, args.n_max)
        yield i, f"{args.model}-{i}", n, functools.partial(
            _FUZZ_MODELS[args.model], rng, n, args.p)


def cmd_fuzz(args) -> int:
    grids = _grids(args)
    if args.count < 1:
        _usage_error("--count must be >= 1")
    if not (2 <= args.n_min <= args.n_max <= MAX_N):
        _usage_error(f"need 2 <= n-min <= n-max <= {MAX_N}")
    if not (0.0 < args.p <= 1.0):
        _usage_error("--p must lie in (0, 1]")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = _records(_fuzz_instances(args), grids, out_dir)
    if args.format == "csv":
        return _report(args, records)
    return _fuzz_report(args, records, grids)


class _Option(NamedTuple):
    """One option of a subcommand: argparse declares it from these fields,
    and _read reads it alike. Its dest is the flag's name, "-" read as "_"."""

    flag: str
    type: Callable[[str], Union[str, int, float]] = str
    default: object = None
    choices: Optional[tuple[str, ...]] = None
    store_true: bool = False
    required: bool = False
    help: Optional[str] = None


_COMMON = (
    _Option("--alphas", default="-2,-1,-0.5,0.5,2,3",
            help="comma-separated exponent grid (avoid 0 and 1); "
                 "use --alphas=-2,... for negative leading values"),
    _Option("--ks", default="1,2,3,4",
            help="comma-separated integer moment orders, each >= 1"),
    _Option("--format", default="json", choices=("json", "csv")),
)
_CATALOG_FILTERS = (
    _Option("--bounds", help="comma-separated bound ids"),
    _Option("--strict-applicability", default=False, store_true=True,
            help="mark merged-sequence non-monotone cases "
                 "NOT_APPLICABLE for P2_LOWER and KF_NEW"),
)
_GRAPH_INPUT = (
    _Option("--graph", help="path to an edge-list file"),
    _Option("--family", help="family DSL string, e.g. K:4"),
)

# each subcommand, in usage order: its help line, its options in usage
# order, and the function that runs it
SUBCOMMANDS = {
    "invariants": ("print invariants", _GRAPH_INPUT + _COMMON,
                   cmd_invariants),
    "check": ("evaluate the bound catalog",
              _GRAPH_INPUT + _COMMON + _CATALOG_FILTERS, cmd_check),
    "fuzz": ("seeded random corpus evaluation", _COMMON + (
        _Option("--seed", int, 0),
        _Option("--count", int, 100),
        _Option("--model", default="gnp", choices=tuple(_FUZZ_MODELS)),
        _Option("--p", float, 0.5, help="edge probability for the gnp model"),
        _Option("--n-min", int, 4),
        _Option("--n-max", int, 12),
        _Option("--out-dir", default="counterexamples",
                help="directory for violating edge lists"),
    ) + _CATALOG_FILTERS, cmd_fuzz),
    "sweep": ("evaluate a family range", (
        _Option("--family", required=True,
                help="family DSL string, ranges allowed, e.g. K:3..12"),
    ) + _COMMON + _CATALOG_FILTERS, cmd_sweep),
}


@functools.cache
def _parser_class() -> type[argparse.ArgumentParser]:
    """The CLI's argparse variant, defined when the first parser is built:
    only help texts and usage errors need argparse, so a valid call never
    imports it. Its usage errors exit 1 (2 is taken by VIOLATED), and it
    refuses "--opt=--" as a missing value."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

        def _get_values(self, action, arg_strings):
            # "--opt=--": argparse up to 3.12 drops the "--" and leaves [],
            # 3.13 keeps it as the value; both are refused here, alike
            if action.nargs is None and arg_strings == ["--"]:
                raise argparse.ArgumentError(action, "expected one argument")
            return super()._get_values(action, arg_strings)

    return _Parser


def _declare(parser: argparse.ArgumentParser,
             options: Sequence[_Option]) -> None:
    for opt in options:
        kind = ({"action": "store_true"} if opt.store_true
                else {"type": opt.type, "choices": opt.choices})
        parser.add_argument(opt.flag, default=opt.default,
                            required=opt.required, help=opt.help, **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = _parser_class()(prog="lapbounds",
                             description="Laplacian spectral invariants and "
                                         "degree-sequence bound verification")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, options, _) in SUBCOMMANDS.items():
        _declare(sub.add_parser(command, help=help_line), options)
    return parser


def _read(options: Sequence[_Option], argv: list[str]) -> Optional[dict]:
    """The values, by dest, that argparse reads from argv for these options;
    None unless argv holds only exact flags, each value given as "--flag
    value", not starting with "-", or as "--flag=value", taken verbatim
    unless it is "--", of its option's type and among its choices, no value
    for a store_true flag, and every required option."""
    by_flag = {opt.flag: opt for opt in options}
    given = {}
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        opt = by_flag.get(flag)
        if opt is None or opt.store_true and eq:
            return None
        if opt.store_true:
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, "-")  # a missing value is refused as "-"
            if value.startswith("-"):
                return None
        elif value == "--":  # _Parser refuses it as a missing value
            return None
        try:
            value = opt.type(value)
        except ValueError:
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        given[flag] = value
    if any(opt.required and opt.flag not in given for opt in options):
        return None
    return {opt.flag[2:].replace("-", "_"): given.get(opt.flag, opt.default)
            for opt in options}


def _parse(argv: list[str]) -> types.SimpleNamespace | argparse.Namespace:
    """argv as build_parser() reads it; a valid call builds no parser.

    Each option is declared once, in SUBCOMMANDS. When argv[0] names a
    subcommand, _read reads the rest from that table. Any argv it does not
    take (an abbreviation, -h, --, a positional, a value its type rejects,
    no subcommand, ...) goes to the full parser, so argparse is the
    reference, and renders every help text and usage error.
    """
    values = None
    if argv and argv[0] in SUBCOMMANDS:
        values = _read(SUBCOMMANDS[argv[0]][1], argv[1:])
    if values is None:
        return build_parser().parse_args(argv)
    return types.SimpleNamespace(command=argv[0], **values)


def _run(parse: Callable[[list[str]], argparse.Namespace],
         argv: Sequence[str]) -> int:
    """Run the subcommand that parse reads from argv; the exit code.
    main's parse is _parse; build_parser().parse_args reads argv alike."""
    try:
        args = parse(list(argv))
        _, _, cmd = SUBCOMMANDS[args.command]
        return cmd(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (LapboundsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # an exponent grid beyond the float range
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return _run(_parse, sys.argv[1:] if argv is None else argv)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
