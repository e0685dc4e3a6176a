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
import io
import json
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .bounds import (BOUND_IDS, BoundResult, GraphContext, evaluate_catalog,
                     EQUALITY, NOT_APPLICABLE, VIOLATED)
from .errors import (LapboundsError, NoNonzeroEigenvaluesError, ParseError,
                     RetryExhaustedError)
from .families import FamilySpec, generate, gnp_connected, iter_family, random_tree
from .graphs import (Graph, conjugate_sequence, degree_sequence, first_zagreb,
                     format_edge_list, parse_edge_list)
from .majorization import check_grone, check_grone_merris
from .rng import SplitMix64, splitmix64
from .spectra import (Spectrum, kirchhoff, lee, moment, s_alpha,
                      spanning_trees_exact, spectra_of, spectrum)

MAX_N = 64  # vertex cap for --graph, --family, sweep specs and fuzz n-max
# fuzz generates and solves this many consecutive instances at a time: enough
# to stack the graphs that share an n, few enough to bound memory
FUZZ_CHUNK = 64

DEFAULT_ALPHAS = (-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)
DEFAULT_KS = (1, 2, 3, 4)

CSV_COLUMNS = ("graph_id", "n", "m", "bound_id", "param", "applicable",
               "lhs", "rhs", "margin", "verdict", "predicted_equality",
               "agreement")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 (2 is taken by VIOLATED)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt_real(x: float) -> str:
    """Shortest decimal that round-trips back to the same float."""
    return repr(float(x))


def _fmt_param(param) -> str:
    if param is None:
        return ""
    if isinstance(param, int):
        return str(param)
    return _fmt_real(param)


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _parse_alphas(text: str) -> tuple[float, ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            val = float(tok)
        except ValueError:
            raise ParseError(f"bad alpha {tok!r}") from None
        if val != val or val in (float("inf"), float("-inf")):
            raise ParseError(f"alpha must be finite, got {tok!r}")
        if val in (0.0, 1.0):
            raise ParseError("alpha grid must avoid the trivial exponents 0 and 1")
        out.append(val)
    if not out:
        raise ParseError("empty alpha grid")
    return tuple(out)


def _parse_ks(text: str) -> tuple[int, ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            val = int(tok)
        except ValueError:
            raise ParseError(f"bad k {tok!r}") from None
        if val < 1:
            raise ParseError(f"k must be >= 1, got {val}")
        out.append(val)
    if not out:
        raise ParseError("empty k grid")
    return tuple(out)


def _parse_bounds(text: Optional[str]) -> Optional[tuple[str, ...]]:
    if text is None:
        return None
    ids = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for bid in ids:
        if bid not in BOUND_IDS:
            raise ParseError(f"unknown bound id {bid!r}")
    if not ids:
        raise ParseError("empty bound filter")
    return ids


def _result_row(graph_id: str, g: Graph, r: BoundResult) -> dict:
    return {
        "graph_id": graph_id,
        "n": g.n,
        "m": g.m,
        "bound_id": r.bound_id,
        "param": r.param,
        "applicable": r.applicable,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "margin": r.margin,
        "verdict": r.verdict,
        "predicted_equality": r.predicted_equality,
        "agreement": r.agreement,
    }


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row["graph_id"],
            row["n"],
            row["m"],
            row["bound_id"],
            _fmt_param(row["param"]),
            _fmt_bool(row["applicable"]),
            "" if row["lhs"] is None else _fmt_real(row["lhs"]),
            "" if row["rhs"] is None else _fmt_real(row["rhs"]),
            "" if row["margin"] is None else _fmt_real(row["margin"]),
            row["verdict"],
            _fmt_bool(row["predicted_equality"]),
            _fmt_bool(row["agreement"]),
        ])
    return buf.getvalue()


def _emit(args, rows: list[dict]) -> None:
    if args.format == "csv":
        sys.stdout.write(_rows_to_csv(rows))
    else:
        print(json.dumps(rows, indent=2))


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
        # vertex count: the clique sizes, n, or the sides a + b of Kab
        order = sum(spec.sizes) if spec.sizes else spec.n or spec.a + spec.b
        _check_cap(order, spec.label(), parser)
        specs.append(spec)
    return specs


def _resolve_graph(args, parser: _Parser) -> tuple[str, Graph]:
    if bool(args.graph) == bool(args.family):
        parser.error("exactly one of --graph and --family is required")
    if args.graph:
        g = parse_edge_list(Path(args.graph).read_text())
        _check_cap(g.n, args.graph, parser)
        return Path(args.graph).name, g
    specs = _checked_specs(args, parser, allow_range=False)
    return args.family.strip(), generate(specs[0])


def cmd_invariants(args, parser: _Parser) -> int:
    graph_id, g = _resolve_graph(args, parser)
    alphas = _parse_alphas(args.alphas)
    ks = _parse_ks(args.ks)
    spec = spectrum(g)
    degs = degree_sequence(g)

    s_vals: dict[str, Optional[float]] = {}
    for a in sorted(alphas):
        try:
            s_vals[_fmt_real(a)] = s_alpha(spec, a)
        except NoNonzeroEigenvaluesError:
            s_vals[_fmt_real(a)] = None
    t_vals = {str(k): moment(spec, k) for k in sorted(ks)}

    doc = {
        "graph_id": graph_id,
        "n": g.n,
        "m": g.m,
        "degrees": list(degs),
        "conjugate": list(conjugate_sequence(degs)),
        "component_count": spec.component_count,
        "h": spec.h,
        "spectrum": [_sig12(v) for v in spec.mu],
        "s_alpha": s_vals,
        "moments": t_vals,
        "kirchhoff": kirchhoff(spec) if spec.component_count == 1 else None,
        "lee": lee(spec),
        "first_zagreb": first_zagreb(g),
        "spanning_trees": str(spanning_trees_exact(g)),
    }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "value"))
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                writer.writerow((key, json.dumps(value)))
            elif isinstance(value, float):
                writer.writerow((key, _fmt_real(value)))
            else:
                writer.writerow((key, "" if value is None else value))
        sys.stdout.write(buf.getvalue())
    else:
        print(json.dumps(doc, indent=2))
    return 0


def cmd_check(args, parser: _Parser) -> int:
    graph_id, g = _resolve_graph(args, parser)
    alphas = _parse_alphas(args.alphas)
    ks = _parse_ks(args.ks)
    bound_ids = _parse_bounds(args.bounds)
    results = evaluate_catalog(g, alphas, ks,
                               strict_applicability=args.strict_applicability,
                               bound_ids=bound_ids)
    _emit(args, [_result_row(graph_id, g, r) for r in results])
    return _exit_code(results)


def cmd_sweep(args, parser: _Parser) -> int:
    specs = _checked_specs(args, parser, allow_range=True)
    alphas = _parse_alphas(args.alphas)
    ks = _parse_ks(args.ks)
    bound_ids = _parse_bounds(args.bounds)
    rows: list[dict] = []
    all_results: list[BoundResult] = []
    for spec in specs:
        g = generate(spec)
        results = evaluate_catalog(g, alphas, ks,
                                   strict_applicability=args.strict_applicability,
                                   bound_ids=bound_ids)
        rows.extend(_result_row(spec.label(), g, r) for r in results)
        all_results.extend(results)
    _emit(args, rows)
    return _exit_code(all_results)


def _fuzz_sizes(rng: SplitMix64, n: int) -> tuple[int, ...]:
    """Random clique sizes summing to n, blocks of at most 5."""
    sizes = []
    remaining = n
    while remaining > 0:
        s = 1 + rng.below(min(remaining, 5))
        sizes.append(s)
        remaining -= s
    return tuple(sizes)


def _fuzz_instance(model: str, rng: SplitMix64, n: int, p: float) -> Graph:
    if model == "gnp":
        return gnp_connected(n, p, rng.next_u64())
    if model == "tree":
        return random_tree(n, rng.next_u64())
    return generate(FamilySpec(kind="clique_union", sizes=_fuzz_sizes(rng, n)))


def _fuzz_corpus(args, sizes: list[int], generation_failures: list[dict]
                 ) -> Iterator[tuple[int, Graph, Spectrum]]:
    """Yield (index, graph, spectrum) for each fuzz instance, in index order.

    Instances are generated FUZZ_CHUNK consecutive indices at a time, and
    each chunk's spectra are solved together by spectra_of. Every drawn n
    is appended to sizes, and every instance that could not be generated to
    generation_failures.
    """
    for start in range(0, args.count, FUZZ_CHUNK):
        chunk: list[tuple[int, Graph]] = []
        for i in range(start, min(start + FUZZ_CHUNK, args.count)):
            rng = SplitMix64(splitmix64(args.seed, i))
            n = rng.randrange(args.n_min, args.n_max)
            sizes.append(n)
            try:
                chunk.append((i, _fuzz_instance(args.model, rng, n, args.p)))
            except RetryExhaustedError:
                generation_failures.append({"index": i, "n": n})
        spectra = spectra_of([g for _, g in chunk])
        for (i, g), spec in zip(chunk, spectra):
            yield i, g, spec


def cmd_fuzz(args, parser: _Parser) -> int:
    alphas = _parse_alphas(args.alphas)
    ks = _parse_ks(args.ks)
    bound_ids = _parse_bounds(args.bounds)
    if args.count < 1:
        parser.error("--count must be >= 1")
    if not (2 <= args.n_min <= args.n_max <= MAX_N):
        parser.error(f"need 2 <= n-min <= n-max <= {MAX_N}")
    if not (0.0 < args.p <= 1.0):
        parser.error("--p must lie in (0, 1]")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    active = bound_ids if bound_ids is not None else BOUND_IDS
    tallies = {bid: {"holds": 0, "equality": 0, "violated": 0,
                     "not_applicable": 0} for bid in active}
    majorization = {
        "GRONE": {"holds": 0, "fails": 0, "skipped": 0},
        "GRONE_MERRIS": {"holds": 0, "fails": 0, "skipped": 0},
    }
    violations: list[dict] = []
    agreement_failures: list[dict] = []
    generation_failures: list[dict] = []
    sizes: list[int] = []
    rows: list[dict] = []
    all_results: list[BoundResult] = []

    for i, g, spec in _fuzz_corpus(args, sizes, generation_failures):
        graph_id = f"{args.model}-{i}"
        ctx = GraphContext(g, spec)
        files: list[str] = []  # this graph's counterexample files
        results = evaluate_catalog(g, alphas, ks,
                                   strict_applicability=args.strict_applicability,
                                   bound_ids=bound_ids, ctx=ctx)
        all_results.extend(results)
        if args.format == "csv":
            rows.extend(_result_row(graph_id, g, r) for r in results)
        for r in results:
            tallies[r.bound_id][r.verdict.lower()] += 1
            if r.verdict == VIOLATED:
                fname = f"{r.bound_id}_{i}.el"
                if fname not in files:
                    files.append(fname)
                violations.append({
                    "index": i,
                    "graph_id": graph_id,
                    "bound_id": r.bound_id,
                    "param": r.param,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "margin": r.margin,
                    "n": g.n,
                    "m": g.m,
                    "edges": [list(e) for e in g.edges],
                    "file": fname,
                })
            if not r.agreement:
                agreement_failures.append({
                    "index": i,
                    "graph_id": graph_id,
                    "bound_id": r.bound_id,
                    "param": r.param,
                    "verdict": r.verdict,
                    "predicted_equality": r.predicted_equality,
                })
        for name, check in (("GRONE", check_grone),
                            ("GRONE_MERRIS", check_grone_merris)):
            if name == "GRONE" and (g.n < 2
                                    or ctx.gclass.component_count != 1):
                majorization[name]["skipped"] += 1
                continue
            verdict = check(ctx.degrees, ctx.spec)
            if verdict.holds:
                majorization[name]["holds"] += 1
            else:
                majorization[name]["fails"] += 1
                files.append(f"{name}_{i}.el")
        if files:
            text = format_edge_list(g)
            for fname in files:
                (out_dir / fname).write_text(text)

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
        "corpus": {
            "sizes": sizes,
            "generation_failures": generation_failures,
        },
        "tallies": tallies,
        "majorization": majorization,
        "violations": violations,
        "agreement_failures": agreement_failures,
    }
    if args.format == "csv":
        sys.stdout.write(_rows_to_csv(rows))
    else:
        print(json.dumps(report, indent=2))
    return _exit_code(all_results)


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

    p_inv = sub.add_parser("invariants", parents=[], help="print invariants")
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
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
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
