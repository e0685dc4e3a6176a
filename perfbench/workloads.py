"""The benchmark's workloads: the CLI calls of a pass and their output checks.

A pass is a fixed list of ``lapbounds`` CLI calls made from the workload name
and seed. Every call's output is checked on its own (exit code, report
structure, counterexample files, closed forms) and projected onto its
verdicts; the projection of a whole pass is digested and compared with the
recorded reference. ``predicted_equality``, ``agreement`` and the float
values stay out of the projection.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

DEFAULT_SEED = 7

SMALL_MODELS = ("gnp", "tree", "clique-union")
# fuzz draws n at random, and the cost of a graph grows like n^2..n^3, so one
# call per n with a fixed count per n keeps a pass's cost the same on every
# seed (a single --count 100 call varies by 6-10% IQR across seeds)
SMALL_NS = tuple(range(4, 13))
SMALL_COUNT = 12
# one gnp graph per n, for the same reason
LARGE_NS = tuple(range(32, 65, 8))
# sweep K:3..64 as eight calls of up to eight n, so the kernel is sampled
# every ~0.3 s instead of around one call of 1.2-2.2 s
SWEEP_RANGES = tuple((lo, min(lo + 7, 64)) for lo in range(3, 65, 8))

# rows per graph under the default grids (alphas -2,-1,-0.5,0.5,2,3; ks 1..4)
PARAMS_PER_BOUND = {
    "P1_LOWER": 2, "P1_UPPER": 1, "P2_LOWER": 3, "KF_NEW": 1, "KF_ZT": 1,
    "KF_COMPARE": 1, "R1_TREE_HIGH": 5, "R1_TREE_LOW": 1, "RP_MOMENT": 4,
    "LEE_DEGREE": 1, "LEE_TREE": 1, "LEE_CLIQUE": 1, "LEE_R2A_M": 1,
    "LEE_R2A_T": 1, "LEE_R2B": 1, "LEE_R2C_M1": 1, "LEE_R2C_T": 1,
}
ROWS_PER_GRAPH = sum(PARAMS_PER_BOUND.values())
S_ALPHA_BOUNDS = ("P1_LOWER", "P1_UPPER", "P2_LOWER", "RP_MOMENT")
CLOSED_FORM_REL_TOL = 1e-9
VERDICT_EXIT_CODES = (0, 2, 3)

WORKLOADS = ("fuzz-small", "fuzz-large", "sweep-K")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass."""

    argv: tuple[str, ...]
    graphs: int
    out_dir: Optional[Path]  # fuzz calls write counterexamples here


def seeded(workload: str) -> bool:
    return workload != "sweep-K"


def pass_calls(workload: str, seed: int, out_root: Path) -> list[Call]:
    """The calls of one pass; fuzz calls get fresh dirs under out_root."""
    if workload == "fuzz-small":
        return [Call(("fuzz", "--model", model, "--seed", str(seed),
                      "--count", str(SMALL_COUNT), "--n-min", str(n),
                      "--n-max", str(n), "--p", "0.5",
                      "--out-dir", str(out_root / f"{model}-n{n}")),
                     SMALL_COUNT, out_root / f"{model}-n{n}")
                for model in SMALL_MODELS for n in SMALL_NS]
    if workload == "fuzz-large":
        return [Call(("fuzz", "--model", "gnp", "--seed", str(seed),
                      "--count", "1", "--n-min", str(n), "--n-max", str(n),
                      "--out-dir", str(out_root / f"n{n}")),
                     1, out_root / f"n{n}")
                for n in LARGE_NS]
    if workload == "sweep-K":
        return [Call(("sweep", "--family", f"K:{lo}..{hi}"), hi - lo + 1, None)
                for lo, hi in SWEEP_RANGES]
    raise ValueError(f"unknown workload {workload!r}")


def _edge_list_text(n: int, edges: list) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def _check_fuzz(call: Call, report: dict) -> tuple[list[str], dict]:
    problems: list[str] = []
    argv = call.argv
    model = argv[argv.index("--model") + 1]
    count = int(argv[argv.index("--count") + 1])
    config = report["config"]
    if (config["model"], config["count"]) != (model, count):
        problems.append(f"config {config} does not match {argv}")
    sizes = report["corpus"]["sizes"]
    gen_failures = report["corpus"]["generation_failures"]
    if len(sizes) != count:
        problems.append(f"{len(sizes)} sizes for count {count}")
    if gen_failures:
        problems.append(f"generation failures {gen_failures}")
    evaluated = count - len(gen_failures)
    tallies = report["tallies"]
    if set(tallies) != set(PARAMS_PER_BOUND):
        problems.append(f"tallied bounds {sorted(tallies)}")
    for bid, tally in tallies.items():
        want = evaluated * PARAMS_PER_BOUND.get(bid, 0)
        if sum(tally.values()) != want:
            problems.append(f"{bid}: {sum(tally.values())} verdicts, "
                            f"want {want}")
    for name, tally in report["majorization"].items():
        if sum(tally.values()) != evaluated:
            problems.append(f"{name}: {sum(tally.values())} outcomes, "
                            f"want {evaluated}")
    violations = report["violations"]
    violated = sum(t["violated"] for t in tallies.values())
    if len(violations) != violated:
        problems.append(f"{len(violations)} violation records, "
                        f"{violated} tallied")
    files = set()
    for v in violations:
        i = v["index"]
        if v["graph_id"] != f"{model}-{i}" or not 0 <= i < count:
            problems.append(f"bad violation id {v['graph_id']}")
            continue
        if v["n"] != sizes[i] or v["m"] != len(v["edges"]):
            problems.append(f"{v['graph_id']}: n/m do not match the record")
        if v["file"] != f"{v['bound_id']}_{i}.el":
            problems.append(f"{v['graph_id']}: file name {v['file']}")
            continue
        files.add(v["file"])
        path = call.out_dir / v["file"]
        if not path.is_file() or path.read_text() != _edge_list_text(
                v["n"], v["edges"]):
            problems.append(f"{v['graph_id']}: counterexample file "
                            f"{path.name} missing or wrong")
    grone_files = sum(t["fails"] for t in report["majorization"].values())
    on_disk = sum(1 for _ in call.out_dir.iterdir())
    if on_disk != len(files) + grone_files:
        problems.append(f"{on_disk} counterexample files, want "
                        f"{len(files)} + {grone_files}")
    projection = {
        "sizes": sizes,
        "tallies": tallies,
        "majorization": report["majorization"],
        "violations": [{key: v[key] for key in ("index", "graph_id",
                                                "bound_id", "param", "n", "m",
                                                "edges", "file")}
                       for v in violations],
    }
    return problems, projection


def _check_sweep(call: Call, rows: list) -> tuple[list[str], list]:
    problems: list[str] = []
    lo, hi = map(int, call.argv[-1][len("K:"):].split(".."))
    if len(rows) != call.graphs * ROWS_PER_GRAPH:
        problems.append(f"{len(rows)} rows, want "
                        f"{call.graphs * ROWS_PER_GRAPH}")
    ids = [f"K:{n}" for n in range(lo, hi + 1) for _ in range(ROWS_PER_GRAPH)]
    if [r["graph_id"] for r in rows] != ids[:len(rows)]:
        problems.append("graph ids out of order")
    for r in rows:
        if r["bound_id"] in S_ALPHA_BOUNDS and r["applicable"]:
            # K_n: eigenvalue n with multiplicity n - 1, plus one 0
            n = r["n"]
            want = (n - 1) * float(n) ** r["param"]
            if abs(r["lhs"] - want) > CLOSED_FORM_REL_TOL * abs(want):
                problems.append(f"{r['graph_id']} {r['bound_id']}"
                                f"({r['param']}): lhs {r['lhs']} != {want}")
    projection = [[r["graph_id"], r["bound_id"], r["param"], r["verdict"]]
                  for r in rows]
    return problems, projection


def check_call(call: Call, exit_code: int,
               text: str) -> tuple[list[str], object]:
    """Problems found in one call's output, and its verdict projection."""
    if exit_code not in VERDICT_EXIT_CODES:
        return [f"exit code {exit_code}"], None
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"], None
    try:
        if call.out_dir is None:
            return _check_sweep(call, report)
        return _check_fuzz(call, report)
    except (KeyError, TypeError, IndexError, ValueError, OSError) as exc:
        return [f"malformed report: {exc!r}"], None


def digest(obj: object) -> str:
    """sha256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
