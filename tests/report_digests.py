"""Digests of the CLI's output on a fixed list of calls, for a byte check.

For each call it prints one line: the sha256 and the exit code of (exit
code, stdout, stderr, sorted tree of OUT), then the argv. The CLI runs
in-process, from the lapbounds on sys.path, with COLUMNS=80. Each call gets
a fresh temporary directory OUT, whose path reads OUT in the output: a fuzz
call writes its --out-dir there, and GRAPH in a call names the edge list
EDGES, written there as graph.el. It needs only the standard library and a
C compiler, so any CPython 3.10+ can run it.

tests/report_digests.txt holds the lines every report must keep, and
test_cli.py's TestReportDigests compares them on every CPython 3.10-3.13 it
can start. A change that moves a report on purpose, or edits CALLS,
records the file again and says why in CHANGES.md:

    PYTHONPATH=src python3 tests/report_digests.py > tests/report_digests.txt

pytest does not collect it (its name does not start with test_).
"""
import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

# two triangles joined by the edge (2, 3)
EDGES = "# a test graph\n6 7\n0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n"

CALLS = [
    "fuzz --seed 7 --count 100 --model gnp",
    "fuzz --seed 7 --count 100 --model gnp --format csv",
    "fuzz --seed 7 --count 100 --model tree",
    "fuzz --seed 7 --count 100 --model tree --format csv",
    "fuzz --seed 7 --count 100 --model clique-union",
    "fuzz --seed 7 --count 100 --model clique-union --format csv",
    "fuzz --seed 7 --count 150 --n-min 4 --n-max 40",
    "fuzz --seed 7 --count 3 --model gnp --p 0.001 --n-min 12 --n-max 12",
    "fuzz --seed 7 --count 64 --n-min 2 --n-max 64",
    "sweep --family K:3..64",
    "sweep --family S:3..64",
    "sweep --family TREE:3..64:1",
    "sweep --family GNP:3..20:0.3:5",
    "sweep --family K:3..12 --format csv",
    "check --family K:4",
    "check --family GNP:64:0.01:1",
    "invariants --family P:6",
    "invariants --family P:6 --format csv",
    "invariants --family K:64",
    "invariants --family GNP:64:0.5:1",
    "invariants --family GNP:64:0.5:1 --format csv",
    "invariants --family CLIQUES:3,2",
    "invariants --family K:1",
    "-h",
    "bogus",
    "sweep",
    "fuzz -h",
    "sweep --fam K:3",
    "fuzz --cou 2",
    "fuzz --seed -5 --count 2",
    "check --family K:4 --alphas -2,-1",
    "check --family K:4 --bounds=--",
    "sweep --family K:3 --alphas=--",
    "sweep --family=--",
    "fuzz --count 1 --p=--",
    "fuzz --count 1 --model=--",
    "fuzz --count=--",
    "check --graph GRAPH",
    "check --graph GRAPH --format csv --ks 1,3",
    "invariants --graph GRAPH",
    "check --family K:4 --strict-applicability",
    "check --family GNP:12:0.3:2 --strict-applicability --format csv",
    "check --family C:6 --bounds LEE_R2C_T,KF_NEW,LEE_R2A_T",
    "check --family P:4 --alphas=-1,2 --ks 1,2",
    "invariants --family P:6 --ks 1,3,5",
    "sweep --family TREE:3..12:4 --ks 2,4 --format csv",
    "sweep --family Kme:3..64",
    "sweep --family GNP:3..64:0.9:2",
    "sweep --family Kab:1..20:3",
    "sweep --family C:3..64",
    "sweep --family CLIQUES:3,3,2",
    "sweep --family P:3..64 --alphas=-200",
    "check --family K:4 --ks 100000",
    "fuzz --seed 7 --count 100 --bounds P2_LOWER,KF_NEW,KF_ZT",
    "fuzz --seed 7 --count 100 --bounds P2_LOWER,KF_NEW,KF_ZT "
    "--strict-applicability",
]


def digest(main, call: str) -> str:
    """The sha256 and exit code of one call, as one line with its argv."""
    argv = call.split()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp, "out")
        if argv[0] == "fuzz":
            argv += ["--out-dir", str(out_dir)]
        if "GRAPH" in argv:
            out_dir.mkdir()
            graph = out_dir / "graph.el"
            graph.write_text(EDGES)
            argv = [str(graph) if arg == "GRAPH" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        tree = sorted((str(p.relative_to(out_dir)), p.read_bytes())
                      for p in out_dir.rglob("*") if p.is_file())
        texts = [s.getvalue().replace(str(out_dir), "OUT") for s in (out, err)]
    blob = repr((code, *texts, tree)).encode()
    return f"{hashlib.sha256(blob).hexdigest()} {code} {call}"


def run() -> None:
    os.environ["COLUMNS"] = "80"
    from lapbounds.cli import main
    for call in CALLS:
        print(digest(main, call))


if __name__ == "__main__":
    run()
