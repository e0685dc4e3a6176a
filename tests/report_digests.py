"""Digests of the CLI's output on a fixed list of calls, for a byte check.

For each call it prints one line: the sha256 and the exit code of (exit
code, stdout, stderr, sorted --out-dir tree), then the argv. The CLI runs
in-process, from the lapbounds on sys.path, with COLUMNS=80; each fuzz call
writes to a fresh temporary --out-dir, whose path reads OUT in the output.
Run it on two trees and diff the lines:

    PYTHONPATH=src python3 tests/report_digests.py > new.txt
    PYTHONPATH=../parent/src python3 tests/report_digests.py > old.txt

pytest does not collect it (its name does not start with test_).
"""
import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

CALLS = [
    "fuzz --seed 7 --count 100 --model gnp",
    "fuzz --seed 7 --count 100 --model gnp --format csv",
    "fuzz --seed 7 --count 100 --model tree",
    "fuzz --seed 7 --count 100 --model tree --format csv",
    "fuzz --seed 7 --count 100 --model clique-union",
    "fuzz --seed 7 --count 150 --n-min 4 --n-max 40",
    "fuzz --seed 7 --count 3 --model gnp --p 0.001 --n-min 12 --n-max 12",
    "sweep --family K:3..64",
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
]


def digest(main, call: str) -> str:
    """The sha256 and exit code of one call, as one line with its argv."""
    argv = call.split()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp, "out")
        if argv[0] == "fuzz":
            argv += ["--out-dir", str(out_dir)]
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
