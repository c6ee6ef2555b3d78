"""Freeze the outputs of a fixed list of in-process ``cli.main`` runs into golden.json.

    PYTHONPATH=src python3 tests/make_golden.py

Run this only at a commit whose outputs are known to be right:
``test_golden`` treats every later difference as a failure.  An entry holds
the exit code and the sha256 of stdout, of stderr and of each file the run
writes.  Every run passes ``--no-cache`` and works in one scratch directory
through relative paths, so no digest depends on where it ran.  The runs:

- ``lift`` at k = 10, 12 and 14, bounds 1-12, in all three formats;
- ``check --all`` and ``eigen --out`` on clean, perturbed and fractional
  tables of bound 4 and 6, and ``classify`` at two scan depths on the
  records ``eigen`` wrote and on seeded records, all in three formats;
- one input for each up-front refusal.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from sklift import cli

GOLDEN = Path(__file__).resolve().parent / "golden.json"
FORMATS = ("human", "json", "csv")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _edit_table(src: Path, dst: Path, edit) -> None:
    """Copy a table file with every entry value v replaced by ``edit(index, v)``."""
    data = json.loads(src.read_text())
    entries = []
    for n, r, m, num, den in data["entries"]:
        v = edit((n, r, m), Fraction(int(num), int(den)))
        if v:
            entries.append([n, r, m, str(v.numerator), str(v.denominator)])
    data["entries"] = entries
    dst.write_text(json.dumps(data))


def _seeded_records(seed: int) -> list:
    """Record lines with small integer and fractional eigenvalues."""
    rng = random.Random(seed)
    lines = []
    for _ in range(8):
        k, p = rng.choice([10, 12, 16, 20]), rng.choice([2, 3, 5, 7])
        den = rng.choice([1, 1, 2, 9])
        mu_p = Fraction(rng.randint(-4, 4) * p ** (k - 2), den)
        mu_p2 = Fraction(rng.randint(-50, 50) * p ** (2 * k - 4), den * den)
        lines.append(json.dumps({"weight": k, "p": p, "mu_p": str(mu_p), "mu_p2": str(mu_p2)}))
    return lines


def collect(work: Path) -> dict:
    """Run every command of the corpus in ``work``; name -> entry."""
    out = {}

    def run(*argv) -> int:
        argv = ["--no-cache", *map(str, argv)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        files = {}
        for flag, value in zip(argv, argv[1:]):
            if flag == "--out" and (work / value).is_file():
                files[value] = _sha((work / value).read_bytes())
        out[" ".join(argv)] = {
            "exit": rc,
            "stdout": _sha(stdout.getvalue().encode()),
            "stderr": _sha(stderr.getvalue().encode()),
            "files": files,
        }
        return rc

    previous = os.getcwd()
    os.chdir(work)
    try:
        for fmt in FORMATS:
            for k in (10, 12, 14):
                for bound in range(1, 13):
                    run("--output", fmt, "lift", "--weight", k, "--bound", bound, "--out", f"k{k}_b{bound}.json")
        tables = []
        for k, bound, index in ((10, 6, (1, 1, 2)), (12, 4, (2, 1, 2))):
            clean = f"k{k}_b{bound}.json"
            _edit_table(work / clean, work / f"bad_{clean}", lambda i, v: v + 1 if i == index else v)
            _edit_table(work / clean, work / f"thirds_{clean}", lambda i, v: v / 3)
            tables += [clean, f"bad_{clean}", f"thirds_{clean}"]
        for fmt in FORMATS:
            for table in tables:
                run("--output", fmt, "check", table, "--all")
                run("--output", fmt, "eigen", table, "--primes", 2, "--out", f"{fmt}_{table}l")
        # what eigen wrote from the clean and the fractional tables, then seeded records
        written = [path.read_text() for path in sorted(work.glob("json_*.jsonl"))]
        (work / "records.jsonl").write_text("".join(written) + "\n".join(_seeded_records(1)) + "\n")
        for fmt in FORMATS:
            for scan in (0, 20):
                run("--output", fmt, "classify", "records.jsonl", "--scan", scan)
        # one input for each up-front refusal
        run("lift", "--weight", 10, "--bound", 101, "--out", "wide_lift.json")
        data = json.loads((work / "k10_b4.json").read_text())
        (work / "wide.json").write_text(json.dumps({**data, "bound": 100000}))
        run("check", "wide.json", "--maass")
        run("check", "k10_b4.json", "--maass-p", 101)
        run("eigen", "k10_b4.json", "--primes", 3)
        (work / "heavy.json").write_text(json.dumps({**data, "weight": 200000000}))
        run("check", "heavy.json", "--maass")
        run("check", "heavy.json", "--maass-p", 2)
        run("eigen", "heavy.json", "--primes", 2)
        for name, weight, mu, scan in (("deep", 200000, 1, 50), ("unprintable", 2000000, 1, 0),
                                       ("heavy", 200000000, 1, 0), ("heavy", 200000000, 1, 50),
                                       ("heavy0", 200000000, 0, 0), ("heavy0", 200000000, 0, 50)):
            (work / f"{name}.jsonl").write_text(
                json.dumps({"weight": weight, "p": 2, "mu_p": str(mu), "mu_p2": str(mu)}) + "\n")
            run("classify", f"{name}.jsonl", "--scan", scan)
    finally:
        os.chdir(previous)
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = collect(Path(tmp))
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
