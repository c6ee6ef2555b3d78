"""Freeze the outputs the benchmark's gate expects into expected.json.

    python3 perfbench/make_expected.py

Run this only at a commit whose outputs are known to be right: the gate
treats every later difference as a failed operation.  It takes about two
minutes, most of it in ``check --all`` on each perturbed table.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads
from workloads import SCALES, key, sha256_file, sha256_json


def main() -> None:
    mods = run.import_program()
    base = run.ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))

    def call(*argv) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mods.cli.main(["--output", "json", "--no-cache", *map(str, argv)])
        return rc, out.getvalue(), err.getvalue()

    def lift(k: int, b: int) -> Path:
        path = work / f"k{k}_b{b}.json"
        if not path.exists():
            rc, out, _ = call("lift", "--weight", k, "--bound", b, "--out", path)
            assert rc == 0, (k, b)
            payload = json.loads(out)
            expected["lift"][key(k, b)] = {
                "sha256": sha256_file(path),
                "nonzero_entries": payload["nonzero_entries"],
                "first_coefficient": payload["first_coefficient"],
            }
        return path

    def check(table: Path) -> tuple:
        rc, out, _ = call("check", table, "--all")
        reports = json.loads(out)["reports"]
        summary = [[r["kind"], r["p"], r["checked"], r["skipped"], len(r["violations"])] for r in reports]
        return rc, {"summary": summary, "sha256": sha256_json(reports)}

    expected = {"source_sha256": run.source_digest(), "lift": {}, "check": {}, "eigen": {},
                "perturbed": {}, "classify_sk": {}}
    try:
        for scale in SCALES.values():
            for k, b in scale.lifts:
                lift(k, b)
            k, b, primes = scale.clean
            rc, expected["check"][key(k, b)] = check(lift(k, b))
            assert rc == 0, (k, b)
            rc, out, _ = call("eigen", lift(k, b), "--primes", primes)
            expected["eigen"][key(k, b, primes)] = json.loads(out)["records"]
            k, b, primes = scale.perturbed
            table, bad = lift(k, b), work / "perturbed.json"
            frozen = expected["perturbed"][key(k, b)] = {}
            for index in workloads.perturbation_candidates(b):
                workloads.perturb_table(table, bad, index)
                rc_check, report = check(bad)
                rc_eigen, _, err = call("eigen", bad, "--primes", primes)
                # kept only when both commands see the change
                if rc_check == 1 and rc_eigen == 1:
                    frozen[key(*index)] = {"check": report, "eigen_stderr": err}
            for k, p in scale.sk:
                mu_p, mu_p2 = workloads.sk_record(k, p)
                records = work / "sk.jsonl"
                records.write_text(workloads.record_line(k, p, mu_p, mu_p2) + "\n")
                rc, out, _ = call("classify", records, "--scan", scale.scan)
                expected["classify_sk"][key(k, p, scale.scan)] = sha256_json(json.loads(out)["records"][0])
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            base.rmdir()
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
