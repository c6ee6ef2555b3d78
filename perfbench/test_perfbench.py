"""Self-test of the benchmark at the tiny input size (about half a minute).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MODS = run.import_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload: str, trace: bool = False, expected: dict | None = None) -> dict:
    result, record = run.run(MODS, workload, seed=7, seconds=0, trace=trace,
                             scale="tiny", expected=expected)
    result["problems"] = record["problems"]
    return result


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = tiny(workload, trace)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def wrong_table_digest(e):
    e["lift"]["12,4"]["sha256"] = "0" * 64


def wrong_eigenvalue(e):
    e["eigen"]["12,4,2"][0]["mu_p"] = "2785"


def wrong_violation_count(e):
    for frozen in e["perturbed"]["12,4"].values():
        frozen["check"]["summary"][1][4] += 1


def wrong_classification(e):
    for name in e["classify_sk"]:
        e["classify_sk"][name] = "0" * 64


@pytest.mark.parametrize("workload, corrupt", [
    ("lift", wrong_table_digest),
    ("verify", wrong_eigenvalue),
    ("verify", wrong_violation_count),
    ("verify", wrong_classification),
])
def test_gate_catches_a_wrong_expected_value(workload, corrupt):
    expected = copy.deepcopy(run.load_expected())
    corrupt(expected)
    result = tiny(workload, expected=expected)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1


def test_reference_matches_the_program_where_they_overlap():
    from sklift.elliptic import eigenforms
    from sklift.siegel import reduce_index

    for k in (10, 12, 14):
        f = eigenforms(2 * k - 2, 8)[0]
        assert [reference.elliptic_ap(k, p) for p in (2, 3, 5, 7)] == [f.a(p) for p in (2, 3, 5, 7)]
    for n in range(1, 15):
        for m in range(1, 15):
            for r in range(-12, 13):
                if 4 * n * m > r * r:
                    assert reference.reduce_form(n, r, m) == reduce_index(n, r, m)


def test_refuses_to_run_without_the_program():
    base = run.ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=base))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
