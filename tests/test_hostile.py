"""Hostile tables, records and flags, each run through ``cli.main`` in-process.

Every draw must end in exit 0, 1 or 2; a failure prints at most one stderr
line, under 300 bytes and with no traceback; a refusal comes within a
second; and an admitted ``check`` covers no more instances than the work
model's estimate.  The draws avoid the weights and primes that the caps
admit but that take seconds to run, so the suite stays fast; the fixed
cases at the end are hostile inputs that were each once a CI step.
"""

import contextlib
import io
import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sklift import cli, work

# weights a table command runs at once, or refuses for every base; the
# admitted shapes are drawn twice as often as the refused ones
weights = st.one_of(st.integers(1, 400), st.integers(1, 400), st.sampled_from([-3, 0]),
                    st.integers(work.BITS_CAP + 1, 10**12))
bounds = st.one_of(st.integers(1, 6), st.integers(1, 6), st.sampled_from([-2, 0]),
                   st.integers(work.BOUND_CAP + 1, 10**6))
# primes the p-checker runs at once on these bounds, or refuses
maass_ps = st.one_of(st.integers(-3, 7), st.integers(10**4, 10**40))
scans = st.one_of(st.integers(-3, 60), st.integers(10**3, 10**30))
values = st.one_of(
    st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30).map(str),
    st.fractions(max_denominator=10**6).map(str), st.sampled_from([0, "0", 1, "-1/3"]), st.just("0"),
    st.sampled_from(["x", "1/0", "", "2.5", 2.5, True, None, [1], "9" * 5000, "1" + "0" * 4400]),
)
# record weights and primes classify runs at once, or refuses
record_weights = st.one_of(st.integers(5, 60).map(lambda h: 2 * h), st.integers(5, 60).map(lambda h: 2 * h),
                           st.integers(2**24, 10**12), st.sampled_from([-4, 0, 9, "10", 10.5]))
primes = st.one_of(st.sampled_from([2, 3, 5, 7, 101, 2**61 - 1]), st.sampled_from([2, 3, 5, 7, 101, 2**61 - 1]),
                   st.sampled_from([4, 1, 0, -2, "2", 10**600 + 1]))


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("hostile")
    assert cli.main(["--no-cache", "lift", "--weight", "10", "--bound", "4", "--out", str(path / "t4.json")]) == 0
    return path


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    seconds = time.perf_counter() - start
    err = err.getvalue()
    assert rc in (0, 1, 2), (argv, rc, err)
    assert err.count("\n") <= 1 and len(err.encode()) < 300 and "Traceback" not in err, (argv, err)
    if rc == 2:
        assert err.startswith("error: ") and err.endswith("\n"), (argv, err)
        assert seconds < 1, (argv, seconds)
    return rc, out.getvalue(), err


def write_table(directory, weight, bound, untrimmed):
    data = json.loads((directory / "t4.json").read_text())
    data.update(weight=weight, bound=bound)
    if not untrimmed:
        data["entries"] = [e for e in data["entries"] if e[2] <= bound]
    path = directory / "drawn.json"
    path.write_text(json.dumps(data))
    return path


@given(weights, bounds, st.booleans(), st.lists(maass_ps, max_size=2), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_hostile_check(work_dir, weight, bound, untrimmed, ps, maass, every):
    table = write_table(work_dir, weight, bound, untrimmed)
    argv = ["--output", "json", "check", table] + ["--maass"] * maass + ["--all"] * every
    argv += [x for p in ps for x in ("--maass-p", p)]
    rc, out, _ = run(argv)
    if rc == 2 and not out:
        return
    for report in json.loads(out)["reports"]:
        if report["kind"] == "maass-p":
            assert report["checked"] + report["skipped"] <= work.maass_p_instances(report["p"], bound)


eigen_primes = st.lists(st.one_of(st.integers(-3, 13), st.integers(10**20, 10**4000)), min_size=1, max_size=3)
formats = st.sampled_from(["human", "json", "csv"])


@given(weights, bounds, st.booleans(), eigen_primes, formats)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_hostile_eigen(work_dir, weight, bound, untrimmed, ps, fmt):
    table = write_table(work_dir, weight, bound, untrimmed)
    run(["--output", fmt, "eigen", table, "--primes", ",".join(map(str, ps))])


@given(st.lists(st.fixed_dictionaries({"weight": record_weights, "p": primes, "mu_p": values, "mu_p2": values}),
                min_size=1, max_size=3), scans, formats)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_hostile_classify(work_dir, records, scan, fmt):
    path = work_dir / "drawn.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    run(["--output", fmt, "classify", path, "--scan", scan])


SK_RECORD = json.dumps({"weight": 10, "p": 2, "mu_p": "240", "mu_p2": "135424"})

# the first eleven were each a hostile-input step of CI's console-script job,
# the rest are refusals that no draw above reaches: the input (a classify
# file's one record, or its text), the exit code, the one stderr line, a byte
# cap where it had one, and the time bound (10 s; a refusal's is the 1 s
# every run above is held to)
CI_CASES = [
    ("float", "classify", {"weight": 10.9, "p": 2, "mu_p": "240", "mu_p2": "135424"}, [], 2),
    ("pseudoprime", "classify", {"weight": 10, "p": 318665857834031151167461, "mu_p": "1", "mu_p2": "1"}, [], 2),
    ("deep", "classify", {"weight": 200000, "p": 2, "mu_p": "1", "mu_p2": "1"}, ["--scan", 50], 2),
    ("unprintable", "classify", {"weight": 2000000, "p": 2, "mu_p": "1", "mu_p2": "1"}, ["--scan", 0], 2),
    ("zeros", "classify", {"weight": 2000000, "p": 2, "mu_p": "0", "mu_p2": "0"}, ["--scan", 0], 0),
    ("letters", "classify", {"weight": 10, "p": 2, "mu_p": "x" * 5000, "mu_p2": "1"}, [], 2),
    ("heavy", "eigen", {"weight": 2000000}, ["--primes", 2], 1),
    ("wide", "check", {"bound": 100000}, ["--maass"], 2),
    ("huge-prime", "eigen", {}, ["--primes", 10**4000 + 11], 2),
    ("lift-bound", "lift", None, ["--weight", 10, "--bound", 100000], 2),
    ("dev-full", "lift", None, ["--weight", 10, "--bound", 4, "--out", "/dev/full"], 2),
    ("two-eigenforms", "lift", None, ["--weight", 16, "--bound", 4], 2),
    ("no-primes", "eigen", {}, ["--primes", ","], 2),
    ("blank-file", "classify", "\n  \n\n", [], 2),
    ("blank-between", "classify", f"{SK_RECORD}\n\n \n{SK_RECORD}\n", [], 0),
]


@pytest.mark.parametrize("name, command, fields, flags, code", CI_CASES, ids=[c[0] for c in CI_CASES])
def test_former_ci_inputs(work_dir, name, command, fields, flags, code):
    if name == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    if command == "classify":
        path = work_dir / f"{name}.jsonl"
        path.write_text(fields if isinstance(fields, str) else json.dumps(fields) + "\n")
        argv = ["classify", path, *flags]
    elif command in ("eigen", "check"):
        data = json.loads((work_dir / "t4.json").read_text())
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps({**data, **fields}))
        argv = [command, path, *flags]
    else:
        argv = ["--no-cache", "lift", *flags]
    start = time.perf_counter()
    rc, _, err = run(argv)
    assert time.perf_counter() - start < 10
    assert rc == code
    assert err.count("\n") == (0 if code == 0 else 1)
