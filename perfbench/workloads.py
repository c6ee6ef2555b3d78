"""Workload inputs, their set-up, and the output gate on every operation.

An operation is one ``sklift`` command line.  Each workload is a fixed list
of operations (one pass) plus the set-up that prepares its inputs; the seed
only chooses among inputs of the same shape, so runs with different seeds do
the same amount of work:

* ``lift``: the seed orders the lift list.
* ``verify``: the seed picks which entry of the (12, 8) table is perturbed,
  and draws the synthetic records to classify and their order.

Every operation's exit code, standard output and written table are compared
with values frozen in ``expected.json`` (made by ``make_expected.py``) or,
for seeded inputs, with values computed in ``reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference

WORKLOADS = ("lift", "verify")


@dataclass(frozen=True)
class Scale:
    lifts: tuple  # (weight, bound) pairs
    clean: tuple  # (weight, bound, eigen primes) of the table checked clean
    perturbed: tuple  # (weight, bound, eigen primes) of the table given one wrong entry
    scan: int
    sk: tuple  # (weight, p) per Saito-Kurokawa record
    unimodular: tuple  # (weight, p) per unimodular-type record
    arbitrary: tuple  # (weight, p) per arbitrary integer pair


SCALES = {
    "full": Scale(
        lifts=((10, 6), (10, 12), (12, 12), (14, 12), (10, 20)),
        clean=(10, 12, "2,3"),
        perturbed=(12, 8, "2"),
        scan=200,
        sk=tuple((k, p) for k in (10, 12, 14) for p in (2, 3, 5, 7)),
        unimodular=tuple((k, p) for k in range(10, 21, 2) for p in (2, 3, 5, 7)),
        arbitrary=tuple((k, p) for k in (10, 12) for p in (2, 3)) * 3,
    ),
    # a few seconds in all; the self-test runs every workload at this size
    "tiny": Scale(
        lifts=((12, 4),),
        clean=(12, 4, "2"),
        perturbed=(12, 4, "2"),
        scan=20,
        sk=((10, 2), (12, 3)),
        unimodular=((12, 3), (14, 5)),
        arbitrary=((10, 2), (12, 3)),
    ),
}

# the set-up of every workload starts by running each command once at the
# tiny size: it fills the program's lazy state (coset classes, compiled
# patterns, deferred imports) and checks that every command works
WARMUP = SCALES["tiny"]


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None
    file_sha256: str | None

    def output(self) -> tuple:
        """What the user sees; traced and untraced runs must agree on it."""
        return (self.rc, self.stdout, self.stderr, self.file_sha256)


@dataclass
class Op:
    command: str
    label: str
    argv: list
    check: Callable[[Outcome], str | None]
    out_file: Path | None = None
    before: Callable[[], None] | None = None


@dataclass
class Workload:
    ops: list
    meta: dict = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def key(*parts) -> str:
    return ",".join(str(p) for p in parts)


def fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def dir_snapshot(path: Path) -> list:
    return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns) for p in path.iterdir())


def perturb_table(src: Path, dst: Path, index: tuple, delta: int = 1) -> None:
    """Copy a table file with the coefficient at a reduced index shifted by ``delta``."""
    data = json.loads(src.read_text())
    entries = {tuple(e[:3]): Fraction(int(e[3]), int(e[4])) for e in data["entries"]}
    entries[index] = entries.get(index, 0) + delta
    data["entries"] = [
        [n, r, m, str(v.numerator), str(v.denominator)]
        for (n, r, m), v in sorted(entries.items())
        if v != 0
    ]
    dst.write_text(json.dumps(data))


def perturbation_candidates(bound: int) -> list:
    """Reduced indices the similitude-2 eigenvalue check compares directly."""
    return [(n, r, m) for m in range(1, bound // 2 + 1) for n in range(1, m + 1) for r in range(n + 1)]


def state(index: tuple | None) -> str:
    return "clean" if index is None else f"perturbed at {index}"


def record_line(k: int, p: int, mu_p, mu_p2) -> str:
    return json.dumps({"weight": k, "p": p, "mu_p": str(mu_p), "mu_p2": str(mu_p2)})


def sk_record(k: int, p: int) -> tuple:
    return reference.sk_eigenvalues(k, p, reference.elliptic_ap(k, p))


def unimodular_record(k: int, p: int, rng: random.Random) -> tuple:
    """A pair x = s + t*sqrt(p), y = -s + t*sqrt(p) with both members in [-2, 2]."""
    s = Fraction(rng.randint(-24, 24), 12)
    while True:
        t = Fraction(rng.randint(-24, 24), 12)
        if t * t * p <= (2 - abs(s)) ** 2:
            return reference.unimodular_record(k, p, s, t)


def arbitrary_record(k: int, p: int, rng: random.Random) -> tuple:
    """Integers on the scale of real eigenvalues.  Weights 10-12 and p <= 3
    keep every discriminant the classifier factors below 10**13 after trial
    division, away from the unbounded factorization of larger inputs."""
    mu_p = rng.randint(-4 * p ** (k - 1), 4 * p ** (k - 1))
    mu_p2 = rng.randint(-20 * p ** (2 * k - 3), 20 * p ** (2 * k - 3))
    return mu_p, mu_p2


class Context:
    """What the gates share within one run: the program, expectations, files."""

    def __init__(self, mods, expected: dict, work: Path, forbidden: list):
        self.mods = mods
        self.expected = expected
        self.work = work
        self.forbidden = forbidden
        self.lifts_verified: set = set()

    # -- gates ---------------------------------------------------------------

    def lift_gate(self, k: int, b: int, out: Path, cache: Path, mode: str):
        """``mode`` is cold (fresh cache) or warm (read-only cache)."""
        want = self.expected["lift"][key(k, b)]
        before = []

        def snapshot():
            before[:] = dir_snapshot(cache)

        def check(o: Outcome) -> str | None:
            if o.rc != 0:
                return f"exit {o.rc}: {o.stderr.strip()}"
            payload = json.loads(o.stdout)
            expect = {
                "table": str(out),
                "weight": k,
                "bound": b,
                "nonzero_entries": want["nonzero_entries"],
                "first_coefficient": want["first_coefficient"],
            }
            if payload != expect:
                return f"output {payload} != {expect}"
            if o.file_sha256 != want["sha256"]:
                return "table digest differs from the frozen one"
            if mode == "warm" and dir_snapshot(cache) != before:
                return "a warm lift wrote to its cache"
            if mode != "warm" and not any(cache.iterdir()):
                return "a cold lift left its cache empty"
            for path in self.forbidden:
                if path.exists():
                    return f"the default cache location {path} was touched"
            if (k, b) not in self.lifts_verified:
                self.lifts_verified.add((k, b))
                return self.lift_invariant(k, out)
            return None

        return check, snapshot

    def lift_invariant(self, k: int, table_file: Path) -> str | None:
        """mu(2) = 2**(k-1) + 2**(k-2) + a(2) on the lifted table."""
        siegel = self.mods.siegel
        table = siegel.SiegelFourierTable.from_json_dict(json.loads(table_file.read_text()))
        want = sk_record(k, 2)[0]
        got = siegel.hecke_eigenvalue(table, 2)
        return None if got == want else f"lift of weight {k} has mu(2) = {got}, expected {want}"

    def check_gate(self, k: int, b: int, index: tuple | None):
        """Clean table when ``index`` is None, else the table perturbed there."""
        if index is None:
            want = self.expected["check"][key(k, b)]
        else:
            want = self.expected["perturbed"][key(k, b)][key(*index)]["check"]

        def check(o: Outcome) -> str | None:
            expect_rc = 0 if index is None else 1
            if o.rc != expect_rc:
                return f"exit {o.rc}, expected {expect_rc}: {o.stderr.strip()}"
            reports = json.loads(o.stdout)["reports"]
            summary = [
                [r["kind"], r["p"], r["checked"], r["skipped"], len(r["violations"])] for r in reports
            ]
            if summary != want["summary"] or sha256_json(reports) != want["sha256"]:
                return f"check reports {summary} differ from the frozen ones"
            for rep in reports:
                for v in rep["violations"]:
                    if index not in reference.relation_lookups(rep["kind"], rep["p"], tuple(v["index"])):
                        return f"violation at {v['index']} does not involve the perturbed entry"
            return None

        return check

    def eigen_gate(self, k: int, b: int, primes: str, index: tuple | None):
        def check(o: Outcome) -> str | None:
            if index is not None:
                want = self.expected["perturbed"][key(k, b)][key(*index)]["eigen_stderr"]
                if o.rc != 1 or o.stdout or o.stderr != want:
                    return f"exit {o.rc} with {o.stderr.strip()!r}, expected exit 1 with {want.strip()!r}"
                return None
            if o.rc != 0:
                return f"exit {o.rc}: {o.stderr.strip()}"
            records = json.loads(o.stdout)["records"]
            if records != self.expected["eigen"][key(k, b, primes)]:
                return f"eigenvalues {records} differ from the frozen ones"
            for rec in records:
                mu_p, mu_p2 = sk_record(k, rec["p"])
                if (rec["mu_p"], rec["mu_p2"]) != (str(mu_p), str(mu_p2)):
                    return f"eigenvalues at p={rec['p']} break the Saito-Kurokawa formulas"
            return None

        return check

    def classify_gate(self, records: list, scan: int):
        """``records`` holds (kind, weight, p, mu_p, mu_p2) in file order."""
        fired = [reference.conditions_fired(k, p, Fraction(a), Fraction(b)) for _, k, p, a, b in records]
        inconsistent = [bool(f) and "eigenvalue-identity" not in f for f in fired]
        expect_rc = 1 if any(inconsistent) else 0

        def check(o: Outcome) -> str | None:
            if o.rc != expect_rc:
                return f"exit {o.rc}, expected {expect_rc}: {o.stderr.strip()}"
            entries = json.loads(o.stdout)["records"]
            if len(entries) != len(records):
                return f"{len(entries)} results for {len(records)} records"
            for (kind, k, p, _, _), f, bad, e in zip(records, fired, inconsistent, entries):
                where = f"{kind} record (k={k}, p={p})"
                if (e["weight"], e["p"]) != (k, p) or e["conditions_fired"] != f or e["inconsistent"] != bad:
                    return f"{where}: criteria {e['conditions_fired']} differ from {f}"
                sk = "eigenvalue-identity" in f
                if e["verdict"] != ("saito-kurokawa" if sk else "not-saito-kurokawa"):
                    return f"{where}: verdict {e['verdict']}"
                if kind == "sk" and sha256_json(e) != self.expected["classify_sk"][key(k, p, scan)]:
                    return f"{where}: report differs from the frozen one"
                if kind == "unimodular" and (
                    e["satake"]["classification"] != "ramanujan"
                    or e["growth"]["first_sharp_violation"] is not None
                    or e["growth"]["first_weak_violation"] is not None
                ):
                    return f"{where}: not reported as unimodular within the growth bounds"
            return None

        return check

    # -- operations ----------------------------------------------------------

    def lift_op(self, k: int, b: int, out: Path, cache: Path, mode: str) -> Op:
        check, snapshot = self.lift_gate(k, b, out, cache, mode)
        argv = ["--output", "json", "--cache-dir", str(cache), "lift",
                "--weight", str(k), "--bound", str(b), "--out", str(out)]
        prepare_cache = {"cold": lambda: fresh_dir(cache), "warm": snapshot}[mode]

        def before():
            # every lift must write its own table: one left by an earlier
            # pass would otherwise pass the digest check
            out.unlink(missing_ok=True)
            prepare_cache()

        return Op("lift", f"lift k={k} b={b} {mode}", argv, check, out_file=out, before=before)

    def check_op(self, table: Path, k: int, b: int, index=None) -> Op:
        return Op("check", f"check k={k} b={b} {state(index)}",
                  ["--output", "json", "check", str(table), "--all"],
                  self.check_gate(k, b, index))

    def eigen_op(self, table: Path, k: int, b: int, primes: str, index=None) -> Op:
        return Op("eigen", f"eigen k={k} b={b} primes={primes} {state(index)}",
                  ["--output", "json", "eigen", str(table), "--primes", primes],
                  self.eigen_gate(k, b, primes, index))

    def classify_op(self, name: str, records: list, scan: int) -> Op:
        path = self.work / f"records_{name}.jsonl"
        path.write_text("".join(record_line(*r[1:]) + "\n" for r in records))
        return Op("classify", f"classify {name} x{len(records)}",
                  ["--output", "json", "classify", str(path), "--scan", str(scan)],
                  self.classify_gate(records, scan))


def warm_up(ctx: Context, run_op) -> None:
    """Each command once at the tiny size, on a cold and then a warm cache."""
    k, b = WARMUP.lifts[0]
    out, cache = ctx.work / "warmup_table.json", ctx.work / "warmup_cache"
    run_op(ctx.lift_op(k, b, out, cache, "cold"))
    run_op(ctx.lift_op(k, b, out, cache, "warm"))
    run_op(ctx.check_op(out, k, b))
    run_op(ctx.eigen_op(out, k, b, WARMUP.clean[2]))
    pair = reference.unimodular_record(12, 3, Fraction(1, 2), Fraction(1, 4))
    run_op(ctx.classify_op(
        "warmup", [("sk", 10, 2, *sk_record(10, 2)), ("unimodular", 12, 3, *pair)], WARMUP.scan))


def prepare(ctx: Context, workload: str, scale: Scale, seed: int, run_op) -> Workload:
    """The workload's own inputs and its list of timed operations."""
    rng = random.Random(f"{workload}/{seed}")
    work = ctx.work
    if workload == "lift":
        order = list(scale.lifts)
        rng.shuffle(order)
        # each lift first on a fresh empty cache, then again reading the
        # cache that first lift wrote
        ops = [ctx.lift_op(k, b, work / f"lift_k{k}_b{b}.json", work / f"cache_k{k}_b{b}", mode)
               for mode in ("cold", "warm") for k, b in order]
        return Workload(ops, {"lift_order": order})
    if workload == "verify":
        (ka, ba, primes_a), (kb, bb, primes_b) = scale.clean, scale.perturbed
        clean = work / "clean.json"
        run_op(ctx.lift_op(ka, ba, clean, work / "cache_clean", "cold"))
        built = work / "unperturbed.json"
        run_op(ctx.lift_op(kb, bb, built, work / "cache_perturbed", "cold"))
        candidates = sorted(ctx.expected["perturbed"][key(kb, bb)])
        index = tuple(int(x) for x in rng.choice(candidates).split(","))
        bad = work / "perturbed.json"
        perturb_table(built, bad, index)
        # the first similitude-3 call builds and keeps its coset classes
        run_op(ctx.eigen_op(clean, ka, ba, primes_a))
        ops = [
            ctx.check_op(clean, ka, ba),
            ctx.eigen_op(clean, ka, ba, primes_a),
            ctx.check_op(bad, kb, bb, index),
            ctx.eigen_op(bad, kb, bb, primes_b, index),
        ]
        # the classifier is under 1% of check and eigen, so its record files
        # are classified in the same workload, after the tables
        kinds = {
            "sk": [("sk", k, p, *sk_record(k, p)) for k, p in scale.sk],
            "unimodular": [("unimodular", k, p, *unimodular_record(k, p, rng)) for k, p in scale.unimodular],
            "arbitrary": [("arbitrary", k, p, *arbitrary_record(k, p, rng)) for k, p in scale.arbitrary],
        }
        total = sum(len(v) for v in kinds.values())
        for records in kinds.values():
            rng.shuffle(records)
        ops += [ctx.classify_op(name, records, scale.scan) for name, records in kinds.items()]
        return Workload(ops, {"perturbed_table": [kb, bb], "perturbed_index": list(index),
                              "perturbation": 1, "candidates": len(candidates),
                              "records": total, "scan": scale.scan,
                              "kind_shares": {n: len(v) / total for n, v in kinds.items()}})
    raise ValueError(f"unknown workload {workload!r}")
