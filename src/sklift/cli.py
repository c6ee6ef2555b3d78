"""Command-line surface: build lifts, check tables, extract eigenvalues, classify.

Commands
--------
lift      build the full chain (elliptic eigenform -> plus space -> Jacobi ->
          degree-2 table) and write the table as versioned JSON
check     run the coefficient-relation checkers on a table file
eigen     extract prime and prime-square eigenvalues from a table file
classify  run the single-prime criteria, spectral solve, growth and sign
          scans over an eigenvalue-record file

Exit codes: 0 success, 1 violations/eigenform failures found or a closed
output pipe, 2 usage or input errors (malformed or unreadable input files and
unwritable outputs included), 3 internal inconsistency (an exact cross-check
failed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from pathlib import Path

from . import characterize, work
from .cache import ExpansionCache, TextEncoder
from .characterize import (
    EigenvalueRecord,
    format_exact,
    growth_check,
    load_records,
    positivity_scan,
    theorem41,
)
from .elliptic import dim_cusp_forms, eigenforms
from .errors import (
    EXIT_OK,
    EXIT_VIOLATION,
    NotAnEigenformError,
    SkliftError,
    UsageError,
)
from .jacobi import ez_lift
from .kohnen import PlusSpaceForm, plus_space_basis, shimura_match
from .numeric import format_value, is_prime, short_repr
from .siegel import (
    SiegelFourierTable,
    check_maass_p_space,
    check_maass_space,
    hecke_eigenvalue,
    maass_lift,
)


# build_lift reads only a(2) of the elliptic eigenform, so it builds it to q**2
ELLIPTIC_PREC = 2


def build_lift(cache_dir: Path | None, weight: int, bound: int, log) -> SiegelFourierTable:
    """The full chain with cross-checks, its plus-space form cached under ``cache_dir`` if one is given."""
    k = weight
    if k % 2:
        raise UsageError(f"weight must be even, got {k}")
    dim = dim_cusp_forms(2 * k - 2)
    if dim == 0:
        raise UsageError(f"dim S_{2 * k - 2} = 0, no lift exists at weight {k}")
    if dim > 1:
        raise UsageError(
            f"weight {k} has {dim} eigenforms with irrational eigenvalues; "
            "table files carry rational data only, so pick a weight with a "
            "one-dimensional input space (10, 12, or 14)"
        )
    jacobi_disc = 4 * bound * bound
    # at least 16 * p**2 at p = 2, for the square-index operator that
    # matches the two sides
    halfint_prec = max(jacobi_disc, 64)
    log(f"plan: degree-2 index bound {bound} (discriminants to {jacobi_disc})")
    log(f"plan: half-integral truncation {halfint_prec}")
    log(f"plan: elliptic truncation {ELLIPTIC_PREC}")

    def build_plus(n):
        return plus_space_basis(k, n)[0].series

    # both spaces are one-dimensional here, so each side has exactly one form;
    # only the plus-space form is cached, as the elliptic one is cheaper to
    # build in integers than to read back
    if cache_dir is None:
        g_series = build_plus(halfint_prec)
    else:
        g_series = ExpansionCache(cache_dir).series(k, halfint_prec, build_plus)
    g = PlusSpaceForm(k, g_series)
    f = shimura_match(g, eigenforms(2 * k - 2, ELLIPTIC_PREC))
    log(f"matched eigenform of weight {f.weight} with a(2) = {f.a(2)}")
    phi = ez_lift(g)
    table = maass_lift(phi, bound)
    report = check_maass_space(table)
    if not report.ok:
        raise SkliftError(
            f"constructed table violates its defining relation at {report.violations[0][0]}"
        )
    log(
        f"lift built: {len(table.entries)} nonzero reduced coefficients, "
        f"self-check {report.checked} instances clean"
    )
    return table


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _emit(args, payload: dict, human_lines: list[str], csv_rows: list[list]):
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.output == "csv":
        csv.writer(sys.stdout).writerows(csv_rows)
    else:
        for line in human_lines:
            print(line)


def _load_table(path: str) -> SiegelFourierTable:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read table file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"table file {path} is not UTF-8: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer past the digit limit
        raise UsageError(f"table file {path} is not valid JSON: {exc}") from exc
    try:
        return SiegelFourierTable.from_json_dict(data)
    except UsageError as exc:
        raise UsageError(f"table file {path}: {exc}") from exc


def _check_out_dir(path: str) -> None:
    """Refuse an output path in a missing directory before any work is done."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise UsageError(f"cannot write {path}: no directory {parent}")


@contextlib.contextmanager
def _open_out(path: str):
    """``path`` open for writing; an OSError opening, writing or closing it is a UsageError."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_lift(args) -> int:
    if args.bound < 1:
        raise UsageError("--bound must be at least 1")
    work.lift_bound(args.bound)
    out_path = args.out or f"sk_lift_w{args.weight}_b{args.bound}.json"
    _check_out_dir(out_path)
    log = (lambda s: None) if args.output != "human" else lambda s: print(s)
    # --no-cache overrides --cache-dir
    table = build_lift(None if args.no_cache else args.cache_dir, args.weight, args.bound, log)
    # rendered before the file is opened, so a table that cannot be written leaves no file
    text = table.to_json_text()
    with _open_out(out_path) as handle:
        json.dump(text, handle, cls=TextEncoder)
    payload = {
        "table": out_path,
        "weight": table.weight,
        "bound": table.bound,
        "nonzero_entries": len(table.entries),
        "first_coefficient": str(table.value(1, 1, 1)),
    }
    _emit(
        args,
        payload,
        [f"wrote {out_path} ({len(table.entries)} nonzero entries)"],
        [["table", out_path], ["nonzero_entries", len(table.entries)]],
    )
    return EXIT_OK


def cmd_check(args) -> int:
    table = _load_table(args.table)
    maass = args.all or args.maass
    primes = list(args.maass_p or [])
    if args.all:
        primes = sorted(set(primes) | {2, 3, 5})
    if not (maass or primes):
        raise UsageError("nothing to do: pass --maass, --maass-p P, or --all")
    # every request is held to its cap before any checker runs
    if maass:
        work.table_weight(table, "check --maass")
    for p in primes:
        # the work first, so that a huge p is refused before any primality test
        work.maass_p(p, table.bound)
        if not is_prime(p):
            raise UsageError(f"--maass-p got {short_repr(p)}, which is not prime")
        work.table_weight(table, "check --maass-p", p)
    reports = [check_maass_space(table)] if maass else []
    reports += [check_maass_p_space(table, p) for p in primes]
    payload = {"table": args.table, "reports": []}
    lines = []
    csv_rows = [["check", "p", "checked", "skipped", "violations"]]
    bad = False
    for rep in reports:
        tag = rep.kind if rep.p is None else f"{rep.kind}({rep.p})"
        lines.append(
            f"{tag}: checked={rep.checked} skipped={rep.skipped} "
            f"violations={len(rep.violations)}"
        )
        for idx, lhs, rhs in rep.violations[:20]:
            lines.append(f"  violated at {idx}: lhs={format_value(lhs)} rhs={format_value(rhs)}")
        payload["reports"].append(
            {
                "kind": rep.kind,
                "p": rep.p,
                "checked": rep.checked,
                "skipped": rep.skipped,
                "violations": [
                    {"index": list(idx), "lhs": format_value(lhs), "rhs": format_value(rhs)}
                    for idx, lhs, rhs in rep.violations
                ],
            }
        )
        csv_rows.append([rep.kind, rep.p or "", rep.checked, rep.skipped, len(rep.violations)])
        bad = bad or not rep.ok
    _emit(args, payload, lines, csv_rows)
    return EXIT_VIOLATION if bad else EXIT_OK


def _parse_primes(text: str) -> tuple:
    try:
        primes = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad prime list {short_repr(text)}") from exc
    if not primes:
        raise UsageError("empty prime list")
    return primes


def cmd_eigen(args) -> int:
    table = _load_table(args.table)
    primes = _parse_primes(args.primes)
    if args.out:
        _check_out_dir(args.out)
    need = max(p * p for p in primes)
    # the bound first, so that a huge p is refused before any primality test
    if table.bound < need:
        raise UsageError(
            f"table bound {table.bound} too small for primes {short_repr(list(primes))}; "
            f"prime-square extraction needs bound >= {short_repr(need)}"
        )
    for p in primes:
        if not is_prime(p):
            raise UsageError(f"{short_repr(p)} is not prime")
        work.table_weight(table, "eigen", p)
    records = []
    for p in primes:
        mu_p = hecke_eigenvalue(table, p)
        mu_p2 = hecke_eigenvalue(table, p * p)
        records.append(EigenvalueRecord(table.weight, p, mu_p, mu_p2))
    lines = []
    csv_rows = [["weight", "p", "mu_p", "mu_p2"]]
    for rec in records:
        lines.append(
            f"p={rec.p}: mu(p)={format_exact(rec.mu_p)} mu(p^2)={format_exact(rec.mu_p2)}"
        )
        csv_rows.append([rec.weight, rec.p, format_exact(rec.mu_p), format_exact(rec.mu_p2)])
    if args.out:
        with _open_out(args.out) as handle:
            for rec in records:
                handle.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")
        lines.append(f"wrote {args.out}")
    payload = {"records": [rec.to_json_dict() for rec in records]}
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK


def cmd_classify(args) -> int:
    records = load_records(args.records, args.scan)
    if not records:
        raise UsageError(f"{args.records}: no records found")
    depth = args.scan
    results = []
    lines = []
    csv_rows = [
        ["weight", "p", "verdict", "inconsistent", "conditions",
         "first_weak_growth_violation", "all_positive"]
    ]
    any_inconsistent = False
    for rec in records:
        cert = theorem41(rec)
        # through the module, so that a wrapper installed on it sees the call
        seq = characterize.mu_sequence(rec, depth)
        growth = growth_check(rec, seq)
        signs = positivity_scan(seq)
        entry = cert.to_json_dict()
        entry["growth"] = growth.to_json_dict()
        entry["positivity"] = signs.to_json_dict()
        results.append(entry)
        any_inconsistent = any_inconsistent or cert.inconsistent
        lines.append(
            f"weight {rec.weight}, p={rec.p}: {cert.verdict}"
            + (" [INCONSISTENT DATA]" if cert.inconsistent else "")
        )
        lines.append(f"  conditions fired: {', '.join(cert.conditions_fired) or 'none'}")
        lines.append(
            f"  spectral pair: {cert.satake.classification}"
            + (f", x = {cert.satake.to_json_dict()['x']}" if cert.satake.x is not None else "")
            + (f", y = {cert.satake.to_json_dict()['y']}" if cert.satake.y is not None else "")
        )
        weak = growth.first_weak_violation
        lines.append(
            f"  growth to r={depth}: "
            + ("both bounds hold" if growth.ok else f"weak bound first fails at r={weak}")
        )
        lines.append(
            f"  signs to r={depth}: "
            + ("all positive" if signs.all_positive else f"sign changes at {list(signs.sign_changes)}")
        )
        csv_rows.append(
            [rec.weight, rec.p, cert.verdict, cert.inconsistent,
             "|".join(cert.conditions_fired), weak, signs.all_positive]
        )
    payload = {"records": results}
    _emit(args, payload, lines, csv_rows)
    return EXIT_VIOLATION if any_inconsistent else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line, as every other error is."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="sklift",
        description="Exact Saito-Kurokawa lifts and eigenvalue characterizations.",
    )
    parser.add_argument(
        "--output", choices=("human", "json", "csv"), default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache lift's plus-space form in this directory (default: no cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="use no cache, even with --cache-dir"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lift = sub.add_parser("lift", help="build a lift and write its table")
    p_lift.add_argument("--weight", type=int, required=True)
    p_lift.add_argument("--bound", type=int, default=6)
    p_lift.add_argument("--out", type=str, default=None)
    p_lift.set_defaults(func=cmd_lift)

    p_check = sub.add_parser("check", help="run coefficient-relation checks")
    p_check.add_argument("table")
    p_check.add_argument("--maass", action="store_true")
    p_check.add_argument("--maass-p", type=int, action="append")
    p_check.add_argument("--all", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_eigen = sub.add_parser("eigen", help="extract Hecke eigenvalues from a table")
    p_eigen.add_argument("table")
    p_eigen.add_argument("--primes", type=str, required=True)
    p_eigen.add_argument("--out", type=str, default=None)
    p_eigen.set_defaults(func=cmd_eigen)

    p_classify = sub.add_parser("classify", help="classify eigenvalue records")
    p_classify.add_argument("records")
    p_classify.add_argument("--scan", type=int, default=50)
    p_classify.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe; send the exit-time flush to devnull so it cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except NotAnEigenformError as exc:
        print(f"error: {exc} (witness {exc.witness})", file=sys.stderr)
        return exc.exit_code
    except SkliftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
