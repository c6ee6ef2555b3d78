"""The functions in the package that no command enters, against an allow-list.

Every command runs in-process at tiny sizes under ``sys.setprofile``:
``lift`` cold and warm from a cache directory, with ``--no-cache`` and with no cache flag,
``check --all`` and ``eigen --out`` on a clean and a perturbed table, and
``classify`` at two scan depths, each in all three output formats.  A
function or method, dunders included, that the walk never enters must be on
``UNREACHED`` with its reason; one that only tests call belongs in the
oracles instead.  Only the immutability guards are exempt, by name.
"""

import ast
import contextlib
import io
import json
import sys
import time
from pathlib import Path

import sklift
from sklift import cli, numeric

PACKAGE = Path(sklift.__file__).resolve().parent

# the least prime past psi_13, where is_prime adds the strong Lucas test
PAST_PSI_13 = 3317044064679887385962123

UNREACHED = {
    # refusal paths: the walk feeds only input that the commands accept
    "cli._Parser.error": "puts an argument parser's usage error on one line",
    "numeric.refuse_past_digit_limit": "refuses a digit string past Python's conversion limit",
    "numeric.short_repr": "quotes the start of a refused value",
    "work.largest_fitting": "names the largest value that fits a refused request",
    "work.refuse": "builds the line of a refused request",
    # the characterization API: Satake-parameter records over Q(sqrt(d)),
    # which no record file carries
    "characterize.sk_record": "the Saito-Kurokawa record of an elliptic eigenvalue",
    "characterize.record_from_pair": "the record of a Satake pair",
    "numeric._surd_sign": "QuadExt order",
    "numeric.QuadExt.sign": "QuadExt order; positivity_scan reads it on QuadExt records",
    "numeric.QuadExt._diff_sign": "QuadExt order and equality",
    "numeric.QuadExt.__eq__": "QuadExt order and equality",
    "numeric.QuadExt.__lt__": "QuadExt order",
    "numeric.QuadExt.__gt__": "QuadExt order",
    "numeric.QuadExt.__hash__": "QuadExt equality: equal values hash alike",
    "numeric.QuadExt.__pow__": "QuadExt powers; growth_check takes them on QuadExt records",
    "numeric.QuadExt.__rtruediv__": "QuadExt division: by a QuadExt, and negative powers",
    "numeric.QuadExt.__reduce__": "copies and pickles of a QuadExt",
    # value protocol that tests compare and print with
    "qseries.QSeries.__eq__": "series equality",
    "qseries.QSeries.__repr__": "a series as an assertion prints it",
    "siegel.SiegelFourierTable.__eq__": "table equality, as of a table and its JSON round trip",
    "siegel.SiegelFourierTable.__repr__": "a table as an assertion prints it",
    # wrapped by name by the benchmark's tracer
    "qseries.RatMatrix.__init__": "builds the matrices that rref returns and the test oracles use",
    "qseries.RatMatrix.__eq__": "matrix equality, as the tests compare Hecke-matrix products",
    "qseries.RatMatrix.kernel": "traced as qseries.kernel",
    "qseries.RatMatrix.rref": "traced as qseries.kernel",
    "qseries.echelon": "called by RatMatrix.rref only, which only the tracer wraps",
    "siegel.SiegelFourierTable.to_json_dict": "traced as cli.table_dump",
    # a lift writes integral tables only
    "siegel._stored_parts": "the numerator and denominator of a fractional table entry",
}


def _defined() -> dict:
    """(file, first line) -> dotted name, for every function the package defines."""
    out = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    # a decorated function's code starts at its first decorator
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, first)] = name
                visit(child, name, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, str(path))
    return out


def _walk(tmp: Path) -> tuple[set, list]:
    """The code objects every command enters, and the exit code of each run."""
    cache = str(tmp / "cache")
    table, bad = tmp / "t10.json", tmp / "bad.json"
    records = tmp / "records.jsonl"
    codes, entered = [], set()

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main([str(a) for a in argv]))

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # lazy state that an earlier test may have filled
    cli._build_parser.cache_clear()
    numeric.bernoulli_number.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for fmt in ("human", "json", "csv"):
            for k, bound in ((10, 4), (12, 2), (14, 2)):
                out = tmp / f"t{k}.json"
                for mode in (["--cache-dir", cache], ["--cache-dir", cache], ["--no-cache"], []):
                    run("--output", fmt, *mode, "lift", "--weight", k, "--bound", bound, "--out", out)
        data = json.loads(table.read_text())
        data["entries"][3][3] = str(int(data["entries"][3][3]) + 1)
        bad.write_text(json.dumps(data))
        for fmt in ("human", "json", "csv"):
            for path in (table, bad):
                run("--output", fmt, "check", path, "--all")
                run("--output", fmt, "eigen", path, "--primes", "2", "--out", f"{path}.jsonl")
        # the last record's mu(p**2) = -(2p + 1) p**(2k-4) gives a report of small
        # values, which the bit lengths alone do not show to be printable
        synthetic = [(10, 2, 1, 1), (10, 2, 0, 0), (12, 3, 5, -7), (10, 2, "1/2", "-3/4"),
                     (12, 2, 123456, -98765), (10, PAST_PSI_13, 0, 0), (6460, 2, 0, -5 * 2**12916)]
        records.write_text(Path(f"{table}.jsonl").read_text() + "".join(
            json.dumps({"weight": k, "p": p, "mu_p": a, "mu_p2": b}) + "\n" for k, p, a, b in synthetic
        ))
        for fmt in ("human", "json", "csv"):
            for scan in (0, 20):
                run("--output", fmt, "classify", records, "--scan", scan)
    finally:
        sys.setprofile(previous)
    return entered, codes


def test_every_unreached_function_is_named(tmp_path):
    start, before = time.perf_counter(), sys.getprofile()
    entered, codes = _walk(tmp_path)
    # every lift and every clean run succeeds; the perturbed table fails its
    # checks and its eigenvalues, and the (12, 2, 123456, -98765) record is
    # inconsistent data
    assert codes == [0] * 36 + [0, 0, 1, 1] * 3 + [1] * 6
    assert sys.getprofile() is before
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}
    defined = _defined()
    unreached = sorted(
        name for key, name in defined.items()
        # the immutability guards, which only a write to a value would enter, are exempt
        if key not in reached and name.rsplit(".", 1)[1] != "__setattr__"
    )
    assert [name for name in unreached if name not in UNREACHED] == []
    assert sorted(set(UNREACHED) - set(defined.values())) == []
    assert time.perf_counter() - start < 10
