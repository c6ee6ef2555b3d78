import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sklift import characterize
from sklift.cache import ExpansionCache
from sklift.characterize import EigenvalueRecord, load_records, theorem41
from sklift.cli import main
from sklift.elliptic import eigenforms
from sklift.errors import UsageError
from sklift.numeric import short_repr

from oracles import HOSTILE_P, HOSTILE_Q, record_with_discriminant, scaled


@pytest.fixture
def table10(tmp_path):
    out = tmp_path / "t10.json"
    rc = main(
        ["--cache-dir", str(tmp_path / "cache"), "lift", "--weight", "10",
         "--bound", "6", "--out", str(out)]
    )
    assert rc == 0
    return out


class TestLift:
    def test_lift_writes_table(self, table10):
        data = json.loads(table10.read_text())
        assert data["schema_version"] == 1
        assert data["weight"] == 10
        assert data["bound"] == 6
        entries = {tuple(e[:3]): e[3:] for e in data["entries"]}
        assert entries[(1, 1, 1)] == ["1", "1"]

    def test_table_bytes_match_json_dumps(self, table10, lift10_b6):
        from fractions import Fraction

        text = json.dumps(lift10_b6.to_json_dict())
        assert table10.read_text(encoding="utf-8") == text
        # integer and Fraction entries serialize alike
        assert json.dumps(scaled(lift10_b6, Fraction(1)).to_json_dict()) == text

    def test_cache_reuse_is_bitwise_identical(self, tmp_path, table10):
        again = tmp_path / "t10_again.json"
        rc = main(
            ["--cache-dir", str(tmp_path / "cache"), "lift", "--weight", "10",
             "--bound", "6", "--out", str(again)]
        )
        assert rc == 0
        assert again.read_text() == table10.read_text()

    def test_no_lift_at_weight_8(self, tmp_path, capsys):
        rc = main(["--no-cache", "lift", "--weight", "8"])
        assert rc == 2
        assert "dim S_14 = 0" in capsys.readouterr().err

    def test_odd_weight_usage_error(self):
        assert main(["--no-cache", "lift", "--weight", "11"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["lift", "--weigth", "10"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "lift" in capsys.readouterr().out

    def test_constraint_bound_flag_removed(self, capsys):
        assert main(["--no-cache", "lift", "--weight", "10", "--constraint-bound", "40"]) == 2
        assert "--constraint-bound" in capsys.readouterr().err

    def test_plan_lines(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["--no-cache", "lift", "--weight", "10", "--bound", "2", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            "plan: degree-2 index bound 2 (discriminants to 16)",
            "plan: half-integral truncation 64",
            "plan: elliptic truncation 2",
        ]

    def test_lift_caches_only_the_plus_space_form(self, tmp_path, table10, monkeypatch):
        # the elliptic seed is built in integers on every lift: an elliptic
        # entry written by earlier versions is neither read nor touched, a
        # cold lift writes the plus-space form alone and a warm one nothing
        cache_dir = tmp_path / "old_cache"
        cache_dir.mkdir()
        old = "elliptic__eigenform_0__w18__n48__s1.json"
        (cache_dir / old).write_text(json.dumps({
            "schema_version": 1, "module": "elliptic", "name": "eigenform_0", "weight": 18,
            "truncation": 48, "coeffs": [str(c) for c in eigenforms(18, 48)[0].series.coeffs],
        }))
        before = ((cache_dir / old).read_bytes(), (cache_dir / old).stat().st_mtime_ns)
        calls = []

        def recorded(name, method):
            def wrapper(self, weight, truncation, *args):
                calls.append((name, weight, truncation))
                return method(self, weight, truncation, *args)

            return wrapper

        monkeypatch.setattr(ExpansionCache, "fetch", recorded("fetch", ExpansionCache.fetch))
        monkeypatch.setattr(ExpansionCache, "store", recorded("store", ExpansionCache.store))

        def lift():
            calls.clear()
            out = tmp_path / "t.json"
            assert main(["--cache-dir", str(cache_dir), "lift", "--weight", "10",
                         "--bound", "6", "--out", str(out)]) == 0
            assert out.read_text() == table10.read_text()
            return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in cache_dir.iterdir()}

        cold = lift()
        assert calls == [("fetch", 10, 144), ("store", 10, 144)]
        assert sorted(cold) == [old, "kohnen__plus_basis_0__w10__n144__s1.json"]
        assert cold[old] == before
        warm = lift()
        assert calls == [("fetch", 10, 144)]
        assert warm == cold

    def test_lift_writes_only_its_out_file(self, tmp_path, monkeypatch, capsys):
        # without --cache-dir, and with --no-cache over one, a lift reads no
        # environment variable and writes nothing but --out, in the working
        # directory when --out is left to its default
        home, env_cache, cwd, unused = (tmp_path / name for name in ("home", "env", "cwd", "unused"))
        for path in (home, env_cache, cwd):
            path.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("SKLIFT_CACHE_DIR", str(env_cache))
        monkeypatch.chdir(cwd)
        assert main(["lift", "--weight", "10", "--bound", "2"]) == 0
        assert [p.name for p in cwd.iterdir()] == ["sk_lift_w10_b2.json"]
        out = tmp_path / "t.json"
        assert main(["--cache-dir", str(unused), "--no-cache", "lift", "--weight", "10", "--bound", "2",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (cwd / "sk_lift_w10_b2.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cwd", "env", "home", "t.json"]
        assert not any(home.iterdir()) and not any(env_cache.iterdir())

    def test_unwritable_table_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # the table text is rendered before --out is opened
        from sklift.siegel import SiegelFourierTable

        def refuse(table):
            raise UsageError("schema v1 stores rational coefficients only")

        monkeypatch.setattr(SiegelFourierTable, "to_json_text", refuse)
        out = tmp_path / "t.json"
        assert main(["--no-cache", "lift", "--weight", "10", "--bound", "2", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: schema v1 stores rational coefficients only\n"

    def test_minimal_bound(self, tmp_path, capsys):
        out = tmp_path / "b1.json"
        assert main(["--no-cache", "lift", "--weight", "10", "--bound", "1",
                     "--out", str(out)]) == 0
        entries = json.loads(out.read_text())["entries"]
        assert [tuple(e[:3]) for e in entries] == [(1, 0, 1), (1, 1, 1)]
        assert main(["--no-cache", "lift", "--weight", "10", "--bound", "0"]) == 2

    def test_bound_60_lifts(self, tmp_path):
        out = tmp_path / "b60.json"
        assert main(["--no-cache", "--output", "json", "lift", "--weight", "10", "--bound", "60",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["bound"] == 60

    @given(st.integers(101, 10**40))
    @settings(max_examples=25, deadline=None)
    @example(101)
    @example(100000)
    @example(10**4000)
    def test_bound_past_the_cap_refused_up_front(self, bound):
        # refused before any series is built: --bound 100000 once ran out of
        # memory in the odd-sigma series, and 400 ran past 20 s
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            out = os.path.join(tmp, "t.json")
            start = time.perf_counter()
            rc = main(["--no-cache", "lift", "--weight", "10", "--bound", str(bound), "--out", out])
            assert time.perf_counter() - start < 5
            assert not os.path.exists(out)
        assert rc == 2
        assert err.getvalue() == (
            f"error: --bound {short_repr(bound)} is past the cap on a lift's work, which grows as "
            "bound**4; the largest --bound that fits is 100\n"
        )
        # a 4001-digit bound is quoted by its start, as every refused value is
        assert err.getvalue().count("\n") == 1 and len(err.getvalue().encode()) < 300


class TestCheck:
    def test_all_clean(self, table10, capsys):
        rc = main(["check", str(table10), "--all"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "maass:" in out and "maass-p(5)" in out
        assert "violations=0" in out

    def test_violation_exit_code(self, table10, tmp_path, capsys):
        data = json.loads(table10.read_text())
        data["entries"][0][3] = str(int(data["entries"][0][3]) + 1)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["check", str(bad), "--maass"])
        assert rc == 1
        assert "violated" in capsys.readouterr().out

    def test_json_output(self, table10, capsys):
        rc = main(["--output", "json", "check", str(table10), "--maass"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["violations"] == []

    def test_csv_output(self, table10, capsys):
        rc = main(["--output", "csv", "check", str(table10), "--maass-p", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("check,")
        assert lines[1].startswith("maass-p,2,")

    def test_requires_a_mode(self, table10):
        assert main(["check", str(table10)]) == 2

    def test_maass_p_past_the_work_cap(self, tmp_path):
        # --maass-p 101 on a bound-4 table enumerated 591 274 742 instances and
        # ran past 20 s; a child process under a timeout fails a regression
        # without a hang
        table = tmp_path / "t4.json"
        assert main(["--no-cache", "lift", "--weight", "10", "--bound", "4", "--out", str(table)]) == 0
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sklift.cli", "check", str(table), "--all", "--maass-p", "101"],
            capture_output=True, text=True, timeout=10,
        )
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "error: --maass-p 101 is past the cap on the checker's work, which grows as "
            "p**3.5 * bound**3; the largest --maass-p that fits table bound 4 is 73\n"
        )

    @pytest.mark.parametrize("bound, p, want", [(12, 31, 29), (100, 7, 5), (100, 10**4000, 5)],
                             ids=["bound12", "bound100", "bound100-huge-p"])
    def test_largest_maass_p_named(self, table10, tmp_path, capsys, bound, p, want):
        # the table file claims a larger bound; the refusal comes before any scan
        data = json.loads(table10.read_text())
        data["bound"] = bound
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(data))
        start = time.perf_counter()
        assert main(["check", str(wide), "--maass-p", str(p)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 300
        assert err.startswith("error: --maass-p ") and err.endswith(f"fits table bound {bound} is {want}\n")

    def test_huge_maass_p_quoted_short(self, table10, capsys):
        # 10**4000 was quoted whole, in a 4043-byte line
        start = time.perf_counter()
        assert main(["check", str(table10), "--maass-p", str(10**4000)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: --maass-p 10000000000000000000... is past the cap")
        assert err.count("\n") == 1 and len(err.encode()) < 300

    def test_nonprime_maass_p_within_the_cap(self, table10, capsys):
        for p in ("50", "1", "0", "-3"):
            assert main(["check", str(table10), "--maass-p", p]) == 2
            assert capsys.readouterr().err == f"error: --maass-p got {p}, which is not prime\n"

    def test_missing_file(self):
        assert main(["check", "/nonexistent/t.json"]) == 2


class TestEigen:
    def test_extraction_and_records(self, table10, tmp_path, capsys):
        rec_path = tmp_path / "records.jsonl"
        rc = main(["eigen", str(table10), "--primes", "2", "--out", str(rec_path)])
        assert rc == 0
        line = json.loads(rec_path.read_text().splitlines()[0])
        assert line == {"weight": 10, "p": 2, "mu_p": "240", "mu_p2": "135424"}

    def test_bound_planning_error(self, table10, capsys):
        rc = main(["eigen", str(table10), "--primes", "2,3"])
        assert rc == 2
        assert "bound >= 9" in capsys.readouterr().err

    def test_nonprime_rejected(self, table10):
        assert main(["eigen", str(table10), "--primes", "6"]) == 2

    def test_nonprime_within_the_bound(self, table10, capsys):
        # primality is tested after the bound, on primes whose square fits
        for p in ("1", "-2", "2,1"):
            assert main(["eigen", str(table10), "--primes", p]) == 2
            assert capsys.readouterr().err == f"error: {p.split(',')[-1]} is not prime\n"

    def test_huge_prime_refused_by_the_bound_first(self, table10, capsys):
        # a 4001-digit odd composite took 6.25 s in the primality test and was
        # quoted whole, with its square, in a 4022-byte line
        p = 10**4000 + 11
        assert p % 2 == 1 and p % 3 == 0
        start = time.perf_counter()
        assert main(["eigen", str(table10), "--primes", f"2,{p}"]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err == (
            "error: table bound 6 too small for primes [2, 1000000000000000...; "
            "prime-square extraction needs bound >= 10000000000000000000...\n"
        )
        assert len(err.encode()) < 300

    def test_bad_prime_list_quoted_short(self, table10, capsys):
        assert main(["eigen", str(table10), "--primes", "2," + "x" * 5000]) == 2
        assert capsys.readouterr().err == "error: bad prime list '2,xxxxxxxxxxxxxxxxxx'...\n"

    def test_two_primes_on_larger_table(self, tmp_path, capsys):
        table = tmp_path / "t10b9.json"
        recs = tmp_path / "recs.jsonl"
        assert main(["--no-cache", "lift", "--weight", "10", "--bound", "9",
                     "--out", str(table)]) == 0
        assert main(["eigen", str(table), "--primes", "2,3", "--out", str(recs)]) == 0
        lines = [json.loads(line) for line in recs.read_text().splitlines()]
        assert lines[0]["mu_p"] == "240"
        assert lines[1] == {"weight": 10, "p": 3, "mu_p": "21960",
                            "mu_p2": "293343849"}
        capsys.readouterr()
        assert main(["--output", "json", "classify", str(recs), "--scan", "15"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["verdict"] for r in payload["records"]] == ["saito-kurokawa"] * 2
        assert payload["records"][1]["growth"]["first_weak_violation"] == 13

    def test_perturbed_table_reports_witness(self, table10, tmp_path, capsys):
        data = json.loads(table10.read_text())
        data["entries"][0][3] = str(int(data["entries"][0][3]) + 1)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["eigen", str(bad), "--primes", "2"])
        assert rc == 1
        assert "witness" in capsys.readouterr().err


class TestClassify:
    def test_sk_record_end_to_end(self, table10, tmp_path, capsys):
        rec_path = tmp_path / "records.jsonl"
        main(["eigen", str(table10), "--primes", "2", "--out", str(rec_path)])
        capsys.readouterr()
        rc = main(["--output", "json", "classify", str(rec_path), "--scan", "30"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["records"][0]
        assert entry["verdict"] == "saito-kurokawa"
        assert entry["conditions_fired"] == ["eigenvalue-identity"]
        assert entry["inconsistent"] is False
        assert entry["satake"]["classification"] == "saito-kurokawa"
        assert entry["growth"]["first_weak_violation"] == 27
        assert entry["positivity"]["all_positive"] is True

    def test_ramanujan_record_file(self, tmp_path, capsys):
        k, p = 10, 2
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(
            json.dumps(
                {"weight": k, "p": p, "mu_p": "0",
                 "mu_p2": str(-2 * p ** (2 * k - 3) - p ** (2 * k - 4))}
            )
            + "\n"
        )
        rc = main(["--output", "json", "classify", str(rec_path), "--scan", "100"])
        assert rc == 0
        entry = json.loads(capsys.readouterr().out)["records"][0]
        assert entry["verdict"] == "not-saito-kurokawa"
        assert entry["growth"]["first_weak_violation"] is None
        assert entry["positivity"]["all_positive"] is False

    def test_inconsistent_record_exit_code(self, tmp_path, capsys):
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(
            json.dumps({"weight": 10, "p": 2, "mu_p": "10000000", "mu_p2": "0"}) + "\n"
        )
        rc = main(["classify", str(rec_path), "--scan", "5"])
        assert rc == 1
        assert "INCONSISTENT" in capsys.readouterr().out

    def test_default_scan_depth(self, tmp_path, capsys):
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text('{"weight": 10, "p": 2, "mu_p": "240", "mu_p2": "135424"}\n')
        assert main(["--output", "json", "classify", str(rec_path)]) == 0
        entry = json.loads(capsys.readouterr().out)["records"][0]
        assert entry["growth"]["scan_depth"] == 50

    def test_malformed_line_numbered(self, tmp_path, capsys):
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text('{"weight": 10, "p": 2, "mu_p": "1", "mu_p2": "1"}\n{bad\n')
        rc = main(["classify", str(rec_path)])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_float_values_rejected(self, tmp_path, capsys):
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text('{"weight": 10, "p": 2, "mu_p": 240.5, "mu_p2": "1"}\n')
        assert main(["classify", str(rec_path)]) == 2

    @pytest.mark.parametrize("line, field", [
        ('{"weight": 10.9, "p": 2.7, "mu_p": "240", "mu_p2": "135424"}', "weight"),
        ('{"weight": 10, "p": 2.7, "mu_p": "240", "mu_p2": "135424"}', "p"),
        ('{"weight": 10, "p": 2, "mu_p": true, "mu_p2": "1"}', "mu_p"),
        ('{"weight": 10, "p": 2, "mu_p": "240", "mu_p2": false}', "mu_p2"),
    ], ids=["float-weight", "float-p", "true", "false"])
    def test_json_numbers_must_be_integers(self, tmp_path, capsys, line, field):
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(line + "\n")
        assert main(["classify", str(rec_path)]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        # integers and strings of them are read as before
        rec_path.write_text('{"weight": "10", "p": "2", "mu_p": 240, "mu_p2": "135424"}\n')
        assert main(["classify", str(rec_path)]) == 0

    @pytest.mark.parametrize("p", [
        318665857834031151167461,  # 399165290221 * 798330580441
        3317044064679887385961981,  # 1287836182261 * 2575672364521
    ], ids=["psi12", "psi13"])
    def test_strong_pseudoprime_p_refused(self, tmp_path, capsys, p):
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(json.dumps({"weight": 10, "p": p, "mu_p": "1", "mu_p2": "1"}) + "\n")
        assert main(["classify", str(rec_path)]) == 2
        assert "is not prime" in capsys.readouterr().err

    def test_huge_composite_p_quoted_short(self, tmp_path, capsys):
        # p = 10**600 + 1 was quoted whole, in a 672-byte line
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(json.dumps({"weight": 10, "p": 10**600 + 1, "mu_p": "1", "mu_p2": "1"}) + "\n")
        start = time.perf_counter()
        assert main(["classify", str(rec_path)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err == f"error: {rec_path}:1: bad record (10000000000000000000... is not prime)\n"
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("rec", [
        record_with_discriminant(10, 2, 0, 2 * HOSTILE_P * HOSTILE_Q),
        record_with_discriminant(10, 2, 1, 2 * HOSTILE_P * HOSTILE_Q),
        EigenvalueRecord(500, 2, 1, 1),
    ], ids=["mu0-2PQ", "mu1-2PQ", "weight500"])
    def test_hostile_spectral_pairs_finish(self, tmp_path, rec):
        # each ran an unbounded factorization; run in a child process so a
        # regression fails on the 5 s timeout instead of hanging the suite
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(json.dumps(rec.to_json_dict()) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "sklift.cli", "--output", "json", "classify", str(rec_path)],
            capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode in (0, 1), proc.stderr
        satake = json.loads(proc.stdout)["records"][0]["satake"]
        assert satake["x"] is None and satake["y"] is None

    @pytest.mark.parametrize("weight, p, code", [
        (4000, 2, 0), (20000, 2, 2), (10, 2**2203 - 1, 2),
    ], ids=["weight4000", "weight20000", "p2203bits"])
    def test_long_primality_tests_refused(self, tmp_path, weight, p, code):
        # the squarefree part of a mu(p) = 0 record's discriminant grows with the
        # weight; no primality test runs past PRIME_TEST_BITS
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(json.dumps({"weight": weight, "p": p, "mu_p": "0", "mu_p2": "1"}) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "sklift.cli", "classify", str(rec_path), "--scan", "2"],
            capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_one_sequence_per_record(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = characterize.mu_sequence
        monkeypatch.setattr(characterize, "mu_sequence", lambda *a: calls.append(a) or real(*a))
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(
            '{"weight": 10, "p": 2, "mu_p": "240", "mu_p2": "135424"}\n'
            '{"weight": 12, "p": 3, "mu_p": "0", "mu_p2": "1"}\n'
            '{"weight": 10, "p": 5, "mu_p": "7", "mu_p2": "-3"}\n'
        )
        assert main(["--output", "json", "classify", str(rec_path), "--scan", "30"]) == 0
        assert len(calls) == 3
        entries = json.loads(capsys.readouterr().out)["records"]
        assert [e["growth"]["scan_depth"] for e in entries] == [30, 30, 30]
        assert [len(e["positivity"]["signs"]) for e in entries] == [31, 31, 31]

    def test_closed_output_pipe_is_quiet(self, tmp_path):
        # about 320 KiB of JSON, far past a 64 KiB pipe buffer, so the child is
        # still writing when the reader closes after one line
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text('{"weight": 10, "p": 2, "mu_p": "240", "mu_p2": "135424"}\n' * 100)
        with open(tmp_path / "err.txt", "w+") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "sklift.cli", "--output", "json", "classify",
                 str(rec_path), "--scan", "200"],
                stdout=subprocess.PIPE, stderr=err,
            )
            try:
                assert proc.stdout.readline() == b"{\n"
                proc.stdout.close()
                assert proc.wait(timeout=30) == 1
            finally:
                proc.kill()
            err.seek(0)
            assert err.read() == ""

    def test_scan_past_the_budget_refused_up_front(self, tmp_path):
        # s_50 of this record has about 10**7 bits; nothing is classified, and
        # the one error line names the record's line and the deepest scan that fits
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(
            '{"weight": 10, "p": 2, "mu_p": "240", "mu_p2": "135424"}\n'
            '{"weight": 200000, "p": 2, "mu_p": "1", "mu_p2": "1"}\n'
        )
        proc = subprocess.run(
            [sys.executable, "-m", "sklift.cli", "classify", str(rec_path), "--scan", "50"],
            capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"error: {rec_path}:2: --scan 50 is past the cap ")
        assert proc.stderr.endswith("the largest --scan that fits is 6\n")

    @pytest.mark.parametrize("weight, p, mu_p, scan", [
        (500, 101, 2 * 101**499 // 3, 200), (20, 7, 2 * 7**19 // 3, 200), (10, 2, 341, 2000), (200000, 2, 1, 6),
    ], ids=["w500-p101", "w20-p7", "w10-scan2000", "w200000-scan6"])
    def test_scan_within_the_budget_admitted(self, tmp_path, weight, p, mu_p, scan):
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(json.dumps({"weight": weight, "p": p, "mu_p": str(mu_p), "mu_p2": "1/6"}) + "\n")
        # the scan budget alone: without a digit limit no report is refused,
        # as the weight-200000 record's would be under Python's default one
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert len(load_records(rec_path, scan)) == 1
            with pytest.raises(UsageError, match="largest --scan that fits"):
                load_records(rec_path, 10**6)
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.fixture
    def digit_limit(self):
        # the least nonzero limit Python allows, so the edge records stay small
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield 640
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("p", [2, 3, 101])
    @pytest.mark.parametrize("field", ["mu_p", "mu_p2"])
    def test_unprintable_report_refused_at_the_edge(self, tmp_path, digit_limit, p, field):
        # the least even weight whose power p**e passes 10**(D + 3): then
        # |v| = p**e // 10**D is refused and |v| + 1 is not, for
        # v = mu(p) with e = k - 1, and v = mu(p**2) with mu(p) = 0 and e = 2k - 4
        k = 10
        exponent = (lambda k: k - 1) if field == "mu_p" else (lambda k: 2 * k - 4)
        while p ** exponent(k) < 10 ** (digit_limit + 3):
            k += 2
        edge = p ** exponent(k) // 10**digit_limit
        rec_path = tmp_path / "records.jsonl"
        for value, refused in ((edge, True), (-edge, True), (edge + 1, False), (-edge - 1, False)):
            fields = {"weight": k, "p": p, "mu_p": "0", "mu_p2": "1", field: str(value)}
            rec_path.write_text(json.dumps({"weight": 10, "p": 2, "mu_p": "1", "mu_p2": "1"}) + "\n"
                                + json.dumps(fields) + "\n")
            if not refused:
                assert len(load_records(rec_path, 0)) == 2
                continue
            with pytest.raises(UsageError) as err:
                load_records(rec_path, 0)
            assert str(err.value).startswith(f"{rec_path}:2: the report of this record would hold a value "
                                              f"with more digits than Python converts to text ({digit_limit})")
            # the refused report is indeed past the limit
            rec = EigenvalueRecord(**fields)
            with pytest.raises(UsageError, match="more digits than Python converts"):
                theorem41(rec).to_json_dict()
            # and without a limit nothing is refused
            sys.set_int_max_str_digits(0)
            assert len(load_records(rec_path, 0)) == 2
            sys.set_int_max_str_digits(digit_limit)

    @pytest.mark.parametrize("scan", ["0", "50"])
    def test_unprintable_report_refused_at_every_scan(self, tmp_path, scan):
        # at --scan 0 the scan budget refuses nothing; this record's report
        # cannot be printed, which classifying it once took about 25 s to show
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text('{"weight": 2000000, "p": 2, "mu_p": "1", "mu_p2": "1"}\n')
        proc = subprocess.run(
            [sys.executable, "-m", "sklift.cli", "classify", str(rec_path), "--scan", scan],
            capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"error: {rec_path}:1: ")

    def test_printable_heavy_record_classifies(self, tmp_path):
        # mu(p) = mu(p**2) = 0 gives small report values at any weight
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text('{"weight": 2000000, "p": 2, "mu_p": "0", "mu_p2": "0"}\n')
        proc = subprocess.run(
            [sys.executable, "-m", "sklift.cli", "--output", "json", "classify", str(rec_path), "--scan", "0"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        satake = json.loads(proc.stdout)["records"][0]["satake"]
        assert (satake["trace_over_sqrt_p"], satake["pair_product"]) == ("0", "-5/2")

    def test_value_past_digit_limit_exits_2(self, tmp_path, capsys):
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text('{"weight": 200000, "p": 2, "mu_p": "1", "mu_p2": "1"}\n')
        rc = main(["classify", str(rec_path), "--scan", "5"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "more digits than Python converts" in captured.err


class TestUnreadableFiles:
    """Malformed or unreadable inputs and unwritable outputs exit 2 with the file named."""

    def run(self, argv, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        self.out = captured.out
        return rc, captured.err

    def test_table_not_an_object(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        rc, err = self.run(["check", str(bad), "--maass"], capsys)
        assert rc == 2 and str(bad) in err and "not a list" in err

    def test_zero_denominator(self, table10, tmp_path, capsys):
        data = json.loads(table10.read_text())
        data["entries"][0][4] = "0"
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(data))
        rc, err = self.run(["check", str(bad), "--maass"], capsys)
        assert rc == 2 and str(bad) in err

    @pytest.mark.parametrize("edit, field", [
        (lambda data: data.update(weight=10.9, bound=4.5), "weight"),
        (lambda data: data.update(bound=6.0), "bound"),
        (lambda data: data["entries"][0].__setitem__(0, 1.0), "an entry index"),
        (lambda data: data["entries"][0].__setitem__(3, True), "a numerator"),
    ], ids=["float-weight", "float-bound", "float-index", "true-numerator"])
    def test_table_numbers_must_be_integers(self, table10, tmp_path, capsys, edit, field):
        data = json.loads(table10.read_text())
        assert data["entries"][0][:3] == [1, 0, 1]  # still reduced with n = 1.0
        edit(data)
        bad = tmp_path / "inexact.json"
        bad.write_text(json.dumps(data))
        rc, err = self.run(["check", str(bad), "--maass"], capsys)
        assert rc == 2 and str(bad) in err and f"{field} must be an integer" in err

    def test_repeated_index(self, table10, tmp_path, capsys):
        data = json.loads(table10.read_text())
        assert data["entries"][0][:3] == [1, 0, 1]
        data["entries"].insert(1, [1, 0, 1, "7", "1"])
        bad = tmp_path / "twice.json"
        bad.write_text(json.dumps(data))
        for argv in (["check", str(bad), "--maass"], ["eigen", str(bad), "--primes", "2"]):
            rc, err = self.run(argv, capsys)
            assert rc == 2 and self.out == ""
            assert err == f"error: table file {bad}: table index (1, 0, 1) is listed twice\n"

    def test_table_bound_past_the_cap(self, table10, tmp_path):
        # refused as the file is read; each command once ran past 5 s here, so
        # a child process under a timeout fails a regression without a hang
        data = json.loads(table10.read_text())
        data["bound"] = 100000
        bad = tmp_path / "wide.json"
        bad.write_text(json.dumps(data))
        for args in (["check", "--maass"], ["check", "--maass-p", "2"], ["eigen", "--primes", "2"]):
            proc = subprocess.run(
                [sys.executable, "-m", "sklift.cli", args[0], str(bad), *args[1:]],
                capture_output=True, text=True, timeout=5,
            )
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr == (
                f"error: table file {bad}: table bound 100000 is past the cap on the work a "
                "table can demand, which grows as bound**3; the largest table bound that fits is 100\n"
            )

    def test_table_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"weight": "\xe9"}')
        rc, err = self.run(["eigen", str(bad), "--primes", "2"], capsys)
        assert rc == 2 and str(bad) in err and "UTF-8" in err

    def test_integer_past_digit_limit(self, tmp_path, capsys):
        bad = tmp_path / "digits.json"
        bad.write_text('{"schema_version": 1, "weight": 1' + "0" * 5000 + "}")
        rc, err = self.run(["check", str(bad), "--maass"], capsys)
        assert rc == 2 and str(bad) in err

    @pytest.mark.parametrize("edit, want", [
        (lambda data: data["entries"][0].__setitem__(3, "1" * 5000), "a numerator has more digits"),
        (lambda data: data.update(weight="1" * 5000), "weight has more digits"),
        (lambda data: data.update(weight=list(range(5000))), "weight must be an integer, got list [0, 1, 2,"),
        (lambda data: data.update(weight="x" * 5000), "weight must be an integer, got str 'xxxx"),
        (lambda data: data.update(schema_version=[1] * 5000), "unsupported table schema [1, 1, 1,"),
    ], ids=["numerator", "weight", "weight-list", "weight-letters", "schema-list"])
    def test_digit_string_past_digit_limit(self, table10, tmp_path, capsys, edit, want):
        # an integer all the same, or no integer at all: the one line names
        # the limit or the type, and quotes only the start of the value
        data = json.loads(table10.read_text())
        edit(data)
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps(data))
        rc, err = self.run(["check", str(bad), "--maass"], capsys)
        assert rc == 2 and self.out == ""
        assert err.count("\n") == 1 and len(err) < 300
        assert want in err
        if "more digits" in want:
            assert f"converts to an integer ({sys.get_int_max_str_digits()}): '11111" in err

    def test_record_value_past_digit_limit(self, tmp_path, capsys):
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(json.dumps({"weight": 10, "p": 2, "mu_p": "1" * 5000, "mu_p2": "1"}) + "\n")
        rc, err = self.run(["classify", str(rec_path)], capsys)
        assert rc == 2 and self.out == ""
        assert err.count("\n") == 1 and len(err) < 300
        assert err.startswith(f"error: {rec_path}:1: bad record (an exact value has more digits than Python "
                              f"converts to an integer ({sys.get_int_max_str_digits()}): '11111")

    @pytest.mark.parametrize("field, value, want", [
        ("mu_p", "x" * 5000, "not an exact rational: 'xxxxxxxxxxxxxxxxxxxx'..."),
        ("mu_p", list(range(5000)), "mu_p must be an integer, got list [0, 1, 2, 3, 4, 5, 6...)"),
        ("weight", list(range(5000)), "weight must be an integer, got list [0, 1, 2, 3, 4, 5, 6...)"),
        ("p", "7" * 30 + "x", "p must be an integer, got str '77777777777777777777'..."),
    ], ids=["mu_p-letters", "mu_p-list", "weight-list", "p-letters"])
    def test_record_value_quoted_short(self, tmp_path, capsys, field, value, want):
        # a long bad value is quoted by its start only, in one short line
        record = {"weight": 10, "p": 2, "mu_p": "1", "mu_p2": "1", field: value}
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(json.dumps(record) + "\n")
        rc, err = self.run(["classify", str(rec_path)], capsys)
        assert rc == 2 and self.out == ""
        assert err.count("\n") == 1 and len(err) < 300
        assert err.startswith(f"error: {rec_path}:1: bad record") and want in err

    @pytest.mark.parametrize("body", [
        "[1, 2, 3]", '{"coeffs": ["0", null]}', '{"coeffs": ["0", 0.5]}',
    ], ids=["list", "null", "float"])
    def test_malformed_cache_entry(self, tmp_path, capsys, body):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        # the plus-space form a weight-10 lift at bound 2 reads, to q**64
        (cache_dir / "kohnen__plus_basis_0__w10__n64__s1.json").write_text(body)
        rc, err = self.run(["--cache-dir", str(cache_dir), "lift", "--weight", "10", "--bound", "2",
                            "--out", str(tmp_path / "t.json")], capsys)
        # a bad input file, not an internal fault: exit 2
        assert rc == UsageError.exit_code == 2 and err.count("\n") == 1
        assert err.startswith(f"error: unreadable cache entry {cache_dir}{os.sep}")
        assert not (tmp_path / "t.json").exists()

    def test_records_missing_or_not_utf8(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        rc, err = self.run(["classify", str(missing)], capsys)
        assert rc == 2 and str(missing) in err
        bad = tmp_path / "latin1.jsonl"
        bad.write_bytes(b'{"weight": 10, "p": 2, "mu_p": "\xe9", "mu_p2": "1"}\n')
        rc, err = self.run(["classify", str(bad)], capsys)
        assert rc == 2 and str(bad) in err and "UTF-8" in err

    def test_out_into_missing_directory(self, table10, tmp_path, capsys):
        out = tmp_path / "no" / "t.json"
        rc, err = self.run(["--no-cache", "lift", "--weight", "10", "--bound", "2",
                            "--out", str(out)], capsys)
        # refused before the plan lines, so before the lift is built
        assert rc == 2 and str(out) in err and self.out == ""
        rc, err = self.run(["eigen", str(table10), "--primes", "2", "--out", str(out)], capsys)
        assert rc == 2 and str(out) in err and self.out == ""
        assert not out.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failure_on_out(self, table10, capsys):
        # /dev/full opens, then every write to it fails with ENOSPC
        for argv in (["--no-cache", "lift", "--weight", "10", "--bound", "2", "--out", "/dev/full"],
                     ["eigen", str(table10), "--primes", "2", "--out", "/dev/full"]):
            rc, err = self.run(argv, capsys)
            assert rc == 2 and err.startswith("error: cannot write /dev/full: ")
            assert len(err.splitlines()) == 1

    def test_out_is_a_directory(self, table10, tmp_path, capsys):
        rc, err = self.run(["eigen", str(table10), "--primes", "2", "--out", str(tmp_path)], capsys)
        assert rc == 2 and f"cannot write {tmp_path}" in err

    def test_cache_dir_is_not_a_directory(self, tmp_path, capsys):
        # a regular file as the cache directory, and a path under one; a
        # directory without write permission is left out, since a process
        # running as root writes there anyway
        blocker = tmp_path / "file"
        blocker.write_text("")
        for cache_dir in (blocker, blocker / "sub"):
            rc, err = self.run(["--cache-dir", str(cache_dir), "lift", "--weight", "10",
                                "--bound", "2"], capsys)
            assert rc == 2 and f"cannot write cache entry {cache_dir}{os.sep}" in err
        assert blocker.read_text() == ""


class TestTableWeight:
    def write(self, table10, tmp_path, weight):
        data = json.loads(table10.read_text())
        data["weight"] = weight
        path = tmp_path / f"w{weight}.json"
        path.write_text(json.dumps(data))
        return path

    def test_weight_zero_refused(self, table10, tmp_path, capsys):
        # d ** (k - 1) at k = 0 would put the float 0.5 in an exact report
        rc = main(["check", str(self.write(table10, tmp_path, 0)), "--maass"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "weight 0 is below 1" in captured.err

    def test_negative_weight_refused(self, table10, tmp_path, capsys):
        rc = main(["eigen", str(self.write(table10, tmp_path, -2)), "--primes", "2"])
        assert rc == 2
        assert "weight -2 is below 1" in capsys.readouterr().err

    def test_hecke_sums_at_weight_2000000(self, table10, tmp_path):
        # integer class weights over s**3; the Fraction sums they replaced
        # ran past 100 s on this table, so a child process under a timeout
        proc = subprocess.run(
            [sys.executable, "-m", "sklift.cli", "eigen",
             str(self.write(table10, tmp_path, 2000000)), "--primes", "2"],
            capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            "error: table is not an eigenform of the similitude-2 operator (witness (1, 0, 1))\n"
        )

    def test_violation_past_digit_limit_exits_2(self, table10, tmp_path, capsys):
        # at weight 200000 the relation's sides have more digits than
        # Python converts to text
        rc = main(["check", str(self.write(table10, tmp_path, 200000)), "--maass"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "more digits than Python converts" in captured.err


class TestWeightCap:
    """A weight past the cap on the integers a command builds is refused from the header alone."""

    @pytest.fixture(scope="class")
    def table4(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("weight") / "t4.json"
        assert main(["--no-cache", "lift", "--weight", "10", "--bound", "4", "--out", str(path)]) == 0
        return path

    @staticmethod
    def refused(argv) -> str:
        # each once ran for 4-60 s and took up to 753 MB, building powers of the weight
        err = io.StringIO()
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
            seconds, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = err.getvalue()
        assert rc == 2 and err.count("\n") == 1 and len(err.encode()) < 300, err
        assert seconds < 1 and peak < 5 * 2**20, (seconds, peak)
        return err

    def write(self, table4, weight):
        data = json.loads(table4.read_text())
        path = table4.parent / f"w{weight}.json"
        path.write_text(json.dumps({**data, "weight": weight}))
        return path

    @pytest.mark.parametrize("args, context, largest", [
        (["check", "--maass"], "table bound 4", 67108864),
        (["check", "--maass-p", "2"], "--maass-p 2", 67108864),
        (["eigen", "--primes", "2"], "--primes 2", 26843545),
    ], ids=["maass", "maass-p", "eigen"])
    def test_table_weight_past_the_cap(self, table4, args, context, largest):
        heavy = self.write(table4, 200000000)
        err = self.refused([args[0], str(heavy), *args[1:]])
        assert err.startswith("error: table weight 200000000 is past the cap on the integers ")
        assert err.endswith(f"the largest table weight that fits {context} is {largest}\n")
        # one past the largest is refused too
        self.refused([args[0], str(self.write(table4, largest + 1)), *args[1:]])
        # and the largest runs to its end within 10 s, in a child process
        proc = subprocess.run([sys.executable, "-m", "sklift.cli", args[0], str(self.write(table4, largest)), *args[1:]],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode in (1, 2) and proc.stderr.count("\n") == 1 and "past the cap" not in proc.stderr

    @pytest.mark.parametrize("mu, scan", [("0", "0"), ("0", "50"), ("1", "0"), ("1", "50")])
    def test_record_weight_past_the_cap(self, tmp_path, mu, scan):
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(json.dumps({"weight": 200000000, "p": 2, "mu_p": mu, "mu_p2": mu}) + "\n")
        err = self.refused(["classify", str(rec_path), "--scan", scan])
        assert err == (f"error: {rec_path}:1: weight 200000000 is past the cap on the integers classify builds, "
                       "which grows as weight * log(p); the largest weight that fits this record is 16777214\n")

    def test_largest_record_weight_classifies(self, tmp_path):
        # mu(p) = mu(p**2) = 0 prints at any weight; the next even weight is refused
        rec_path = tmp_path / "records.jsonl"
        rec_path.write_text(json.dumps({"weight": 16777216, "p": 2, "mu_p": "0", "mu_p2": "0"}) + "\n")
        assert "fits this record is 16777214" in self.refused(["classify", str(rec_path), "--scan", "0"])
        rec_path.write_text(json.dumps({"weight": 16777214, "p": 2, "mu_p": "0", "mu_p2": "0"}) + "\n")
        proc = subprocess.run([sys.executable, "-m", "sklift.cli", "classify", str(rec_path), "--scan", "0"],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0 and proc.stderr == ""
