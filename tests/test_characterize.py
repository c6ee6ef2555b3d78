import copy
import dataclasses
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sklift.characterize import (
    COND_EIGENVALUE_IDENTITY,
    COND_PRIME_SQUARE_THRESHOLD,
    COND_PRIME_THRESHOLD,
    EigenvalueRecord,
    NEITHER_TYPE,
    RAMANUJAN_TYPE,
    SK_TYPE,
    growth_check,
    load_records,
    mu_sequence,
    parse_exact,
    positivity_scan,
    record_from_pair,
    sk_record,
    sk_trace,
    solve_satake,
    theorem41,
)
from sklift.characterize import _scaled_data
from sklift.errors import UsageError
from sklift.numeric import QuadExt, value_sign
from sklift.qseries import QSeries
from sklift import work
from sklift.work import BITS_CAP, SCAN_WORK_CAP, _power_at_least, record_bits, scan, scan_cost, scan_sizes

from oracles import (
    HOSTILE_P,
    HOSTILE_Q,
    growth_by_fractions,
    growth_by_half_powers,
    mu_sequence_by_fractions,
    noncanonical,
    positivity_by_value_sign,
    reconstruct,
    record_with_discriminant,
    scaled,
    series_inverse,
    series_product,
    spin_euler_data,
    theorem41_by_sqrt_multiples,
)

SK10 = EigenvalueRecord(10, 2, 240, 135424)


def random_trace(rng, lo=-2, hi=2):
    num = rng.randint(lo * 12, hi * 12)
    return Fraction(num, 12)


traces = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def growth_records(draw):
    """Lifted, paired, arbitrary and hostile records."""
    k = draw(st.sampled_from([10, 12, 14, 20]))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.sampled_from(["lifted", "lifted-field", "rational-pair", "pair", "arbitrary", "hostile"]))
    if kind == "lifted":
        return record_from_pair(k, p, sk_trace(p), draw(traces) + QuadExt(0, draw(traces), p))
    if kind == "lifted-field":
        # eigenvalues in a quadratic field other than Q(sqrt p)
        d = draw(st.sampled_from([5, 13, 51349]))
        return sk_record(k, p, QuadExt(draw(st.integers(-10**4, 10**4)), draw(st.integers(1, 99)), d))
    if kind == "rational-pair":
        return record_from_pair(k, p, draw(traces), draw(traces))
    if kind == "pair":
        x = draw(traces) + QuadExt(0, draw(traces), p)
        y = draw(traces) + QuadExt(0, draw(traces), p)
        return record_from_pair(k, p, x, y)
    if kind == "arbitrary":
        a, b = draw(st.integers(-4000, 4000)), draw(st.integers(-4000, 4000))
        return EigenvalueRecord(k, p, a * p ** (k - 2), b * p ** (2 * k - 4))
    return record_with_discriminant(k, p, draw(st.integers(-4000, 4000)), 2 * HOSTILE_P * HOSTILE_Q)


@st.composite
def scan_records(draw):
    """Records for the scaled-integer scan: large denominators, mu(p) = 0, large weights, Q(sqrt d)."""
    kind = draw(st.sampled_from(["fraction", "zero", "large", "large-pair", "growth"]))
    k = draw(st.sampled_from([10, 12, 14, 20]))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dens = st.integers(1, 10**30)
    if kind == "fraction":
        mu_p = Fraction(draw(st.integers(-10**40, 10**40)), draw(dens))
        return EigenvalueRecord(k, p, mu_p, Fraction(draw(st.integers(-10**60, 10**60)), draw(dens)))
    if kind == "zero":
        return EigenvalueRecord(k, p, 0, Fraction(draw(st.integers(-10**30, 10**30)), draw(dens)))
    k = draw(st.sampled_from([100, 250, 500]))
    p = draw(st.sampled_from([2, 53, 101]))
    if kind == "large":
        a, b = draw(st.integers(-4000, 4000)), draw(st.integers(-4000, 4000))
        return EigenvalueRecord(k, p, Fraction(a * p ** (k - 2), draw(st.integers(1, 99))), b * p ** (2 * k - 4))
    if kind == "large-pair":
        return record_from_pair(k, p, draw(traces), draw(traces) + QuadExt(0, draw(traces), p))
    return draw(growth_records())


def fields(report) -> list:
    """Every field of a report with its type, so that equal values of different types differ."""
    return [(f.name, getattr(report, f.name), type(getattr(report, f.name))) for f in dataclasses.fields(report)]


def growth_bounds(rec, r: int):
    """(m, n) of the sharp and of the weak bound at r: |mu(p**r)| <= (n / m) p**(r(2k-3)/2)."""
    c = math.comb(r + 3, 3)
    return (rec.p, c * rec.p + math.comb(r + 1, 3)), (2, 3 * c)


def sharp_and_weak(rec, r: int, mu):
    """(gap, exceeds) of the sharp and of the weak comparison m**2 mu**2 > n**2 p**(r(2k-3)).

    gap is 2 bitlen(u) - bitlen(w) with u = m |a| and w = (n b)**2 p**(r(2k-3)) for mu = a/b.
    """
    out = []
    for m, n in growth_bounds(rec, r):
        u = m * abs(mu.numerator)
        w = (n * mu.denominator) ** 2 * rec.p ** (r * (2 * rec.weight - 3))
        out.append((2 * u.bit_length() - w.bit_length(), u * u > w))
    return out


class TestScaledIntegerScan:
    @given(scan_records(), st.sampled_from([0, 1, 2, 3, 40]))
    @example(EigenvalueRecord(500, 101, 1, 1), 40)
    @example(EigenvalueRecord(12, 5, Fraction(7, 10**30 + 3), Fraction(-3, 10**30)), 40)
    @example(sk_record(16, 2, QuadExt(4320, 96, 51349)), 40)
    @settings(max_examples=250, deadline=None)
    def test_matches_fraction_oracles(self, rec, depth):
        seq = mu_sequence(rec, depth)
        want = mu_sequence_by_fractions(rec, depth)
        assert seq == want
        assert [type(v) for v in seq] == [type(v) for v in want]
        assert fields(growth_check(rec, seq)) == fields(growth_by_fractions(rec, want))
        assert fields(positivity_scan(seq)) == fields(positivity_by_value_sign(want))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 2**61 - 1])
    def test_r0_is_an_exact_equality(self, p):
        # at r = 0 the sharp comparison is p**2 * 1 against p**2 * 1, in the window
        rec = EigenvalueRecord(10, p, 1, 1)
        (gap, exceeds), _ = sharp_and_weak(rec, 0, Fraction(1))
        assert gap in (0, 1) and not exceeds
        assert growth_check(rec, [Fraction(1)]).ok

    def test_bit_length_window_edges(self):
        # values of mu(p**r) just either side of both bounds and of the powers
        # of two near them; the scan before r is all ones, within both bounds
        seen = set()
        for k, p in ((10, 2), (10, 3), (12, 5), (14, 7), (20, 101)):
            rec = EigenvalueRecord(k, p, 1, 1)
            for r in (1, 2, 3):
                for den in (1, 3, 10**6 + 3):
                    for m, n in growth_bounds(rec, r):
                        w = (n * den) ** 2 * p ** (r * (2 * k - 3))
                        t = math.isqrt(w) // m
                        near = {t + i for i in range(-2, 3)}
                        for j in (t.bit_length() - 1, t.bit_length()):
                            near |= {2**j + i for i in (-1, 0, 1)}
                        for a in near:
                            mu = Fraction(a, den)
                            seq = [Fraction(1)] * r + [mu]
                            assert growth_check(rec, seq) == growth_by_fractions(rec, seq), (k, p, r, mu)
                            seen.update(sharp_and_weak(rec, r, mu))
        # the bit lengths decide outside gaps 0 and 1, and both outcomes occur inside
        assert {(-1, False), (0, False), (0, True), (1, False), (1, True), (2, True)} <= seen
        assert not {(g, e) for g, e in seen if (g >= 2 and not e) or (g <= -1 and e)}

    def test_scan_bits_bound_the_sequence(self):
        rng = random.Random(29)
        for _ in range(40):
            k, p = rng.choice([10, 14, 100]), rng.choice([2, 3, 101])
            den = rng.choice([1, 6, 10**30 + 7])
            rec = EigenvalueRecord(k, p, Fraction(rng.randint(-4, 4) * p ** (k - 1), den),
                                   Fraction(rng.randint(-10**6, 10**6) * p ** (2 * k - 4), den))
            scale, sizes = _scaled_data(rec)[0], sizes_of(rec)
            bits = 0
            for r, mu in enumerate(mu_sequence(rec, 60)):
                bits += abs(mu * scale**r).numerator.bit_length()
                assert bits <= scan_cost(sizes, r)[0], (rec, r)

    def test_record_bits_bound_the_integers(self):
        # the integers of _scaled_data, theorem41 and solve_satake, the largest
        # of which record_bits names, against its bound
        rng = random.Random(31)
        for _ in range(60):
            k, p = rng.choice([10, 14, 100, 1000]), rng.choice([2, 3, 101, 2**61 - 1])
            b, e = rng.choice([1, 6, 10**30 + 7]), rng.choice([1, 9, 2**100])
            rec = EigenvalueRecord(k, p, Fraction(rng.randint(-4, 4) * p ** rng.randint(0, k), b),
                                   Fraction(rng.randint(-10**6, 10**6) * p ** rng.randint(0, 2 * k), e))
            scale, (c1, c2, c3, c4), tail = _scaled_data(rec)
            s = tail * p
            built = [c1, c2, c3, c4, tail, (c2 + 2 * s) ** 2, 4 * s * c1 * c1,
                     (p + 1) * p ** (k - 2) * scale * c1, tail * p * p, (p + 1) ** 2 * tail]
            assert max(abs(x).bit_length() for x in built) <= record_bits(rec, k), rec

    def test_deepest_scan_is_the_budget_edge(self):
        def within(sizes, depth):
            bits, work = scan_cost(sizes, depth)
            return bits <= BITS_CAP and work <= SCAN_WORK_CAP

        for rec in (EigenvalueRecord(200000, 2, 1, 1), EigenvalueRecord(500, 101, 1, 1),
                    EigenvalueRecord(10, 2, Fraction(1, 3), Fraction(-7, 2)), SK10):
            sizes = sizes_of(rec)
            depth = deepest_scan(sizes, 10**9)
            assert within(sizes, depth) and not within(sizes, depth + 1)
            scan(sizes, depth)
        assert deepest_scan(sizes_of(EigenvalueRecord(200000, 2, 1, 1)), 50) == 6
        # a scan that fits is not refused
        scan(sizes_of(SK10), 200)


def sizes_of(rec):
    scale, coefficients, _ = _scaled_data(rec)
    return scan_sizes(scale, coefficients)


def deepest_scan(sizes, depth):
    """The largest --scan that fits, as the refusal of ``depth`` names it."""
    with pytest.raises(UsageError) as err:
        scan(sizes, depth)
    return int(str(err.value).rsplit(" ", 1)[1])


class TestReportRefusal:
    @given(st.sampled_from([2, 3, 5, 7, 101, 2**61 - 1]), st.integers(1, 300), st.integers(-8, 8), st.integers(0, 3))
    @example(2, 1, 0, 0)
    @settings(max_examples=300, deadline=None)
    def test_power_at_least_is_exact(self, p, e, shift, which):
        # x near p**e, near a power of two, or far off either way
        x = max(1, [p**e + shift, 2 ** (p**e).bit_length() + shift, abs(shift) + 1, p ** (2 * e) + shift][which])
        assert _power_at_least(p, e, x) == (p**e >= x)

    @pytest.fixture
    def digit_limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(saved)

    @staticmethod
    def refused(weight, p, field, value):
        rec = EigenvalueRecord(**{"weight": weight, "p": p, "mu_p": 0, "mu_p2": 1, field: value})
        try:
            work.printable(rec)
        except UsageError as exc:
            assert "more digits than Python converts to text" in str(exc)
            return True
        return False

    @pytest.mark.parametrize("p", [2, 3, 101])
    @pytest.mark.parametrize("field", ["mu_p", "mu_p2"])
    def test_printable_at_the_edge(self, digit_limit, p, field):
        # the least even weight whose power p**e passes 10**(D + 3): then
        # |v| = p**e // 10**D is refused and |v| + 1 is not, for v = mu(p)
        # with e = k - 1, and v = mu(p**2) with mu(p) = 0 and e = 2k - 4
        exponent = (lambda k: k - 1) if field == "mu_p" else (lambda k: 2 * k - 4)
        k = 10
        while p ** exponent(k) < 10 ** (digit_limit + 3):
            k += 2
        edge = p ** exponent(k) // 10**digit_limit
        for value, refused in ((edge, True), (-edge, True), (edge + 1, False), (-edge - 1, False)):
            assert self.refused(k, p, field, value) == refused, value

    @pytest.mark.parametrize("p", [2, 3, 101])
    @pytest.mark.parametrize("field", ["mu_p", "mu_p2"])
    def test_printable_far_from_the_edge_by_bit_lengths(self, digit_limit, p, field, monkeypatch):
        # p**e past 16**D |v|, or below 8**D |v| / 2, is settled without building 10**D
        def unused(*args):
            raise AssertionError("the bit lengths settle this record")

        monkeypatch.setattr(work, "_power_at_least", unused)
        exponent = (lambda k: k - 1) if field == "mu_p" else (lambda k: 2 * k - 4)
        for value in (1, -7, 3**50):
            bits = 4 * digit_limit + value.bit_length()
            k = 10
            while exponent(k) * (p.bit_length() - 1) < bits:
                k += 2
            assert self.refused(k, p, field, value)
            assert not self.refused(10, p, field, value)

    def test_printable_without_a_digit_limit(self):
        # D = 0 lifts the limit: nothing is refused, however far past the edge
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for field in ("mu_p", "mu_p2"):
                assert not self.refused(2000000, 2, field, 1)
        finally:
            sys.set_int_max_str_digits(saved)


class TestSolveSatake:
    def test_sk_record_k10(self):
        sp = solve_satake(SK10)
        assert sp.classification == SK_TYPE
        assert sp.x == sk_trace(2) == QuadExt(0, Fraction(3, 2), 2)
        assert sp.y == QuadExt(0, Fraction(-33, 32), 2)

    def test_symmetric_zero_record(self):
        k, p = 10, 2
        rec = EigenvalueRecord(k, p, 0, -2 * p ** (2 * k - 3) - p ** (2 * k - 4))
        sp = solve_satake(rec)
        assert sp.classification == RAMANUJAN_TYPE
        assert sp.x == 0 and sp.y == 0

    def test_boundary_record(self):
        rec = record_from_pair(10, 2, Fraction(2), Fraction(2))
        sp = solve_satake(rec)
        assert sp.classification == RAMANUJAN_TYPE
        assert sp.x == 2 and sp.y == 2

    def test_neither_type_detected(self):
        rec = record_from_pair(10, 2, Fraction(3), Fraction(3))  # traces beyond [-2, 2]
        assert solve_satake(rec).classification == NEITHER_TYPE

    def test_complex_pair_is_not_unimodular_type(self):
        # zero trace sum with positive pair product: x, y form a complex
        # conjugate pair, which no eigenform can produce
        bent = EigenvalueRecord(10, 2, 0, -4 * 2 ** (2 * 10 - 3))
        sp = solve_satake(bent)
        assert value_sign(sp.discriminant) < 0
        assert sp.classification == NEITHER_TYPE

    def test_round_trip_all_types(self):
        rng = random.Random(3)
        for _ in range(40):
            k = rng.choice([10, 12, 14])
            p = rng.choice([2, 3, 5])
            kind = rng.random()
            if kind < 0.4:
                rec = record_from_pair(k, p, random_trace(rng), random_trace(rng))
            elif kind < 0.8:
                rec = record_from_pair(k, p, sk_trace(p), random_trace(rng))
            else:
                rec = record_from_pair(k, p, random_trace(rng, -5, 5), random_trace(rng, -5, 5))
            sp = solve_satake(rec)
            back = reconstruct(sp)
            assert value_sign(back.mu_p - rec.mu_p) == 0
            assert value_sign(back.mu_p2 - rec.mu_p2) == 0

    def test_explicit_pair_recovery(self):
        rng = random.Random(5)
        for _ in range(30):
            x, y = random_trace(rng), random_trace(rng)
            sp = solve_satake(record_from_pair(12, 3, x, y))
            assert {sp.x, sp.y} == {x, y}

    def test_rational_trace_records_recover_pair(self):
        # rational mu(p): x + y = w*sqrt(p) is irrational, and x - y is
        # rational (s != 0) or a rational multiple of sqrt(p)
        cases = [
            (10, 2, Fraction(1, 2), Fraction(1, 4)),
            (12, 3, Fraction(-5, 6), Fraction(1, 3)),
            (10, 5, Fraction(1), Fraction(-1, 5)),
            (14, 7, Fraction(1, 4), Fraction(3, 7)),
        ]
        for k, p, s, t in cases:
            x, y = s + QuadExt(0, t, p), -s + QuadExt(0, t, p)
            rec = record_from_pair(k, p, x, y)
            assert not isinstance(rec.mu_p, QuadExt) and not isinstance(rec.mu_p2, QuadExt)
            sp = solve_satake(rec)
            assert (sp.x, sp.y) == ((x, y) if s > 0 else (y, x)), (k, p)
        x, y = QuadExt(0, Fraction(1, 2), 2), QuadExt(0, Fraction(-1, 4), 2)
        sp = solve_satake(record_from_pair(10, 2, x, y))
        assert (sp.x, sp.y) == (x, y)

    def test_trace_with_rational_part(self):
        x = QuadExt(1, Fraction(1, 4), 2)
        y = QuadExt(Fraction(1, 2), Fraction(1, 4), 2)
        sp = solve_satake(record_from_pair(10, 2, x, y))
        assert (sp.x, sp.y) == (x, y)

    @given(
        st.sampled_from([10, 12]),
        st.sampled_from([2, 3, 5]),
        st.integers(-4000, 4000),
        st.integers(-4000, 4000),
        st.fractions(min_value=-2, max_value=2, max_denominator=12),
        st.fractions(min_value=-1, max_value=1, max_denominator=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_explicit_pair_solves_its_quadratic(self, k, p, a, b, s, t):
        # file-shaped records: integers on the eigenvalue scale, and pairs
        # s +- t*sqrt(p), both with rational mu(p) and mu(p**2)
        scale = p ** (k - 2)
        pair = (s + QuadExt(0, t, p), -s + QuadExt(0, t, p))
        paired = solve_satake(record_from_pair(k, p, *pair))
        assert {paired.x, paired.y} == set(pair)
        for sp in (solve_satake(EigenvalueRecord(k, p, a * scale, b * scale * scale)), paired):
            if sp.x is not None:
                assert sp.x + sp.y == sp.trace_scaled * QuadExt(0, 1, p)
                assert sp.x * sp.y == sp.pair_product

    def test_uncertified_discriminant_leaves_pair_null(self):
        disc = 2 * HOSTILE_P * HOSTILE_Q
        for mu_p in (0, 1):
            sp = solve_satake(record_with_discriminant(10, 2, mu_p, disc))
            assert sp.discriminant == disc
            assert sp.x is None and sp.y is None

    def test_params_with_a_quadext_copy_and_pickle(self):
        sp = solve_satake(SK10)
        assert isinstance(sp.x, QuadExt) and isinstance(sp.y, QuadExt)
        assert copy.deepcopy(sp) == sp
        assert pickle.loads(pickle.dumps(sp)) == sp
        assert dataclasses.asdict(sp) == {f.name: getattr(sp, f.name) for f in dataclasses.fields(sp)}

    def test_quadratic_field_record(self):
        # records whose eigenvalues live in a quadratic field classify too
        lam = QuadExt(4320, 96, 51349)
        rec = sk_record(16, 2, lam)
        sp = solve_satake(rec)
        assert sp.classification == SK_TYPE
        assert sp.x == sk_trace(2)
        cert = theorem41(rec)
        assert cert.verdict == SK_TYPE


class TestOneRepresentation:
    @given(growth_records(), st.integers(0, 8))
    @example(record_from_pair(10, 2, QuadExt(0, 1, 2), QuadExt(0, -1, 2)), 4)
    @settings(max_examples=100, deadline=None)
    def test_values_are_int_fraction_or_irrational(self, rec, depth):
        values = [rec, spin_euler_data(rec), solve_satake(rec), theorem41(rec), mu_sequence(rec, depth)]
        assert noncanonical(values) == []


class TestTheorem41:
    @given(st.one_of(growth_records(), scan_records()))
    # thresholds met exactly: mu(p) = 4 p**(k-3/2), and a trace at the window's edge
    @example(record_from_pair(10, 2, 2, 2))
    @example(record_from_pair(12, 3, Fraction(1, 2), -2))
    @example(record_from_pair(14, 5, 2, QuadExt(0, Fraction(1, 3), 5)))
    @example(EigenvalueRecord(12, 5, Fraction(7, 10**30 + 3), Fraction(-3, 10**30)))
    @settings(max_examples=200, deadline=None)
    def test_squared_thresholds_match_sqrt_multiple_oracle(self, rec):
        # the scaled-integer decisions against the Fraction ones, type for type
        got, want = theorem41(rec), theorem41_by_sqrt_multiples(rec)
        assert fields(got) == fields(want)
        assert fields(got.satake) == fields(solve_satake(rec)) == fields(want.satake)
        assert got.to_json_dict() == want.to_json_dict()

    def test_sk_at_2_only_identity_fires(self):
        cert = theorem41(SK10)
        assert cert.verdict == SK_TYPE
        assert cert.conditions_fired == (COND_EIGENVALUE_IDENTITY,)
        assert not cert.inconsistent

    def test_thresholds_fire_at_37(self, f18):
        rec = sk_record(10, 37, f18.a(37))
        cert = theorem41(rec)
        assert COND_PRIME_THRESHOLD in cert.conditions_fired
        assert cert.verdict == SK_TYPE

    def test_prime_square_threshold_at_17(self, f18):
        rec = sk_record(10, 17, f18.a(17))
        cert = theorem41(rec)
        assert COND_PRIME_SQUARE_THRESHOLD in cert.conditions_fired

    def test_ramanujan_record_not_sk(self):
        k, p = 10, 2
        rec = EigenvalueRecord(k, p, 0, -2 * p ** (2 * k - 3) - p ** (2 * k - 4))
        cert = theorem41(rec)
        assert cert.verdict == f"not-{SK_TYPE}"
        assert COND_EIGENVALUE_IDENTITY not in cert.conditions_fired
        assert not cert.inconsistent

    def test_inconsistent_record_flagged(self):
        # large mu_p (threshold fires) with mu_p2 off the identity
        k, p = 10, 2
        rec = EigenvalueRecord(k, p, 10**7, 0)
        cert = theorem41(rec)
        assert COND_PRIME_THRESHOLD in cert.conditions_fired
        assert cert.verdict == f"not-{SK_TYPE}"
        assert cert.inconsistent

    def test_identity_equivalence_with_classification(self):
        rng = random.Random(9)
        for _ in range(60):
            k = rng.choice([10, 12])
            p = rng.choice([2, 3])
            if rng.random() < 0.5:
                rec = record_from_pair(k, p, sk_trace(p), random_trace(rng))
                want = True
            else:
                x, y = random_trace(rng), random_trace(rng)
                rec = record_from_pair(k, p, x, y)
                want = False
            cert = theorem41(rec)
            fired = COND_EIGENVALUE_IDENTITY in cert.conditions_fired
            assert fired == want == (cert.satake.classification == SK_TYPE)

    def test_verdict_scaling_free(self, lift10):
        # eigenvalues are ratios, so rescaling the table cannot move the verdict
        from sklift.siegel import hecke_eigenvalue

        rescaled = scaled(lift10, Fraction(355, 113))
        rec = EigenvalueRecord(
            10, 2, hecke_eigenvalue(rescaled, 2), hecke_eigenvalue(rescaled, 4)
        )
        assert rec == SK10
        assert theorem41(rec).verdict == SK_TYPE


class TestMuSequence:
    def test_normalization_and_record_reproduction(self):
        seq = mu_sequence(SK10, 6)
        assert seq[0] == 1
        assert seq[1] == 240
        assert seq[2] == 135424

    def test_random_pairs_reproduce_both_eigenvalue_formulas(self):
        # r = 1 and r = 2 must give back the defining symmetric expressions
        rng = random.Random(13)
        for _ in range(50):
            k = rng.choice([10, 12])
            p = rng.choice([2, 3, 5])
            if rng.random() < 0.5:
                x, y = random_trace(rng), random_trace(rng)
            else:
                x, y = sk_trace(p), random_trace(rng)
            rec = record_from_pair(k, p, x, y)
            seq = mu_sequence(rec, 2)
            sqrt_p = QuadExt(0, 1, p)
            mu1 = Fraction(p) ** (k - 2) * (x + y) * sqrt_p
            mu2 = Fraction(p) ** (2 * k - 3) * (
                x * x + x * y + y * y - 2 - Fraction(1, p)
            )
            assert value_sign(seq[1] - mu1) == 0
            assert value_sign(seq[2] - mu2) == 0

    def test_against_series_inversion_oracle(self):
        # expand the degree-4 local factor by generic power-series inversion
        # with the lifted trace substituted exactly
        k, p = 10, 2
        x = sk_trace(2)
        y = QuadExt(0, Fraction(-33, 32), 2)
        sqrt2 = QuadExt(0, 1, 2)
        e1 = 2 ** (k - 2) * (x + y) * sqrt2
        e2 = Fraction(2) ** (2 * k - 3) * (2 + x * y)
        e3 = Fraction(2) ** (2 * k - 3) * e1
        e4 = Fraction(2) ** (4 * k - 6)
        rmax = 12
        den = QSeries([1, -e1, e2, -e3, e4], rmax)
        num = QSeries([1, 0, -Fraction(2) ** (2 * k - 4)], rmax)
        expanded = series_product(num, series_inverse(den))
        seq = mu_sequence(SK10, rmax)
        for r in range(rmax + 1):
            assert value_sign(expanded.coefficient(r) - seq[r]) == 0, r

    def test_negative_depth_rejected(self):
        with pytest.raises(UsageError):
            mu_sequence(SK10, -1)


class TestGrowthAndSigns:
    def test_ramanujan_records_hold_to_100(self):
        rng = random.Random(17)
        for _ in range(10):
            k = rng.choice([10, 12])
            p = rng.choice([2, 3])
            rec = record_from_pair(k, p, random_trace(rng), random_trace(rng))
            rep = growth_check(rec, mu_sequence(rec, 100))
            assert rep.ok, (k, p)

    def test_sk_record_weak_bound_fails_at_27(self):
        # frozen regression constant, confirmed by the series-inversion oracle
        rep = growth_check(SK10, mu_sequence(SK10, 40))
        assert rep.first_weak_violation == 27
        assert rep.first_sharp_violation == 27

    @given(growth_records(), st.integers(0, 60))
    @settings(max_examples=150, deadline=None)
    def test_squared_bounds_match_half_power_oracle(self, rec, depth):
        seq = mu_sequence(rec, depth)
        assert growth_check(rec, seq) == growth_by_half_powers(rec, seq)

    def test_growth_r0_holds(self):
        rep = growth_check(SK10, mu_sequence(SK10, 0))
        assert rep.ok

    def test_sk_positivity(self):
        rep = positivity_scan(mu_sequence(SK10, 50))
        assert rep.all_positive
        assert rep.sign_changes == ()

    def test_zero_trace_record_alternates(self):
        k, p = 10, 2
        rec = EigenvalueRecord(k, p, 0, -2 * p ** (2 * k - 3) - p ** (2 * k - 4))
        rep = positivity_scan(mu_sequence(rec, 40))
        assert not rep.all_positive
        assert rep.signs[0] == 1 and rep.signs[2] == -1 and rep.signs[4] == 1
        assert len(rep.sign_changes) >= 18
        # normalized size stays within the cubic envelope on the window
        assert growth_check(rec, mu_sequence(rec, 100)).ok

    def test_scan_depth_zero(self):
        rep = positivity_scan(mu_sequence(SK10, 0))
        assert rep.signs == (1,)
        assert rep.all_positive


class TestRecordIO:
    def test_parse_exact(self):
        assert parse_exact("240") == 240
        assert parse_exact("-3/4") == Fraction(-3, 4)
        assert parse_exact(7) == 7
        # decimal strings are exact; float objects are not and are refused
        assert parse_exact("1.5") == Fraction(3, 2)
        with pytest.raises(UsageError):
            parse_exact("abc")
        with pytest.raises(UsageError):
            parse_exact(2.5)

    def test_load_records_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"weight": 10, "p": 2, "mu_p": "240", "mu_p2": "135424"}\n'
            '{"weight": 12, "p": 3, "mu_p": "107352", "mu_p2": "17549398521"}\n'
        )
        recs = load_records(path, 0)
        assert recs[0] == SK10
        assert recs[1].p == 3

    def test_load_records_line_numbered_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"weight": 10, "p": 2, "mu_p": "240", "mu_p2": "1"}\nnope\n')
        with pytest.raises(UsageError) as err:
            load_records(path, 0)
        assert ":2:" in str(err.value)

    def test_record_validation(self):
        with pytest.raises(UsageError):
            EigenvalueRecord(11, 2, 1, 1)
        with pytest.raises(UsageError):
            EigenvalueRecord(10, 4, 1, 1)
        with pytest.raises(UsageError, match="2203 bits"):
            EigenvalueRecord(10, 2**2203 - 1, 1, 1)
