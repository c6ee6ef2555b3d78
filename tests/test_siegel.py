import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sklift import siegel
from sklift.errors import InconsistencyError, TruncationError, UsageError
from sklift.jacobi import JacobiForm, ez_lift
from sklift.kohnen import plus_space_basis
from sklift.numeric import QuadExt
from sklift.numeric import is_prime, short_repr
from sklift.siegel import (
    SiegelFourierTable,
    check_maass_p_space,
    check_maass_space,
    maass_lift,
    reduce_index,
    reduced_indices,
)
from sklift.work import BOUND_CAP, MAASS_P_CAP, maass_p, maass_p_instances

import oracles
from oracles import jacobi_coeff, misstored, perturbed, scaled


def unimodular_image(n, r, m, u):
    a, b, c, d = u
    return (
        n * a * a + r * a * c + m * c * c,
        2 * n * a * b + r * (a * d + b * c) + 2 * m * c * d,
        n * b * b + r * b * d + m * d * d,
    )


triples = st.tuples(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
).filter(lambda t: 4 * t[0] * t[2] - t[1] * t[1] > 0)


class TestReduction:
    def test_canonical_region(self):
        for idx in reduced_indices(6):
            n, r, m = idx
            assert 0 <= r <= n <= m
            assert reduce_index(n, r, m) == (n, r, m)

    def test_examples(self):
        assert reduce_index(2, 1, 1) == (1, 1, 2)
        assert reduce_index(1, 2, 4) == (1, 0, 3)
        assert reduce_index(3, 7, 6) == (2, 1, 3)
        assert reduce_index(1, -1, 1) == (1, 1, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(UsageError):
            reduce_index(1, 2, 1)  # indefinite
        with pytest.raises(UsageError):
            reduce_index(0, 0, 1)

    @given(triples)
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, t):
        once = reduce_index(*t)
        assert reduce_index(*once) == once

    @given(
        triples,
        st.lists(
            st.one_of(
                st.integers(min_value=-3, max_value=3).map(lambda u: (1, u, 0, 1)),
                st.integers(min_value=-3, max_value=3).map(lambda u: (1, 0, u, 1)),
                st.just((0, 1, -1, 0)),
                st.just((1, 0, 0, -1)),
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_unimodular_action(self, t, words):
        image = t
        for u in words:
            image = unimodular_image(*image, u)
        assert reduce_index(*image) == reduce_index(*t)


class TestTable:
    def test_lookup_routes_through_reduction(self, lift10):
        assert lift10.value(2, 1, 1) == lift10.value(1, 1, 2)
        assert lift10.value(1, -1, 1) == lift10.value(1, 1, 1)

    def test_outside_support_is_zero(self, lift10):
        assert lift10.value(1, 5, 1) == 0
        assert lift10.value(-1, 0, -1) == 0
        assert lift10.value(0, 0, 3) == 0

    def test_beyond_bound_raises_and_try_value_none(self, lift10):
        with pytest.raises(TruncationError):
            lift10.value(1, 0, lift10.bound + 1)
        assert lift10.try_value(1, 0, lift10.bound + 1) is None

    def test_unreduced_keys_rejected(self):
        with pytest.raises(UsageError):
            SiegelFourierTable(10, 5, {(2, 1, 1): Fraction(1)})

    def test_roundtrip_json(self, lift10):
        data = lift10.to_json_dict()
        clone = SiegelFourierTable.from_json_dict(json.loads(json.dumps(data)))
        assert clone == lift10
        assert data["schema_version"] == 1
        assert all(isinstance(e[3], str) and isinstance(e[4], str) for e in data["entries"])

    def test_rational_entries_serialize_whatever_built_them(self):
        # QuadExt(5, 0, 2) is the rational 5; only a genuine irrational is refused
        table = SiegelFourierTable(10, 2, {(1, 1, 1): QuadExt(5, 0, 2)})
        assert table.to_json_dict()["entries"] == [[1, 1, 1, "5", "1"]]
        with pytest.raises(UsageError, match="quadratic-irrational"):
            SiegelFourierTable(10, 2, {(1, 1, 1): QuadExt(5, 1, 2)}).to_json_dict()

    def test_bad_schema_rejected(self):
        with pytest.raises(UsageError):
            SiegelFourierTable.from_json_dict({"schema_version": 99})
        with pytest.raises(UsageError, match="not a list"):
            SiegelFourierTable.from_json_dict([])
        with pytest.raises(UsageError, match="malformed"):
            SiegelFourierTable.from_json_dict(
                {"schema_version": 1, "weight": 10, "bound": 1, "entries": [[1, 1, 1, "1", "0"]]}
            )

    def test_entries_load_as_ints_when_integral(self):
        data = {"schema_version": 1, "weight": 10, "bound": 2, "entries": [
            [1, 1, 1, "7", "1"], [1, 0, 1, "-6", "-2"], [1, 0, 2, "3", "-6"], [1, 1, 2, "4", "6"], [2, 2, 2, "0", "1"]]}
        entries = SiegelFourierTable.from_json_dict(data).entries
        assert {key: (v, type(v)) for key, v in entries.items()} == {
            (1, 1, 1): (7, int), (1, 0, 1): (3, int), (1, 0, 2): (Fraction(-1, 2), Fraction),
            (1, 1, 2): (Fraction(2, 3), Fraction)}
        data["entries"][0][4] = "0"
        with pytest.raises(UsageError, match="malformed"):
            SiegelFourierTable.from_json_dict(data)

    def test_repeated_index_rejected(self):
        data = {"schema_version": 1, "weight": 10, "bound": 1,
                "entries": [[1, 1, 1, "1", "1"], [1, 1, 1, "7", "1"]]}
        with pytest.raises(UsageError, match=r"^table index \(1, 1, 1\) is listed twice$"):
            SiegelFourierTable.from_json_dict(data)
        del data["entries"][1]
        assert SiegelFourierTable.from_json_dict(data).entries == {(1, 1, 1): 1}

    def test_bound_past_the_cap_refused(self):
        data = {"schema_version": 1, "weight": 10, "bound": BOUND_CAP, "entries": [[1, 1, 1, "1", "1"]]}
        assert BOUND_CAP == 100 and SiegelFourierTable.from_json_dict(data).bound == BOUND_CAP
        for bound in (BOUND_CAP + 1, 100000, 10**40):
            data["bound"] = bound
            with pytest.raises(UsageError) as err:
                SiegelFourierTable.from_json_dict(data)
            assert str(err.value) == (
                f"table bound {short_repr(bound)} is past the cap on the work a table can demand, "
                "which grows as bound**3; the largest table bound that fits is 100"
            )

    def test_weight_below_one_rejected(self):
        for weight in (0, -2):
            with pytest.raises(UsageError, match="below 1"):
                SiegelFourierTable(weight, 4, {})


def outcome(lookup, *args):
    """What a lookup did: its value and type, or its exception's type and text."""
    try:
        got = lookup(*args)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("returned", type(got), got)


any_triples = st.tuples(*(
    st.one_of(st.integers(min_value=-30, max_value=30), st.integers(min_value=-10**9, max_value=10**9))
    for _ in range(3)
))


class TestLookupOracle:
    """The arithmetic lookup against the raise-and-catch one it replaced."""

    EXAMPLES = [
        (1, 1, 1), (2, 1, 1), (1, -1, 1), (1, 5, 1), (-1, 0, -1), (0, 0, 3), (1, 2, 1),
        (1, 0, 7), (7, 0, 7), (3, 7, 6), (6, -6, 6), (6, 0, 7), (10, 3, -4),
        # one to six swap-and-translate steps
        (1, 41, 421), (3, -100, 834), (1000, 1999, 1000), (1000, -1999, 1000), (7, 23, 19),
        (6051, 19581, 15841),
        # r = -n, which translates to r = n, and a negative r within (-n, n]
        (2, -2, 5), (5, -5, 6), (5, -5, 7), (2, -1, 3),
        # the reduced m at the bound 6 and one past it, reduced or not
        (1, 0, 6), (6, 6, 6), (6, 1, 1), (1, 2, 7), (1, 2, 8), (8, 2, 1), (6, -13, 8),
        # 4nm = r**2, off the cusp support
        (3, 6, 3), (1, -2, 1), (4, 4, 1), (9, -6, 1), (2, 4, 2),
    ]

    @staticmethod
    def assert_agree(table, t):
        assert outcome(table.value, *t) == outcome(oracles.value, table, *t), t
        assert outcome(table.try_value, *t) == outcome(oracles.try_value, table, *t), t

    def test_examples(self, lift10_b6):
        for t in self.EXAMPLES:
            self.assert_agree(lift10_b6, t)
        with pytest.raises(TruncationError) as err:
            lift10_b6.value(7, 0, 7)
        assert str(err.value) == "index (7, 0, 7) reduces to (7, 0, 7) beyond bound 6"

    def test_guard_counts_the_same_steps(self, monkeypatch, lift10_b6):
        # both reductions stop after REDUCTION_STEPS steps, and the oracles
        # reduce through siegel.reduce_index; shrunk to 2, the guard admits
        # one translation and refuses two
        assert siegel.REDUCTION_STEPS == 10_000
        monkeypatch.setattr(siegel, "REDUCTION_STEPS", 2)
        for t in [(1, 41, 421), (2, -2, 5), (7, 0, 1)]:
            self.assert_agree(lift10_b6, t)
        for t in [(3, -100, 834), (1000, 1999, 1000), (7, 23, 19)]:
            self.assert_agree(lift10_b6, t)
            with pytest.raises(InconsistencyError, match="failed to terminate"):
                lift10_b6.try_value(*t)

    @given(any_triples, st.sampled_from([Fraction(1), Fraction(-7, 3)]))
    @settings(max_examples=400, deadline=None)
    def test_any_triple(self, lift10_b6, t, factor):
        self.assert_agree(scaled(lift10_b6, factor), t)

    @pytest.mark.parametrize("bound", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("bad", [False, True], ids=["clean", "perturbed"])
    def test_p_space_reports(self, jacobi10, bound, bad):
        table = maass_lift(jacobi10, bound)
        if bad:
            table = perturbed(perturbed(table, (1, 1, 1), 1), (2, 1, bound), Fraction(1, 3))
        violations = []
        for p in (2, 3, 5):
            got, want = check_maass_p_space(table, p), oracles.check_maass_p_space(table, p)
            assert (got.kind, got.p, got.bound) == (want.kind, want.p, want.bound)
            assert got.checked == want.checked, p
            assert got.skipped == want.skipped, p
            assert got.violations == want.violations, p
            violations += got.violations
        assert bool(violations) == bad

    @pytest.mark.parametrize("bound", [4, 5])
    @pytest.mark.parametrize("bad", [False, True], ids=["clean", "perturbed"])
    def test_p7_space_reports(self, jacobi10, bound, bad):
        # at bound 4 no resolved p = 7 instance can fail: each reads one
        # reduced index on both sides, or only indices off the cusp support;
        # at bound 5 instances pair (1, 0, 5) with (2, 2, 3), both of
        # discriminant 20
        table = maass_lift(jacobi10, bound)
        if bad:
            table = perturbed(perturbed(table, (1, 1, 1), 1), (1, 0, bound), Fraction(1, 3))
        got, want = check_maass_p_space(table, 7), oracles.check_maass_p_space(table, 7)
        assert (got.kind, got.p, got.bound) == (want.kind, want.p, want.bound)
        assert got.checked == want.checked > 0
        assert got.skipped == want.skipped
        assert got.violations == want.violations
        assert bool(got.violations) == (bad and bound == 5)

    @pytest.mark.parametrize("bound", [4, 8])
    @pytest.mark.parametrize("bad", [False, True], ids=["clean", "perturbed"])
    def test_p_space_makes_the_oracles_lookups(self, monkeypatch, jacobi10, bound, bad):
        # the benchmark counts these lookups as siegel.check_lookups; a checker
        # that prunes instances makes fewer of them, and changes this test
        table = maass_lift(jacobi10, bound)
        if bad:
            table = perturbed(perturbed(table, (1, 1, 1), 1), (2, 1, bound), Fraction(1, 3))
        counts = {"checker": 0, "oracle": 0}

        def counted(name, lookup):
            def counting(*args):
                counts[name] += 1
                return lookup(*args)
            return counting

        monkeypatch.setattr(SiegelFourierTable, "try_value", counted("checker", SiegelFourierTable.try_value))
        monkeypatch.setattr(oracles, "try_value", counted("oracle", oracles.try_value))
        for p in (2, 3, 5):
            counts.update(checker=0, oracle=0)
            check_maass_p_space(table, p)
            oracles.check_maass_p_space(table, p)
            assert counts["checker"] == counts["oracle"] > 0, p


class TestMaassLift:
    def test_single_divisor_cases(self, lift10, jacobi10):
        assert lift10.value(1, 1, 1) == jacobi_coeff(jacobi10, 1, 1)
        assert lift10.value(1, 0, 2) == jacobi_coeff(jacobi10, 2, 0)

    def test_two_divisor_case(self, lift10, jacobi10):
        k = 10
        want = jacobi_coeff(jacobi10, 4, 2) + 2 ** (k - 1) * jacobi_coeff(jacobi10, 1, 1)
        assert lift10.value(2, 2, 2) == want

    def test_known_head(self, lift10):
        assert lift10.value(1, 1, 1) == 1
        assert lift10.value(1, 0, 1) == -2
        assert lift10.value(2, 2, 2) == 240

    def test_insufficient_disc_range(self, jacobi10):
        with pytest.raises(TruncationError) as err:
            maass_lift(jacobi10, 50)
        assert str(err.value) == (
            f"lift to bound 50 needs Jacobi discriminants up to {4 * 50 * 50}, table stops at {jacobi10.max_disc}"
        )

    def test_weight_refused_before_the_divisor_sum(self, monkeypatch):
        # at weight 0, d**(k-1) is a float; the refusal comes before any term is built
        def built(*args):
            raise AssertionError("the divisor sum ran")

        monkeypatch.setattr(siegel, "divisor_lists", built)
        with pytest.raises(UsageError, match=r"^table weight 0 is below 1$"):
            maass_lift(JacobiForm(0, {3: 1, 4: -2, 12: 5, 16: 7}, 100), 4)
        # a short Jacobi table is still refused first
        with pytest.raises(TruncationError):
            maass_lift(JacobiForm(0, {3: 1}, 10), 4)


class TestMaassSpaceCheck:
    def test_lift_is_clean(self, lift10, lift12):
        for table in (lift10, lift12):
            rep = check_maass_space(table)
            assert rep.ok
            assert rep.checked > 20

    def test_empty_table(self):
        rep = check_maass_space(SiegelFourierTable(10, 4, {}))
        assert rep.ok

    def test_perturbation_gives_exact_violation_set(self, lift10):
        bad = perturbed(lift10, (2, 2, 2), 1)
        rep = check_maass_space(bad)
        assert [v[0] for v in rep.violations] == [(2, 2, 2)]
        idx, lhs, rhs = rep.violations[0]
        assert lhs == rhs + 1

    def test_violations_in_m_n_r_order(self, lift10):
        # the right-hand sides read n = 1 only, so each perturbed index with
        # n >= 2 and D <= 4 * bound is exactly one violation; any order that
        # runs n before m puts (2, 1, 4) before (3, 3, 3)
        order = [(2, 2, 2), (2, 1, 3), (3, 3, 3), (2, 1, 4)]
        bad = lift10
        for idx in reversed(order):
            bad = perturbed(bad, idx, 1)
        assert [v[0] for v in check_maass_space(bad).violations] == order

    def test_report_shape(self, jacobi10_b12):
        for bound in (-1, 0, *range(1, 13)):
            for table in (maass_lift(jacobi10_b12, bound), SiegelFourierTable(10, bound, {})):
                rep = check_maass_space(table)
                assert rep.kind == "maass" and rep.p is None and rep.bound == bound
                assert rep.checked + rep.skipped == sum(1 for _ in reduced_indices(bound)), bound


def counted_instances(p, bound):
    """The instances ``check_maass_p_space`` enumerates: isqrt(4pnm) + 1 values of r per (n, m)."""
    top = p * bound
    return sum(math.isqrt(4 * p * n * m) + 1 for n in range(1, top + 1) for m in range(1, top + 1))


def largest_maass_p(bound):
    """The largest prime the refusal of a --maass-p past the cap names at ``bound``."""
    with pytest.raises(UsageError) as err:
        maass_p(4 * MAASS_P_CAP**2, bound)
    return int(str(err.value).rsplit(" ", 1)[1])


class TestMaassPWork:
    def test_bound_covers_the_enumeration(self, lift10):
        # the estimate is at least the count, and the count is what the
        # checker visits, checked and skipped together
        for p in (2, 3, 5, 7, 11, 13):
            for bound in range(0, 7):
                assert counted_instances(p, bound) <= maass_p_instances(p, bound), (p, bound)
        for p in (2, 3, 5):
            rep = check_maass_p_space(lift10, p)
            assert rep.checked + rep.skipped == counted_instances(p, lift10.bound)

    def test_cap_values(self):
        # check --all at the table cap fits exactly; --maass-p 101 at bound 4 is past it
        assert MAASS_P_CAP == maass_p_instances(5, BOUND_CAP) == 250_195_693
        assert maass_p_instances(101, 4) == 593_598_322
        assert all(maass_p_instances(p, BOUND_CAP) <= MAASS_P_CAP for p in (2, 3, 5))

    @pytest.mark.parametrize("bound, want", [(1, 257), (4, 73), (12, 29), (100, 5)])
    def test_largest_maass_p(self, bound, want):
        assert largest_maass_p(bound) == want
        assert maass_p_instances(want, bound) <= MAASS_P_CAP
        # the next prime is past the cap
        past = next(q for q in range(want + 1, 2 * want + 2) if is_prime(q))
        assert maass_p_instances(past, bound) > MAASS_P_CAP

    def test_largest_maass_p_by_bisection(self):
        # at bound 0 the fitting primes run to about 8 * 10**16: a scan down
        # from a refused p could not finish, doubling and bisection do at once
        p = largest_maass_p(0)
        assert is_prime(p) and maass_p_instances(p, 0) <= MAASS_P_CAP
        assert all(maass_p_instances(q, 0) > MAASS_P_CAP for q in range(p + 1, p + 200) if is_prime(q))


class TestMaassPSpaceCheck:
    def test_lift_clean_for_small_primes(self, lift10_b6):
        for p in (2, 3, 5):
            rep = check_maass_p_space(lift10_b6, p)
            assert rep.ok, p
            assert rep.checked > 100

    def test_nonprime_refused(self, lift10_b6):
        with pytest.raises(UsageError, match="4 is not prime"):
            check_maass_p_space(lift10_b6, 4)

    def test_lift12_clean(self, lift12):
        rep = check_maass_p_space(lift12, 2)
        assert rep.ok and rep.checked > 100

    def test_reduction_symmetric_instance(self, lift10):
        # the (1,1,1) instance at p=2 compares two lookups that reduce to the
        # same class, so it can never fire, even on a perturbed table
        bad = perturbed(lift10, (1, 1, 2), 7)
        rep = check_maass_p_space(bad, 2)
        assert ((1, 1, 1)) not in [v[0] for v in rep.violations]

    def test_maass_violation_implies_p_space_violation(self, lift10_b6):
        bad = perturbed(lift10_b6, (1, 1, 1), 1)
        assert not check_maass_space(bad).ok
        hits = [p for p in (2, 3, 5) if not check_maass_p_space(bad, p).ok]
        assert hits, "no single-prime relation caught the perturbation"

    def test_scaling_invariance_of_checks(self, lift10_b6):
        rescaled = scaled(lift10_b6, Fraction(7, 3))
        assert check_maass_space(rescaled).ok
        assert check_maass_p_space(rescaled, 2).ok


@pytest.fixture(scope="module")
def jacobi10_b12():
    """The weight-10 Jacobi form to discriminant 576 = 4 * 12**2."""
    return ez_lift(plus_space_basis(10, 576)[0])


def lift_tables(phi, bound):
    """A clean lift at ``bound``, a copy perturbed at up to three indices, and scaled copies of both."""
    clean = oracles.maass_lift(phi, bound)
    bad = perturbed(perturbed(clean, (1, 1, 1), 1), (bound, 1, bound), Fraction(1, 3))
    if bound >= 2:
        bad = perturbed(bad, (2, 2, bound), -5)
    return [clean, bad, scaled(clean, Fraction(-7, 3)), scaled(bad, Fraction(5, 11))]


def assert_same_lift(got, want):
    """Equal fields and value types, the entries in sorted (file) order."""
    assert (got.weight, got.bound) == (want.weight, want.bound)
    assert list(got.entries) == sorted(want.entries)
    assert got.entries == want.entries
    assert [type(v) for v in got.entries.values()] == [type(want.entries[i]) for i in got.entries]


def assert_same_report(got, want):
    assert got._fields == want._fields
    for field in want._fields:
        assert getattr(got, field) == getattr(want, field), field


def table_data(values):
    """``(bound, weight, entries)`` at reduced keys, with values drawn from ``values``."""
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda bound: st.tuples(
            st.just(bound),
            st.integers(min_value=1, max_value=24),
            st.dictionaries(st.sampled_from(list(reduced_indices(bound))), values, max_size=12),
        )
    )


table_values = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**300), 2**300),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
reduced_entries = table_data(table_values)


def through_file(table):
    return SiegelFourierTable.from_json_dict(json.loads(json.dumps(table.to_json_dict())))


class TestStoredValues:
    """A table read from a file equals the table written, value for value and type for type."""

    @pytest.mark.parametrize("bound", [1, 6, 12])
    def test_lift_through_file(self, jacobi10_b12, bound):
        lift = maass_lift(jacobi10_b12, bound)
        assert_same_lift(through_file(lift), lift)

    def test_lift12_through_file(self, lift12):
        assert_same_lift(through_file(lift12), lift12)

    @given(table_data(st.one_of(table_values, st.integers(-(2**300), 2**300).map(Fraction))))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_table_through_file(self, data):
        bound, weight, entries = data
        table = SiegelFourierTable(weight, bound, entries)
        assert table.entries == {key: v for key, v in entries.items() if v != 0}
        assert misstored(table) == []
        assert_same_lift(through_file(table), table)


class TestDiscriminantIndexedOracles:
    """The lift and self-check by discriminant against the ones that reduce every lookup."""

    @pytest.mark.parametrize("bound", range(1, 13))
    def test_lift_matches_oracle(self, jacobi10_b12, bound):
        assert_same_lift(maass_lift(jacobi10_b12, bound), oracles.maass_lift(jacobi10_b12, bound))

    def test_lift_refusal_matches_oracle(self, jacobi10):
        for bound in (10, 50):
            assert outcome(maass_lift, jacobi10, bound) == outcome(oracles.maass_lift, jacobi10, bound)
        for weight in (-1, 0):
            phi = JacobiForm(weight, {3: 1, 4: -2}, 100)
            got = outcome(maass_lift, phi, 4)
            assert got == outcome(oracles.maass_lift, phi, 4)
            assert got[:3] == ("raised", UsageError, f"table weight {weight} is below 1")

    @pytest.mark.parametrize("bound", range(1, 13))
    def test_self_check_matches_oracle(self, jacobi10_b12, bound):
        reports = []
        for table in lift_tables(jacobi10_b12, bound):
            got, want = check_maass_space(table), oracles.check_maass_space(table)
            assert_same_report(got, want)
            reports.append(got)
        clean, bad, clean_scaled, bad_scaled = reports
        assert clean.ok and clean_scaled.ok
        # from bound 3 on, (2, 2, 2) reads the perturbed A(1, 1, 1)
        assert bad.ok == bad_scaled.ok == (bound < 3)

    def test_weight_12_matches_oracle(self, jacobi12):
        for bound in range(1, 10):
            assert_same_lift(maass_lift(jacobi12, bound), oracles.maass_lift(jacobi12, bound))
            for table in lift_tables(jacobi12, bound):
                assert_same_report(check_maass_space(table), oracles.check_maass_space(table))

    @given(reduced_entries)
    @settings(max_examples=200, deadline=None)
    def test_self_check_on_arbitrary_tables(self, data):
        bound, weight, entries = data
        table = SiegelFourierTable(weight, bound, entries)
        assert_same_report(check_maass_space(table), oracles.check_maass_space(table))

    @given(reduced_entries)
    @settings(max_examples=200, deadline=None)
    def test_trusted_table_matches_public_constructor(self, data):
        bound, weight, entries = data
        want = SiegelFourierTable(weight, bound, entries)
        got = SiegelFourierTable._trusted(weight, bound, {k: v for k, v in entries.items() if v != 0})
        assert (got.weight, got.bound) == (want.weight, want.bound)
        assert list(got.entries.items()) == list(want.entries.items())

    def test_self_check_on_degenerate_bounds(self):
        for bound in (-3, 0):
            table = SiegelFourierTable(10, bound, {})
            assert_same_report(check_maass_space(table), oracles.check_maass_space(table))


def keyed_outcome(build, key, bound):
    try:
        got = build(key, bound)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("returned", list(got.items()))


class TestTableKeys:
    """Keys the constructor accepts without reduction, against reducing every key."""

    GRID = [
        (n, r, m)
        for n in range(-2, 8)
        for r in range(-9, 10)
        for m in range(-2, 8)
    ] + [
        (10**9, 0, 10**9 + 1), (10**9, 10**9, 10**9), (10**9, 10**9 + 1, 10**9),
        (1, 1, 10**12), (3, 7, 6), (6, -6, 6), (2, 1, 1), (1, 2, 1), (1, 2, 4),
        (True, 0, 1), (1, False, 1), (1.0, 0, 1), (1, 0, 2.0), (2, 1.5, 2),
    ]

    def test_grid(self):
        accepted = 0
        for key in self.GRID:
            for bound in (0, 1, 5, 7):
                got = keyed_outcome(lambda k, b: SiegelFourierTable(10, b, {k: 3}).entries, key, bound)
                want = keyed_outcome(lambda k, b: oracles.table_entries(10, b, {k: 3}), key, bound)
                assert got == want, (key, bound)
                accepted += got[0] == "returned"
        assert 0 < accepted < 4 * len(self.GRID)

    def test_refusal_messages(self):
        with pytest.raises(UsageError, match=r"^table key \(True, 0, 1\) is not a triple of ints$"):
            SiegelFourierTable(10, 5, {(True, 0, 1): 1})
        with pytest.raises(UsageError, match=r"^table key \(1\.0, 0, 1\) is not a triple of ints$"):
            SiegelFourierTable(10, 5, {(1.0, 0, 1): 1})
        with pytest.raises(UsageError, match=r"^table key \(2, 1, 1\) is not reduced$"):
            SiegelFourierTable(10, 5, {(2, 1, 1): 1})
        with pytest.raises(UsageError, match=r"^\(1,2,1\) is not positive definite$"):
            SiegelFourierTable(10, 5, {(1, 2, 1): 1})
        with pytest.raises(UsageError, match=r"^table key \(1, 0, 6\) beyond bound 5$"):
            SiegelFourierTable(10, 5, {(1, 0, 6): 1})


@pytest.fixture(scope="module")
def jacobi_b20():
    """The Jacobi forms of weights 10, 12 and 14 to discriminant 1600 = 4 * 20**2."""
    return {k: ez_lift(plus_space_basis(k, 1600)[0]) for k in (10, 12, 14)}


def scaled_jacobi(phi, factor):
    return JacobiForm(phi.weight, {disc: factor * v for disc, v in phi.by_disc.items()}, phi.max_disc)


def assert_same_typed_report(got, want):
    assert_same_report(got, want)
    assert [tuple(map(type, v)) for v in got.violations] == [tuple(map(type, v)) for v in want.violations]


class TestOneLookupAtGcdOne:
    """The lift and self-check reading one coefficient at gcd 1, against the full divisor loops."""

    @given(
        st.sampled_from((10, 12, 14)),
        st.integers(min_value=1, max_value=20),
        st.sampled_from((1, -1, Fraction(-7, 3), Fraction(4))),
    )
    @settings(max_examples=60, deadline=None)
    def test_lift_matches_oracle(self, jacobi_b20, weight, bound, factor):
        phi = scaled_jacobi(jacobi_b20[weight], factor)
        got, want = maass_lift(phi, bound), oracles.maass_lift_by_all_divisors(phi, bound)
        assert (got.weight, got.bound) == (want.weight, want.bound)
        assert list(got.entries.items()) == list(want.entries.items())
        assert list(map(type, got.entries.values())) == list(map(type, want.entries.values()))

    @given(st.sampled_from((10, 12, 14)), st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_self_check_matches_oracle(self, jacobi_b20, weight, bound):
        tables = lift_tables(jacobi_b20[weight], bound)
        # a table of Fraction entries equal to ints
        tables.append(scaled(tables[0], Fraction(1)))
        for table in tables:
            assert_same_typed_report(check_maass_space(table), oracles.check_maass_by_all_divisors(table))

    @given(reduced_entries)
    @settings(max_examples=200, deadline=None)
    def test_self_check_on_arbitrary_tables(self, data):
        bound, weight, entries = data
        table = SiegelFourierTable(weight, bound, entries)
        assert_same_typed_report(check_maass_space(table), oracles.check_maass_by_all_divisors(table))


class TestTableText:
    """``to_json_text`` writes what ``json.dumps(to_json_dict())`` writes, byte for byte."""

    def test_lifted_tables(self, lift10, lift12):
        for table in (lift10, lift12, scaled(lift10, -1), scaled(lift12, Fraction(-7, 3))):
            assert table.to_json_text() == json.dumps(table.to_json_dict())

    def test_empty_table(self):
        table = SiegelFourierTable(10, 4, {})
        assert table.to_json_text() == json.dumps(table.to_json_dict())
        assert table.to_json_text() == '{"schema_version": 1, "weight": 10, "bound": 4, "entries": []}'

    @given(reduced_entries)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_tables(self, data):
        # entries in any insertion order, ints, negatives, huge ints and Fractions
        bound, weight, entries = data
        table = SiegelFourierTable(weight, bound, entries)
        assert table.to_json_text() == json.dumps(table.to_json_dict())

    def test_quadratic_entry_refused_alike(self):
        entries = {(1, 0, 1): 2, (1, 1, 1): QuadExt(5, 1, 2), (1, 1, 2): Fraction(1, 3)}
        table = SiegelFourierTable(10, 2, entries)
        with pytest.raises(UsageError) as from_dict:
            table.to_json_dict()
        with pytest.raises(UsageError) as from_text:
            table.to_json_text()
        assert str(from_text.value) == str(from_dict.value)
        assert "quadratic-irrational" in str(from_text.value)
