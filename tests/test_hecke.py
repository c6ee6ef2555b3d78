from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sklift.errors import NotAnEigenformError, TruncationError, UsageError
from sklift.siegel import (
    SiegelFourierTable,
    _character_trivial,
    coset_classes,
    hecke_eigenvalue,
    hecke_operator,
    maass_lift,
    reduced_indices,
)

import oracles
from oracles import (
    coset_equivalent,
    coset_representatives,
    generator_classes,
    generator_test,
    hecke_operator_oracle,
    misstored,
    perturbed,
    scaled,
    similitude_of,
    smith_normal_form,
)

import random


class TestSmithForm:
    def test_random_matrices(self):
        rng = random.Random(5)
        for _ in range(200):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            s, u, v = smith_normal_form(mat)
            # S = U M V exactly
            umv = [
                [
                    sum(
                        u[i][a] * sum(mat[a][b] * v[b][j] for b in range(cols))
                        for a in range(rows)
                    )
                    for j in range(cols)
                ]
                for i in range(rows)
            ]
            assert umv == s
            # diagonal with divisibility chain
            diag = [s[i][i] for i in range(min(rows, cols))]
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert s[i][j] == 0
            for a, b in zip(diag, diag[1:]):
                if a and b:
                    assert b % a == 0


class TestCosets:
    """``siegel.coset_classes``: the explicit matrices are built from its classes and sizes."""

    def test_counts(self):
        for p in (2, 3, 5):
            size = sum(c.size for c in coset_classes(p, 1))
            assert size == p**3 + p**2 + p + 1, p
            assert len(coset_representatives(p)) == size

    def test_similitudes(self):
        for p in (2, 3):
            for g in coset_representatives(p):
                assert similitude_of(g) == p

    def test_pairwise_inequivalent(self):
        for p in (2, 3, 5):
            reps = coset_representatives(p)
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    assert not coset_equivalent(reps[i], reps[j]), (p, i, j)
            assert all(coset_equivalent(g, g) for g in reps[:5])

    def test_prime_square_family(self):
        p = 2
        size = sum(c.size for c in coset_classes(p, 2))
        assert size == p**6 + p**5 + 2 * p**4 + 2 * p**3 + p**2 + p + 1
        for g in coset_representatives(p, 2):
            assert similitude_of(g) == 4

    def test_prime_square_family_covers_all_three_double_cosets(self):
        # determinantal divisors (gcd of entries, gcd of 2x2 minors) separate
        # the three double cosets inside the similitude-p^2 family; the
        # partition sizes are the classical degrees, and the presence of all
        # three parts is what the full-sum operator definition relies on
        import math
        from collections import Counter
        from itertools import combinations

        def det_divisors(g):
            d1 = d2 = 0
            for row in g:
                for x in row:
                    d1 = math.gcd(d1, x)
            for r1, r2 in combinations(range(4), 2):
                for c1, c2 in combinations(range(4), 2):
                    d2 = math.gcd(d2, g[r1][c1] * g[r2][c2] - g[r1][c2] * g[r2][c1])
            return d1, d2

        for p in (2, 3):
            counts = Counter(
                det_divisors(g) for g in coset_representatives(p, 2)
            )
            assert counts == {
                (1, 1): p**3 * (p**3 + p**2 + p + 1),
                (1, p): p * (p + 1) * (p**2 + 1),
                (p, p * p): 1,
            }, p

    def test_mass_identities(self):
        # summing the translation-class sizes against det^(-k) must reproduce
        # the exact symbolic eigenvalues of the non-cuspidal toy datum at the
        # zero index; this pins every class size and the normalization at once
        for p in (2, 3, 5):
            for k in (10, 12):
                total = sum(Fraction(c.size, c.det**k) for c in coset_classes(p, 1))
                got = Fraction(p) ** (2 * k - 3) * total
                assert got == (1 + p ** (k - 1)) * (1 + p ** (k - 2)), (p, k)
        for p in (2, 3):
            for k in (10, 12):
                total = sum(Fraction(c.size, c.det**k) for c in coset_classes(p, 2))
                got = Fraction(p) ** (2 * (2 * k - 3)) * total
                want = (
                    p ** (2 * k - 2) + 2 * p ** (2 * k - 3) + p ** (k - 1)
                    + p ** (3 * k - 4) + p ** (k - 2) + p ** (3 * k - 5)
                    + 1 + p ** (4 * k - 6)
                )
                assert got == want, (p, k)

    def test_bad_inputs(self):
        with pytest.raises(UsageError):
            coset_classes(4, 1)
        with pytest.raises(UsageError):
            coset_classes(2, 3)
        with pytest.raises(UsageError):
            similitude_of(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


class TestHeckeAction:
    def test_prime_eigenvalues_match_contract(self, lift10, lift12, f18, f22):
        # the single check that pins the operator normalization end to end
        for table, f, k in ((lift10, f18, 10), (lift12, f22, 12)):
            for p in (2, 3):
                mu = hecke_eigenvalue(table, p)
                assert mu == p ** (k - 1) + p ** (k - 2) + f.a(p), (k, p)

    def test_prime_square_eigenvalues_match_closed_form(self, lift10, lift12, f18, f22):
        # coset route against the eliminated-parameter closed form
        for table, f, k in ((lift10, f18, 10), (lift12, f22, 12)):
            for p in (2, 3):
                mu = hecke_eigenvalue(table, p)
                mu2 = hecke_eigenvalue(table, p * p)
                t = p ** (k - 1) + p ** (k - 2)
                assert mu2 == mu * mu - t * mu + p ** (2 * k - 2), (k, p)
                assert mu2 == f.a(p) ** 2 + t * f.a(p) + p ** (2 * k - 2), (k, p)

    def test_known_values(self, lift10, lift12):
        assert hecke_eigenvalue(lift10, 2) == 240
        assert hecke_eigenvalue(lift10, 4) == 135424
        assert hecke_eigenvalue(lift10, 3) == 21960
        assert hecke_eigenvalue(lift12, 2) == 2784
        assert hecke_eigenvalue(lift12, 4) == 3392512

    def test_proportionality_on_all_indices(self, lift10):
        t2 = hecke_operator(lift10, 2)
        assert t2.bound == lift10.bound // 2
        for idx in t2.entries:
            assert t2.entries[idx] == 240 * lift10.entries.get(idx, 0)

    def test_zero_table(self):
        from sklift.siegel import SiegelFourierTable

        zero = SiegelFourierTable(10, 8, {})
        assert hecke_operator(zero, 2).entries == {}
        with pytest.raises(NotAnEigenformError):
            hecke_eigenvalue(zero, 2)

    def test_eigenvalue_scaling_invariance(self, lift10):
        rescaled = scaled(lift10, Fraction(-7, 13))
        assert hecke_eigenvalue(rescaled, 2) == 240
        assert hecke_eigenvalue(rescaled, 4) == 135424

    def test_perturbed_table_not_eigenform(self, lift10):
        bad = perturbed(lift10, (1, 1, 1), 1)
        with pytest.raises(NotAnEigenformError) as err:
            hecke_eigenvalue(bad, 2)
        assert err.value.witness is not None

    def test_operators_commute_on_non_eigenform(self, lift10):
        bad = perturbed(lift10, (1, 0, 1), 3)
        ab = hecke_operator(hecke_operator(bad, 4), 2)
        ba = hecke_operator(hecke_operator(bad, 2), 4)
        assert ab == ba

    def test_insufficient_bound(self, jacobi10):
        small = maass_lift(jacobi10, 3)
        with pytest.raises(TruncationError):
            hecke_operator(small, 4)

    def test_weight14_chain(self):
        # third one-dimensional input space, end to end
        from sklift.elliptic import eigenforms
        from sklift.jacobi import ez_lift
        from sklift.kohnen import plus_space_basis
        from sklift.siegel import check_maass_space

        f26 = eigenforms(26, 16)[0]
        table = maass_lift(ez_lift(plus_space_basis(14, 120)[0]), 4)
        assert check_maass_space(table).ok
        assert hecke_eigenvalue(table, 2) == 2**13 + 2**12 + f26.a(2) == 12240
        t = 2**13 + 2**12
        assert hecke_eigenvalue(table, 4) == f26.a(2) ** 2 + t * f26.a(2) + 2**26

    def test_quadratic_coefficient_lift(self):
        # the k=16 input space is two-dimensional, so the lifted tables carry
        # quadratic-irrational coefficients; the eigenvalue contract must hold
        # there too
        from sklift.jacobi import ez_lift
        from oracles import plus_eigenforms

        for g, lam in plus_eigenforms(16, 200):
            table = maass_lift(ez_lift(g), 2)
            mu = hecke_eigenvalue(table, 2)
            assert mu == 2**15 + 2**14 + lam

    def test_bad_index(self, lift10):
        # decided in integers: a float root of -4 is complex, of 10**400 overflows
        for m in (-4, 0, 1, 6, 8, 10**400):
            with pytest.raises(UsageError):
                hecke_operator(lift10, m)

    def test_prime_action_against_closed_form(self, lift10):
        # independent oracle: the classical four-branch coefficient formula
        # for the prime operator, written out directly, must agree with the
        # coset machinery on arbitrary tables, not just eigenforms
        from sklift.siegel import SiegelFourierTable, reduced_indices

        def closed_form(table, p):
            k = table.weight
            out = {}
            for idx in reduced_indices(table.bound // p):
                n, r, m = idx
                acc = table.value(p * n, p * r, p * m)
                if n % p == 0 and r % p == 0 and m % p == 0:
                    acc += p ** (2 * k - 3) * table.value(n // p, r // p, m // p)
                mid = 0
                if m % p == 0:
                    mid += table.value(p * n, r, m // p)
                for j in range(p):
                    if (n + j * r + j * j * m) % p == 0:
                        mid += table.value(
                            (n + j * r + j * j * m) // p, r + 2 * j * m, p * m
                        )
                acc += p ** (k - 2) * mid
                if acc != 0:
                    out[idx] = acc
            return SiegelFourierTable(k, table.bound // p, out)

        rng = random.Random(23)
        for p in (2, 3):
            random_table = SiegelFourierTable(
                10,
                2 * p,
                {
                    idx: rng.randint(-9, 9)
                    for idx in reduced_indices(2 * p)
                },
            )
            for table in (lift10, perturbed(lift10, (1, 1, 1), 5), random_table):
                assert hecke_operator(table, p) == closed_form(table, p), p


def eigenvalue_outcome(eigenvalue, table, m):
    """The eigenvalue and its type, or the error's class, message and witness."""
    try:
        mu = eigenvalue(table, m)
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "witness", None))
    return ("returned", type(mu), mu)


small_values = st.one_of(st.integers(-3, 3), st.fractions(min_value=-9, max_value=9, max_denominator=7))

arbitrary_tables = st.integers(min_value=1, max_value=12).flatmap(
    lambda bound: st.builds(
        SiegelFourierTable,
        st.integers(min_value=1, max_value=24),
        st.just(bound),
        st.dictionaries(st.sampled_from(list(reduced_indices(bound))), small_values, max_size=12),
    )
)


class TestProbeAgainstOracle:
    """The eigenvalue read at the least stored (discriminant, n, r), against sorting every reduced index."""

    @given(
        st.sampled_from((2, 3, 4)),
        st.booleans(),
        st.dictionaries(st.sampled_from(list(reduced_indices(4))), small_values, max_size=4),
        small_values,
    )
    @example(2, False, {}, 0)
    @example(3, True, {}, 0)
    @settings(max_examples=100, deadline=None)
    def test_edited_lifts(self, lift10, m, drop_first, edits, at_probe):
        entries = dict(lift10.entries)
        if drop_first:
            # A(1, 1, 1) = 0 moves the probe past the least discriminant
            del entries[(1, 1, 1)]
        for idx, delta in edits.items():
            entries[idx] = entries.get(idx, 0) + delta
        table = SiegelFourierTable(lift10.weight, lift10.bound, entries)
        probe = oracles.hecke_probe(table, table.bound // m)
        if probe is not None:
            table = perturbed(table, probe, at_probe)
        got = eigenvalue_outcome(hecke_eigenvalue, table, m)
        assert got == eigenvalue_outcome(oracles.hecke_eigenvalue, table, m)

    @given(arbitrary_tables, st.sampled_from((2, 3, 4)))
    # the least discriminant is shared: n, not r, breaks the tie
    @example(SiegelFourierTable(10, 10, {(3, 0, 3): 1, (2, 2, 5): 2}), 2)
    @example(SiegelFourierTable(10, 12, {(4, 1, 4): 1, (3, 3, 6): 1}), 2)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_tables(self, table, m):
        got = eigenvalue_outcome(hecke_eigenvalue, table, m)
        assert got == eigenvalue_outcome(oracles.hecke_eigenvalue, table, m)


class TestClosedFormsAgainstSmithOracle:
    """Class sizes and the character test in closed form against the Smith reduction."""

    def test_classes_field_for_field(self):
        for p in (2, 3, 5, 7, 11, 13):
            for e in (1, 2):
                oracle = [tuple(c)[:4] for c in generator_classes(p, e)]
                assert [tuple(c) for c in coset_classes(p, e)] == oracle, (p, e)

    def test_character_test_on_full_grid(self):
        for p in (2, 3):
            top = 2 * p * p
            for e in (1, 2):
                pairs = list(zip(coset_classes(p, e), generator_classes(p, e)))
                for tn in range(1, top + 1):
                    for tm in range(1, top + 1):
                        for tr in range(-top, top + 1):
                            for cls, ocls in pairs:
                                assert _character_trivial(cls, tn, tr, tm) == generator_test(
                                    ocls, tn, tr, tm
                                ), (p, e, tuple(cls), (tn, tr, tm))

    def test_character_test_on_seeded_sample(self):
        rng = random.Random(6)
        for p in (5, 7, 11, 13):
            top = 2 * p**4
            for e in (1, 2):
                pairs = list(zip(coset_classes(p, e), generator_classes(p, e)))
                for _ in range(400):
                    # half the draws on multiples of p**2, where the characters differ
                    step = p * p if rng.random() < 0.5 else 1
                    tn = step * rng.randint(1, top // step)
                    tm = step * rng.randint(1, top // step)
                    tr = step * rng.randint(-top // step, top // step)
                    for cls, ocls in pairs:
                        assert _character_trivial(cls, tn, tr, tm) == generator_test(
                            ocls, tn, tr, tm
                        ), (p, e, tuple(cls), (tn, tr, tm))


def operator_outcome(operator, table, m):
    try:
        return operator(table, m)
    except TruncationError as exc:
        return ("raised", str(exc))


@pytest.fixture(scope="module")
def lift10_b12():
    from sklift.jacobi import ez_lift
    from sklift.kohnen import plus_space_basis

    return maass_lift(ez_lift(plus_space_basis(10, 4 * 12 * 12)[0]), 12)


class TestOperatorAgainstSmithOracle:
    def test_tables_equal(self, lift10):
        from sklift.siegel import SiegelFourierTable, reduced_indices

        rng = random.Random(61)
        # the integer sums against the oracle's Fraction class weights, with
        # each image value an int exactly when it is integral
        fractional = scaled(perturbed(lift10, (1, 0, 2), Fraction(1, 5)), Fraction(-7, 3))
        heavy = SiegelFourierTable(20000, lift10.bound, perturbed(lift10, (1, 1, 2), 1).entries)
        for m in (2, 3, 4, 9, 5, 25):
            bound = min(2 * m, 25)
            random_table = SiegelFourierTable(
                10, bound, {idx: rng.randint(-9, 9) for idx in reduced_indices(bound)}
            )
            tables = [lift10, perturbed(lift10, (1, 1, 2), 7), random_table]
            if m in (2, 3, 4, 9):
                tables += [fractional, heavy]
            for table in tables:
                got = operator_outcome(hecke_operator, table, m)
                want = operator_outcome(hecke_operator_oracle, table, m)
                assert got == want, m
                if isinstance(got, tuple):
                    continue
                assert misstored(got) == [] and misstored(want) == [], (table.weight, m)
                assert [type(v) for v in got.entries.values()] == [type(v) for v in want.entries.values()]

    def test_same_lookups_in_same_order(self, monkeypatch, lift10_b12, jacobi12):
        # the benchmark counts these lookups as siegel.hecke_lookups
        from sklift.siegel import SiegelFourierTable

        calls = []
        value = SiegelFourierTable.value

        def recording(self, *index):
            calls.append(index)
            return value(self, *index)

        monkeypatch.setattr(SiegelFourierTable, "value", recording)
        bad12 = perturbed(maass_lift(jacobi12, 8), (1, 1, 2), 1)
        for table in (lift10_b12, bad12):
            for m in (2, 3, 4, 9):
                calls.clear()
                got = operator_outcome(hecke_operator, table, m)
                seen = list(calls)
                calls.clear()
                assert got == operator_outcome(hecke_operator_oracle, table, m), m
                assert seen == calls, (table.weight, m)
                assert seen or table.bound < m
