import json

import pytest

from sklift.cache import ExpansionCache
from sklift.errors import CacheMismatchError, UsageError
from sklift.kohnen import plus_space_basis
from sklift.qseries import QSeries


@pytest.fixture
def cache(tmp_path):
    return ExpansionCache(tmp_path / "cache")


def entry(cache, weight, truncation):
    return cache.root / f"kohnen__plus_basis_0__w{weight}__n{truncation}__s1.json"


class TestExpansionCache:
    def test_store_and_fetch(self, cache):
        cache.store(12, 4, [0, 1, -24, 252, -1472])
        got = cache.fetch(12, 4)
        assert got == [0, 1, -24, 252, -1472]

    def test_fetch_missing(self, cache):
        assert cache.fetch(12, 4) is None
        assert not cache.root.exists()

    def test_only_the_exact_key_is_read(self, cache):
        # an entry at a larger truncation, or at another weight, is not read
        cache.store(12, 5, [0, 1, -24, 252, -1472, 4830])
        assert cache.fetch(12, 3) is None and cache.fetch(14, 5) is None
        assert cache.fetch(12, 5) == [0, 1, -24, 252, -1472, 4830]

    def test_written_bytes_and_roundtrip(self, cache):
        coeffs = [0, 1, -24, 2**200, -(3**150), 2, 1, -7]
        cache.store(10, 7, coeffs)
        encoded = ["0", "1", "-24", str(2**200), str(-(3**150)), "2", "1", "-7"]
        expected = {
            "schema_version": 1, "module": "kohnen", "name": "plus_basis_0", "weight": 10,
            "truncation": 7, "coeffs": encoded,
        }
        assert entry(cache, 10, 7).read_text(encoding="utf-8") == json.dumps(expected)
        assert [p.name for p in cache.root.iterdir()] == [entry(cache, 10, 7).name]
        got = cache.fetch(10, 7)
        assert got == coeffs
        assert [type(c) for c in got] == [int] * 8

    def test_decode_matches_int_parse(self):
        # only the ASCII digit strings store writes are read, as int reads
        # them; a fraction, a non-ASCII digit and anything else is refused
        texts = ["0", "-0", "007", "-12", str(7**300)]
        for text in texts:
            got = ExpansionCache._decode([text])
            assert got == [int(text)] and type(got[0]) is int, text
        bad = ["--5", "-", "", "1/0", "1/0x", "12a", " 12 ", "+5", "1_0", "1.5", "1e3", 7, 1.5, None, True, ["1"],
               "-3/7", "3/6", "-4/2", "\u0663", "1\u0663", "\uff11", "12\n"]
        for text in bad:
            with pytest.raises(ValueError):
                ExpansionCache._decode([text])
        for data in ({"0": "1"}, "1", None):
            with pytest.raises(ValueError, match="not a list"):
                ExpansionCache._decode(data)

    @pytest.mark.parametrize("body", [
        "[1, 2, 3]", '{"coeffs": [1, null]}', '{"coeffs": ["1", 0.5]}', '{"coeffs": "12"}',
        '{"coeffs": ["1", "2"', "{}",
    ], ids=["list", "null", "float", "string", "bad-json", "no-coeffs"])
    def test_malformed_entry_is_unreadable(self, cache, body):
        # fetch and the existing-entry read of store refuse the entry alike
        path = entry(cache, 10, 1)
        cache.root.mkdir()
        path.write_text(body)
        for call in (lambda: cache.fetch(10, 1), lambda: cache.store(10, 1, [1, 2])):
            with pytest.raises(UsageError, match="unreadable cache entry") as err:
                call()
            assert "\n" not in str(err.value) and len(str(err.value)) < 300
        assert path.read_text() == body

    def test_short_entry_is_a_usage_error(self, cache):
        # an entry with fewer coefficients than its key claims is a bad input file
        cache.root.mkdir()
        entry(cache, 10, 5).write_text('{"coeffs": ["0", "1"]}')
        with pytest.raises(UsageError, match="shorter than its key claims"):
            cache.fetch(10, 5)

    def test_rewrite_same_data_ok(self, cache):
        cache.store(4, 2, [1, 240, 2160])
        cache.store(4, 2, [1, 240, 2160])

    def test_rewrite_different_data_fails(self, cache):
        cache.store(4, 2, [1, 240, 2160])
        with pytest.raises(CacheMismatchError):
            cache.store(4, 2, [1, 240, 2161])
        assert cache.fetch(4, 2) == [1, 240, 2160]

    def test_no_temporary_file_left(self, cache):
        cache.store(4, 2, [1, 240, 2160])
        cache.store(4, 3, [1, 240, 2160, 6720])
        assert sorted(p.name for p in cache.root.iterdir()) == [entry(cache, 4, 2).name, entry(cache, 4, 3).name]

    def test_cached_equals_rederived(self, cache):
        # the cache-correctness contract: cached data is exactly what a fresh
        # derivation produces
        fresh = plus_space_basis(10, 64)[0].series.coeffs
        cache.store(10, 64, fresh)
        assert cache.fetch(10, 64) == plus_space_basis(10, 64)[0].series.coeffs

    def test_series_helper_builds_once(self, cache):
        calls = []

        def builder(prec):
            calls.append(prec)
            return QSeries([1] * (prec + 1), prec)

        s1 = cache.series(0, 3, builder)
        s2 = cache.series(0, 3, builder)
        assert s1 == s2 and calls == [3]
