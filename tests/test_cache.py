import json
from fractions import Fraction

import pytest

from sklift.cache import ExpansionCache
from sklift.errors import CacheMismatchError, UsageError
from sklift.qseries import QSeries


@pytest.fixture
def cache(tmp_path):
    return ExpansionCache(tmp_path / "cache")


class TestExpansionCache:
    def test_store_and_fetch(self, cache):
        cache.store("elliptic", "delta", 12, 4, [0, 1, -24, 252, -1472])
        got = cache.fetch("elliptic", "delta", 12, 4)
        assert got == [0, 1, -24, 252, -1472]

    def test_fetch_missing(self, cache):
        assert cache.fetch("elliptic", "delta", 12, 4) is None

    def test_reuse_from_larger_truncation(self, cache):
        cache.store("elliptic", "delta", 12, 5, [0, 1, -24, 252, -1472, 4830])
        got = cache.fetch("elliptic", "delta", 12, 3)
        assert got == [0, 1, -24, 252]

    def test_rational_values_refused(self, cache):
        # entries hold ints only: any other value, an integral Fraction or a
        # bool among them, is refused before anything is written
        for value in (Fraction(-3, 7), Fraction(4, 2), True, 1.5, "1"):
            with pytest.raises(UsageError, match="^cache entries hold ints only, got "):
                cache.store("kohnen", "probe", 10, 2, [0, 1, value])
        assert not cache.root.exists()

    def test_written_bytes_and_roundtrip(self, cache):
        coeffs = [0, 1, -24, 2**200, -(3**150), 2, 1, -7]
        cache.store("kohnen", "mixed", 10, 7, coeffs)
        encoded = ["0", "1", "-24", str(2**200), str(-(3**150)), "2", "1", "-7"]
        expected = {
            "schema_version": 1, "module": "kohnen", "name": "mixed", "weight": 10,
            "truncation": 7, "coeffs": encoded,
        }
        path = cache.root / "kohnen__mixed__w10__n7__s1.json"
        assert path.read_text(encoding="utf-8") == json.dumps(expected)
        got = cache.fetch("kohnen", "mixed", 10, 7)
        assert got == coeffs
        assert [type(c) for c in got] == [int] * 8

    def test_decode_matches_int_parse(self):
        # only the ASCII digit strings _encode writes are read, as int reads
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
        path = cache.root / "kohnen__probe__w10__n1__s1.json"
        cache.root.mkdir()
        path.write_text(body)
        for call in (lambda: cache.fetch("kohnen", "probe", 10, 1),
                     lambda: cache.store("kohnen", "probe", 10, 1, [1, 2])):
            with pytest.raises(UsageError, match="unreadable cache entry") as err:
                call()
            assert "\n" not in str(err.value) and len(str(err.value)) < 300
        assert path.read_text() == body

    def test_short_entry_is_a_usage_error(self, cache):
        # an entry with fewer coefficients than its key claims is a bad input file
        cache.root.mkdir()
        (cache.root / "kohnen__probe__w10__n5__s1.json").write_text('{"coeffs": ["0", "1"]}')
        with pytest.raises(UsageError, match="shorter than its key claims"):
            cache.fetch("kohnen", "probe", 10, 5)

    def test_rewrite_same_data_ok(self, cache):
        cache.store("elliptic", "e4", 4, 2, [1, 240, 2160])
        cache.store("elliptic", "e4", 4, 2, [1, 240, 2160])

    def test_rewrite_different_data_fails(self, cache):
        cache.store("elliptic", "e4", 4, 2, [1, 240, 2160])
        with pytest.raises(CacheMismatchError):
            cache.store("elliptic", "e4", 4, 2, [1, 240, 2161])

    def test_cached_equals_rederived(self, cache):
        # the cache-correctness contract: cached data is exactly what a fresh
        # derivation produces
        from sklift.elliptic import delta

        fresh = delta(20).series.coeffs
        cache.store("elliptic", "delta", 12, 20, fresh)
        assert cache.fetch("elliptic", "delta", 12, 20) == delta(20).series.coeffs

    def test_series_helper_builds_once(self, cache):
        calls = []

        def builder(prec):
            calls.append(prec)
            return QSeries([1] * (prec + 1), prec)

        s1 = cache.series("m", "ones", 0, 3, builder)
        s2 = cache.series("m", "ones", 0, 3, builder)
        assert s1 == s2 and calls == [3]

    def test_bad_key_component(self, cache):
        with pytest.raises(UsageError):
            cache.store("el/liptic", "x", 0, 0, [1])

    def test_length_validation(self, cache):
        with pytest.raises(UsageError):
            cache.store("m", "x", 0, 3, [1, 2])

    def test_env_var_override(self, tmp_path, monkeypatch):
        from sklift.cache import CACHE_ENV_VAR, default_cache_dir

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env_cache"))
        assert default_cache_dir() == tmp_path / "env_cache"
        cache = ExpansionCache()
        cache.store("m", "x", 0, 1, [1, 2])
        assert (tmp_path / "env_cache").is_dir()
