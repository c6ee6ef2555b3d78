"""Persistent on-disk cache for exact expansion data.

Entries are keyed by (module, name, weight, truncation) plus a schema
version; values are lists of ints, each written as its decimal string and
read back only from the strings ``-?[0-9]+``.  Because the data is exact,
a repeated write to an existing key must agree bit for bit; disagreement is
an error, never a silent overwrite.  A request may be served from any
cached entry of the same object at a larger truncation.  A lift stores only
its plus-space form, whose coefficients are integers; its elliptic seed is
rebuilt in integers each time, faster than a read, and elliptic entries
earlier versions wrote are never read.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

from .errors import CacheMismatchError, UsageError
from .numeric import short_repr
from .qseries import QSeries

CACHE_SCHEMA = 1
CACHE_ENV_VAR = "SKLIFT_CACHE_DIR"

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

# the integer strings ``_encode`` writes
_INT_RE = re.compile(r"-?[0-9]+")


class TextEncoder(json.JSONEncoder):
    """Encoder for ``json.dump`` whose document is already JSON text; writes it as given."""

    def iterencode(self, o, _one_shot=False):
        return (o,)


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "sklift"


class ExpansionCache:
    """File-backed store of exact coefficient lists."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _key(self, module: str, name: str, weight: int, truncation: int) -> str:
        for part in (module, name):
            if not _NAME_RE.match(part):
                raise UsageError(f"bad cache key component {part!r}")
        return f"{module}__{name}__w{weight}__n{truncation}__s{CACHE_SCHEMA}.json"

    def _path(self, module, name, weight, truncation) -> Path:
        return self.root / self._key(module, name, weight, truncation)

    @staticmethod
    def _encode(coeffs) -> list[str]:
        """The decimal strings of int coefficients; any other value is a ``UsageError``."""
        for c in coeffs:
            if type(c) is not int:
                raise UsageError(f"cache entries hold ints only, got {short_repr(c)}")
        return list(map(str, coeffs))

    @staticmethod
    def _decode(data) -> list:
        """The values of the strings ``_encode`` writes; anything else is a ValueError."""
        if type(data) is not list:
            raise ValueError(f"coeffs is a JSON {type(data).__name__}, not a list")
        out = []
        for text in data:
            if type(text) is not str or not _INT_RE.fullmatch(text):
                raise ValueError(f"bad coefficient {short_repr(text)}")
            out.append(int(text))
        return out

    @classmethod
    def _read(cls, path: Path) -> tuple[list[str], list]:
        """An entry's coefficient strings and their values; ``UsageError`` when unreadable."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if type(payload) is not dict:
                raise ValueError(f"the entry is a JSON {type(payload).__name__}, not an object")
            texts = payload["coeffs"]
            return texts, cls._decode(texts)
        except (OSError, ValueError, KeyError) as exc:
            raise UsageError(f"unreadable cache entry {path}: {exc}") from exc

    def fetch(self, module: str, name: str, weight: int, truncation: int):
        """Coefficients 0..truncation, reusing any entry at larger truncation."""
        best = None
        pattern = re.compile(
            re.escape(f"{module}__{name}__w{weight}__n")
            + r"(\d+)"
            + re.escape(f"__s{CACHE_SCHEMA}.json")
            + "$"
        )
        if not self.root.is_dir():
            return None
        for entry in self.root.iterdir():
            match = pattern.match(entry.name)
            if not match:
                continue
            n = int(match.group(1))
            if n >= truncation and (best is None or n < best):
                best = n
        if best is None:
            return None
        path = self._path(module, name, weight, best)
        _, coeffs = self._read(path)
        if len(coeffs) < truncation + 1:
            raise UsageError(f"cache entry {path} shorter than its key claims")
        return coeffs[: truncation + 1]

    def store(self, module: str, name: str, weight: int, truncation: int, coeffs) -> None:
        """Write an entry; an existing entry must match exactly or we fail."""
        coeffs = list(coeffs)
        if len(coeffs) != truncation + 1:
            raise UsageError("coefficient list length must be truncation + 1")
        path = self._path(module, name, weight, truncation)
        encoded = self._encode(coeffs)
        if path.exists():
            existing, _ = self._read(path)
            if existing != encoded:
                raise CacheMismatchError(
                    f"cache entry {path} already exists with different data"
                )
            return
        text = json.dumps({
            "schema_version": CACHE_SCHEMA,
            "module": module,
            "name": name,
            "weight": weight,
            "truncation": truncation,
            "coeffs": encoded,
        })
        tmp = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(text, handle, cls=TextEncoder)
            os.replace(tmp, path)
        except OSError as exc:
            raise UsageError(f"cannot write cache entry {path}: {exc}") from exc
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)

    def series(self, module: str, name: str, weight: int, truncation: int, builder) -> QSeries:
        """Fetch a cached expansion or build, store, and return it."""
        cached = self.fetch(module, name, weight, truncation)
        if cached is not None:
            return QSeries(cached, truncation)
        built = builder(truncation)
        if built.prec < truncation:
            raise UsageError("builder returned a series shorter than requested")
        coeffs = built.coeffs[: truncation + 1]
        self.store(module, name, weight, truncation, coeffs)
        return QSeries(coeffs, truncation)
