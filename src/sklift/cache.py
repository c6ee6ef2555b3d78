"""Opt-in on-disk cache of a lift's plus-space form, one entry per (weight, truncation).

Nothing is read or written without a directory.  Values are ints, each
written as its decimal string and read back only from the strings
``-?[0-9]+``.  As the data is exact, a repeated write to an existing key
must agree bit for bit; disagreement is an error, never a silent overwrite.
Nothing checks that an entry holds the form its name says: an edited entry
can give a wrong table.
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
# the object the entries hold, named in each entry's file name and fields
MODULE, NAME = "kohnen", "plus_basis_0"

# the integer strings ``store`` writes
_INT_RE = re.compile(r"-?[0-9]+")


class TextEncoder(json.JSONEncoder):
    """Encoder for ``json.dump`` whose document is already JSON text; writes it as given."""

    def iterencode(self, o, _one_shot=False):
        return (o,)


class ExpansionCache:
    """The plus-space forms under one directory, keyed by (weight, truncation)."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _path(self, weight: int, truncation: int) -> Path:
        return self.root / f"{MODULE}__{NAME}__w{weight}__n{truncation}__s{CACHE_SCHEMA}.json"

    @staticmethod
    def _decode(data) -> list:
        """The values of the strings ``store`` writes; anything else is a ValueError."""
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

    def fetch(self, weight: int, truncation: int):
        """Coefficients 0..truncation from the entry at exactly this key, or None when there is none."""
        path = self._path(weight, truncation)
        if not path.exists():
            return None
        _, coeffs = self._read(path)
        if len(coeffs) < truncation + 1:
            raise UsageError(f"cache entry {path} shorter than its key claims")
        return coeffs[: truncation + 1]

    def store(self, weight: int, truncation: int, coeffs) -> None:
        """Write the int coefficients 0..truncation; an existing entry must match exactly or we fail."""
        path = self._path(weight, truncation)
        encoded = list(map(str, coeffs))
        if path.exists():
            existing, _ = self._read(path)
            if existing != encoded:
                raise CacheMismatchError(
                    f"cache entry {path} already exists with different data"
                )
            return
        text = json.dumps({
            "schema_version": CACHE_SCHEMA,
            "module": MODULE,
            "name": NAME,
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

    def series(self, weight: int, truncation: int, builder) -> QSeries:
        """Fetch the cached form or build it with ``builder(truncation)``, store, and return it."""
        coeffs = self.fetch(weight, truncation)
        if coeffs is None:
            coeffs = builder(truncation).coeffs[: truncation + 1]
            self.store(weight, truncation, coeffs)
        return QSeries(coeffs, truncation)
