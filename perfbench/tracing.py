"""Span recording around sklift's public functions, for the traced run.

The spans are recorded from here, not from inside the program: each
instrumented function is replaced by a wrapper for the duration of a traced
pass and restored afterwards.  ``cli`` imports its collaborators by name, so
those names are wrapped in the ``sklift.cli`` namespace; calls made between
library modules (``solve_satake``, ``mu_sequence``) are wrapped where their
caller looks them up, and the series and matrix products through their
classes.  A span holds name, start, end, parent span and operation id; the
spans stay in memory and the per-layer metrics are derived from them when
the run ends.  Per-function and per-layer ``*_s`` metrics are self time,
a span's duration minus the part its child spans cover; ``cli.<command>_s``
are whole operations.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("cli", "cache", "elliptic", "kohnen", "qseries", "jacobi", "siegel", "characterize")

# span name -> per-layer metric holding its self time; the hecke and
# p-checker spans are named per call (siegel.check_p5, ...)
SELF_TIME_METRICS = {
    "kohnen.plus_space_basis": "kohnen.plus_space_basis_s",
    "qseries.mul": "qseries.mul_s",
    "qseries.kernel": "qseries.kernel_s",
    "cache.fetch": "cache.fetch_s",
    "cache.store": "cache.store_s",
    "elliptic.eigenforms": "elliptic.eigenforms_s",
    "jacobi.ez_lift": "jacobi.ez_lift_s",
    "siegel.maass_lift": "siegel.maass_lift_s",
    "siegel.check_maass": "siegel.check_maass_s",
    "siegel.check_p2": "siegel.check_p2_s",
    "siegel.check_p3": "siegel.check_p3_s",
    "siegel.check_p5": "siegel.check_p5_s",
    "siegel.hecke": "siegel.hecke_s",
    "characterize.theorem41": "characterize.theorem41_s",
    "characterize.solve_satake": "characterize.solve_satake_s",
    "characterize.growth_check": "characterize.growth_check_s",
    "characterize.positivity_scan": "characterize.positivity_scan_s",
    "characterize.mu_sequence": "characterize.mu_sequence_s",
    "cli.table_load": "cli.table_load_s",
    "cli.table_dump": "cli.table_dump_s",
}

# per-layer metric -> span name whose calls it counts
CALL_COUNTS = {
    "qseries.mul_calls": "qseries.mul",
    "characterize.records": "characterize.theorem41",
    "characterize.mu_sequence_calls": "characterize.mu_sequence",
}

COUNT_METRICS = (
    "kohnen.halfint_prec",
    "cache.hits",
    "cache.misses",
    "cache.bytes_read",
    "cache.bytes_written",
    "cache.dir_entries",
    "elliptic.prec",
    "siegel.table_entries",
    "siegel.check_instances",
    "siegel.check_checked",
    "siegel.check_violations",
    "siegel.check_lookups",
    "siegel.hecke_cosets",
    "siegel.hecke_lookups",
    "cli.table_bytes",
)

COMMANDS = ("lift", "check", "eigen", "classify")


@contextlib.contextmanager
def _swapped(owner, attr, value):
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class _CountingJson:
    """Stand-in for a module's ``json`` that reports the size of each file it reads or writes."""

    def __init__(self, on_load, on_dump):
        self._on_load = on_load
        self._on_dump = on_dump

    def __getattr__(self, name):
        return getattr(json, name)

    def load(self, fp, **kwargs):
        data = json.load(fp, **kwargs)
        self._on_load(os.fstat(fp.fileno()).st_size)
        return data

    def dump(self, obj, fp, **kwargs):
        json.dump(obj, fp, **kwargs)
        fp.flush()
        self._on_dump(os.fstat(fp.fileno()).st_size)


class Tracer:
    """Records spans and counters while its instrumentation is installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.commands: dict[int, str] = {}
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name, fn, after=None, before=None):
        """``fn`` recording one span per call; ``name`` may be a function of the arguments."""
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else None
            slot = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(slot)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[slot] = Span(label, start, end, parent, tracer._op)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call_op(self, main, command: str, argv: list[str]) -> int:
        """One CLI operation under a root span carrying a fresh operation id."""
        self._op += 1
        self.commands[self._op] = command
        return self.wrap("cli.main", main)(argv)

    @contextlib.contextmanager
    def installed(self, modules):
        """Swap the wrappers in for the duration of the block."""
        patches = self._patches(modules)
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, value in patches:
                setattr(owner, attr, value)
            yield self
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)

    def _patches(self, mods):
        cli, cache, characterize, siegel = mods.cli, mods.cache, mods.characterize, mods.siegel
        QSeries, RatMatrix = mods.qseries.QSeries, mods.qseries.RatMatrix
        Table = siegel.SiegelFourierTable
        cli_hecke = cli.hecke_eigenvalue
        count = self.counts

        def add(key, amount=1):
            count[key] += amount

        def on_fetch_entry(self_cache, *args):
            root = self_cache.root
            add("cache.dir_entries", len(os.listdir(root)) if root.is_dir() else 0)

        def on_fetch(result, *args):
            add("cache.hits" if result is not None else "cache.misses")

        def on_check_p(report, table, p):
            add("siegel.check_instances", report.checked + report.skipped)
            add("siegel.check_checked", report.checked)
            add("siegel.check_violations", len(report.violations))

        coset_classes, value = siegel.coset_classes, Table.value

        def counted_classes(p, e=1):
            classes = coset_classes(p, e)
            add("siegel.hecke_cosets", sum(c.size for c in classes))
            return classes

        def counted_value(self_table, *index):
            add("siegel.hecke_lookups")
            return value(self_table, *index)

        def hecke_counted(table, m):
            """The coset families the operator enumerates and the table values it reads."""
            with _swapped(siegel, "coset_classes", counted_classes), _swapped(Table, "value", counted_value):
                return cli_hecke(table, m)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                count[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        def on_table_bytes(n):
            add("cli.table_bytes", n)

        table_json = _CountingJson(on_table_bytes, on_table_bytes)
        table_json.dump = self.wrap("cli.table_dump", table_json.dump)
        mul = self.wrap("qseries.mul", QSeries.__mul__)
        return [
            (QSeries, "__mul__", mul),
            (QSeries, "__rmul__", mul),
            (RatMatrix, "kernel", self.wrap("qseries.kernel", RatMatrix.kernel)),
            (RatMatrix, "rref", self.wrap("qseries.kernel", RatMatrix.rref)),
            (cache.ExpansionCache, "fetch", self.wrap(
                "cache.fetch", cache.ExpansionCache.fetch, after=on_fetch, before=on_fetch_entry)),
            (cache.ExpansionCache, "store", self.wrap("cache.store", cache.ExpansionCache.store)),
            (cache, "json", _CountingJson(
                lambda n: add("cache.bytes_read", n), lambda n: add("cache.bytes_written", n))),
            (cli, "plus_space_basis", self.wrap(
                "kohnen.plus_space_basis", cli.plus_space_basis,
                after=lambda r, k, prec, *a: add("kohnen.halfint_prec", prec))),
            (cli, "eigenforms", self.wrap(
                "elliptic.eigenforms", cli.eigenforms,
                after=lambda r, weight, prec: add("elliptic.prec", prec))),
            (cli, "shimura_match", self.wrap("kohnen.shimura_match", cli.shimura_match)),
            (cli, "ez_lift", self.wrap("jacobi.ez_lift", cli.ez_lift)),
            (cli, "maass_lift", self.wrap(
                "siegel.maass_lift", cli.maass_lift,
                after=lambda table, *a: add("siegel.table_entries", len(table.entries)))),
            (cli, "check_maass_space", self.wrap("siegel.check_maass", cli.check_maass_space)),
            (cli, "check_maass_p_space", self.wrap(
                lambda table, p: f"siegel.check_p{p}", cli.check_maass_p_space, after=on_check_p)),
            (Table, "try_value", counted("siegel.check_lookups", Table.try_value)),
            (cli, "hecke_eigenvalue", self.wrap("siegel.hecke", hecke_counted)),
            (cli, "theorem41", self.wrap("characterize.theorem41", cli.theorem41)),
            (characterize, "solve_satake", self.wrap(
                "characterize.solve_satake", characterize.solve_satake)),
            (cli, "growth_check", self.wrap("characterize.growth_check", cli.growth_check)),
            (cli, "positivity_scan", self.wrap("characterize.positivity_scan", cli.positivity_scan)),
            (characterize, "mu_sequence", self.wrap("characterize.mu_sequence", characterize.mu_sequence)),
            (cli, "_load_table", self.wrap("cli.table_load", cli._load_table)),
            (Table, "to_json_dict", self.wrap("cli.table_dump", Table.to_json_dict)),
            (cli, "json", table_json),
        ]

    # -- derived metrics -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for slot, span in enumerate(self.spans):
            out[span.name] += span.end - span.start - child[slot]
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead, which the harness adds."""
        own = self.self_times()
        out: dict[str, float] = {metric: own.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()}
        for layer in LAYERS:
            out[f"{layer}.layer_s"] = sum(t for name, t in own.items() if name.split(".")[0] == layer)
        for command in COMMANDS:
            out[f"cli.{command}_s"] = sum(
                span.end - span.start
                for span in self.spans
                if span.name == "cli.main" and self.commands[span.op] == command
            )
        for key in COUNT_METRICS:
            out[key] = self.counts.get(key, 0)
        for key, name in CALL_COUNTS.items():
            out[key] = sum(span.name == name for span in self.spans)
        instances = out["siegel.check_instances"]
        out["siegel.check_resolved_ratio"] = out["siegel.check_checked"] / instances if instances else 0.0
        return out
