import ast
import importlib
from collections import Counter
from pathlib import Path

import sklift
import sklift.cache
import sklift.cli

import oracles

PUBLIC_NAMES = [
    "EigenvalueRecord", "EllipticEigenform", "EllipticForm",
    "JacobiForm", "PlusSpaceForm", "QSeries", "QuadExt",
    "RatMatrix", "SatakeParams", "SiegelFourierTable",
    "characterize", "check_maass_p_space", "check_maass_space",
    "delta",
    "dim_cusp_forms", "eigenforms", "eisenstein", "elliptic", "errors", "ez_lift",
    "growth_check", "hecke_eigenvalue", "hecke_operator", "jacobi",
    "kohnen", "kronecker_symbol", "maass_lift", "mu_sequence", "numeric",
    "plus_hecke", "plus_space_basis", "positivity_scan",
    "qseries", "record_from_pair", "reduce_index", "shimura_match", "siegel",
    "sk_record", "solve_satake", "theorem41",
]


def test_public_names_stay_importable():
    assert len(PUBLIC_NAMES) == 40
    assert set(PUBLIC_NAMES) <= set(sklift.__all__)
    gone = {"HeckeDoubleCoset", "coset_decomposition_Tp", "theta_series", "plus_eigenforms", "SiegelIndex",
            "SpinEulerData", "Rational", "hecke_Tp", "cusp_basis", "DimensionMismatchError"}
    assert not gone & set(sklift.__all__)
    for owner, name in [
        (sklift.kohnen, "plus_hecke_matrix"), (sklift.kohnen, "halfint_generators"),
        (sklift.elliptic, "hecke_matrix"), (sklift.siegel, "SiegelIndex"),
        (sklift.JacobiForm, "coeff"), (sklift.QuadExt, "conjugate"),
        (sklift.characterize, "spin_euler_data"), (sklift.characterize, "SpinEulerData"),
        (sklift.numeric, "Rational"), (sklift.elliptic, "hecke_Tp"),
        (sklift.qseries, "staircase_matrix"), (sklift.qseries, "eigen_split_2x2"),
        (sklift.qseries, "_schoolbook"), (sklift.EllipticEigenform, "field_disc"),
        (sklift.elliptic, "cusp_basis"), (sklift.elliptic, "_monomial_exponents"),
        (sklift.elliptic, "_eta_power24"), (sklift.QSeries, "__pow__"),
        (sklift.errors, "DimensionMismatchError"), (sklift.cache, "_FRACTION_RE"),
        (sklift.cache, "default_cache_dir"), (sklift.cache, "CACHE_ENV_VAR"), (sklift.cli, "RunConfig"),
    ]:
        assert not hasattr(owner, name), name
    for name in PUBLIC_NAMES:
        assert getattr(sklift, name) is not None, name


def test_tables_key_by_plain_tuples():
    # tables key by plain (n, r, m) tuples; a caller's NamedTuple key, such
    # as the oracles' SiegelIndex, hashes and compares as the same tuple
    idx = oracles.SiegelIndex(1, 1, 2)
    assert idx == (1, 1, 2) and hash(idx) == hash((1, 1, 2)) and idx.disc == 7
    table = sklift.SiegelFourierTable(10, 2, {idx: 5})
    assert table.entries[(1, 1, 2)] == 5 and table.value(2, 1, 1) == 5
    lift = sklift.maass_lift(sklift.JacobiForm(10, {3: 1, 4: -2}, 16), 2)
    assert lift.entries and all(type(key) is tuple for key in lift.entries)


def _called_name(call: ast.Call):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        return f"{f.value.id}.{f.attr}"
    return None


def test_no_floating_point_in_the_package():
    # exact arithmetic only: no float literal, and no call that makes a float
    found = []
    for path in sorted(Path(sklift.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append((path.name, node.lineno, node.value))
            if isinstance(node, ast.Call) and _called_name(node) in {"float", "math.sqrt", "math.log"}:
                found.append((path.name, node.lineno, _called_name(node)))
    assert found == []


def _names_in(node) -> set:
    """Every name ``node`` mentions: a Name, an Attribute or an imported name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_no_definition_only_tests_call():
    # every module-level function or class is named somewhere else in the
    # package, or exported; code that only tests call lives in the oracles
    used, defined = set(), []
    for path in sorted(Path(sklift.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _names_in(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
                # a recursive call is no use from elsewhere
                names.discard(node.name)
            used |= names
    unused = [(module, name) for module, name in defined if name not in used and name not in sklift.__all__]
    assert unused == []


def test_no_import_left_unread():
    # every name a module imports is read in it; the re-exports of __init__
    # are the one exception, as importing them is their use
    unread = []
    for path in sorted(Path(sklift.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                unread += [(path.name, a.asname or a.name) for a in node.names
                           if (a.asname or a.name).split(".")[0] not in read]
    assert unread == []


def test_no_oracle_nothing_names():
    # every module-level function or class of the oracles is named by a test
    # module, by conftest.py or by another oracle; one nothing names guards nothing
    tests = Path(oracles.__file__).parent
    used = set()
    for path in sorted(tests.glob("test_*.py")) + [tests / "conftest.py"]:
        used |= _names_in(ast.parse(path.read_text(encoding="utf-8")))
    defined = []
    for node in ast.parse(Path(oracles.__file__).read_text(encoding="utf-8")).body:
        names = _names_in(node)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
            names.discard(node.name)
        used |= names
    assert [name for name in defined if name not in used] == []


# methods the benchmark's tracer wraps by name, so a traced run fails on a
# missing one: they may stay though nothing in the package calls them
TRACER_PINNED = {
    "RatMatrix.kernel": "wrapped as the qseries.kernel span",
    "RatMatrix.rref": "wrapped as the qseries.kernel span",
    "SiegelFourierTable.to_json_dict": "wrapped as the cli.table_dump span",
}


def _attributes(node) -> list:
    """Each attribute read in ``node``, such as ``kernel`` in ``m.kernel()``."""
    return [sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)]


def test_no_method_only_tests_call():
    # every method but a dunder or an override of a base class's hook, such
    # as JSONEncoder.iterencode, is read as an attribute somewhere in the
    # package outside its own body; a method only tests call belongs in the
    # oracles, and the tracer's pins are the only exceptions
    unused = []
    paths = sorted(Path(sklift.__file__).parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    reads = Counter(name for tree in trees.values() for name in _attributes(tree))
    for stem, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = getattr(importlib.import_module(f"sklift.{stem}"), cls.name).__mro__[1:]
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef) or item.name.endswith("__"):
                    continue
                if any(hasattr(base, item.name) for base in bases):
                    continue
                if reads[item.name] == _attributes(item).count(item.name):
                    unused.append(f"{cls.name}.{item.name}")
    assert [name for name in unused if name not in TRACER_PINNED] == []
