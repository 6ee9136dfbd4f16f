"""Pins of the library's public surface.

The controller tunes one cost parameter online, the fuel weight; every other
cost and solver setting is a module constant.  These checks keep retired
keyword knobs from coming back and keep definitions that nothing uses from
accumulating.  Only the package, the demos and the benchmark count as
callers: code that only a test reaches, and a default that only a test
overrides, are surface kept alive for their own tests.  The references the
tests compare against live in ``tests/oracles.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from ecocruise import invopt, mpc, qp, road, vehicle
from ecocruise.dp import DpConfig
from ecocruise.harness import ControllerSpec

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ecocruise"
CALLERS = ("src", "demos", "perfbench")


@pytest.mark.parametrize("fn, params", [
    (mpc.build, ["gamma", "lin", "grade_window", "v_init", "params", "v_ref"]),
    (qp.solve_qp, ["h_mat", "c_vec", "a_in", "b_in", "x0"]),
    (road.gen_sinusoidal, ["seed", "length_m"]),
    (invopt.recover_weights, ["v", "te", "lin", "params", "v_ref"]),
    (invopt.gamma_series, ["dp_solution", "road", "lin", "params", "n", "v_ref"]),
    (DpConfig.default, ["params", "v_ref", "v_i", "v_span", "dv", "dvavg", "dte", "vavg_band"]),
    (vehicle.vavg_update, ["k", "vavg_k", "v_k"]),
])
def test_parameter_lists(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_controller_spec_fields():
    assert [f.name for f in dataclasses.fields(ControllerSpec)] == [
        "kind", "v_ref", "v_i", "horizon", "gamma"]


# no record stores a spacing or a position: the grid is road.DS, and
# position k lies k * DS from the start
@pytest.mark.parametrize("record, fields", [
    (vehicle.VehicleParams, ["alpha", "lam", "v_min", "v_max", "te_min", "te_max"]),
    (road.RoadProfile, ["elevation", "grade"]),
    (vehicle.Trajectory, ["v", "vavg", "te", "fuel_per_m"]),
    (invopt.GammaSeries, ["gamma", "residuals", "flags"]),
])
def test_record_fields(record, fields):
    assert [f.name for f in dataclasses.fields(record)] == fields


def _tracer():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_every_traced_name_resolves():
    """The benchmark's tracer wraps package functions by module and name;
    dropping one breaks ``perfbench/run.py --trace 1``."""
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in _tracer()._targets()
               if not hasattr(module, attr)]
    assert not missing, f"names the tracer wraps that do not resolve: {missing}"


def test_tracer_reads_the_solver_result():
    """The tracer's hooks read fields of the results they wrap; renaming one
    breaks ``perfbench/run.py --trace 1``, so it fails here first."""
    params = vehicle.VehicleParams()
    lin = vehicle.linearize(params, 30.0)
    tracer = _tracer()
    with tracer.installed():
        mpc.solve(mpc.build(0.003, lin, np.zeros(10), 0.5, params, lin.v_lin))
    counts, maxima = tracer.counts, tracer.maxima
    assert counts["mpc.calls"] == counts["qp.calls"] == 1
    assert counts["qp.iterations_total"] == maxima["qp.iterations_max"] == 1
    assert counts["qp.working_set_sum"] == 0
    assert 0.0 <= maxima["qp.kkt_residual_max"] < 1e-9


def _trees(tops) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for top in tops for path in sorted((ROOT / top).rglob("*.py"))}


def _definitions(tree: ast.Module):
    """(qualified name, node) of every top-level function and class and of
    every method, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _bindings(fn) -> set[str]:
    """Names a function or lambda binds in its own scope: its parameters,
    the targets in its body and its nested definitions."""
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.ExceptHandler)):
            names.add(node.name)
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return names - {None}


def _references(path: Path, tree: ast.Module, modules: set[str]):
    """(key, line) of every use a file makes: ``("def", (module, name))``
    for a module-level name read bare, in its own file or under the name a
    file imports it as, or read as an attribute of its module;
    ``("attr", name)`` for any attribute read; and ``("str", name)`` for a
    string that spells an identifier (``getattr``-style lookups).  A bare
    name that an enclosing function binds is a local and uses nothing."""
    bound = {}  # name a file imports from the package -> (module, name or None)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ecocruise"):
            source = (node.module or "") if node.level else node.module.partition(".")[2]
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    (alias.name, None) if not source and alias.name in modules
                    else (source or "__init__", alias.name))
    found = []

    def visit(node, local: set[str]) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            found.append((("def", bound.get(node.id, (path.stem, node.id))), node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((("attr", node.attr), node.lineno))
            base = node.value.id if isinstance(node.value, ast.Name) else None
            if base not in local and bound.get(base, ("", ""))[1] is None:
                found.append((("def", (bound[base][0], node.attr)), node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.append((("str", node.value), node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            local = local | _bindings(node)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, set())
    return found


# attribute names of the builtin values and arrays the package handles: a
# read of one cannot be told from a use of a method of the same name
SHADOWED = frozenset().union(*map(dir, (str, bytes, list, dict, set, tuple, int, float,
                                        np.ndarray, Path)))


def _reference_map(trees: dict[Path, ast.Module], package: list[Path]) -> dict[tuple, list]:
    """Every key of :func:`_references` to the ``(path, line)`` of its uses."""
    refs: dict[tuple, list[tuple[Path, int]]] = defaultdict(list)
    for path, tree in trees.items():
        for key, line in _references(path, tree, {p.stem for p in package}):
            refs[key].append((path, line))
    return refs


def _unused(trees: dict[Path, ast.Module], package: list[Path]) -> list[str]:
    """Every definition in the ``package`` files that nothing in ``trees``
    uses.  A module-level function or class is used through its module
    (see :func:`_references`), a method as an attribute of anything, and
    either by a string that spells it.  A use inside the definition itself
    (recursion) does not count.  A method named like an attribute in
    ``SHADOWED`` is always reported: its uses cannot be counted."""
    refs = _reference_map(trees, package)
    unused = []
    for path in package:
        for qualname, node in _definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            if "." in qualname and name in SHADOWED:
                unused.append(f"{path.name}: {qualname} (a builtin attribute name)")
                continue
            keys = [("attr", name) if "." in qualname else ("def", (path.stem, name)),
                    ("str", name)]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own for key in keys for p, line in refs[key]):
                unused.append(f"{path.name}: {qualname}")
    return unused


def test_every_definition_is_referenced():
    unused = _unused(_trees(CALLERS), sorted(PACKAGE.glob("*.py")))
    assert not unused, "definitions that nothing outside the tests uses:\n" + "\n".join(unused)


def test_a_namesake_is_not_a_use():
    """A dataclass field or an attribute of another object does not use a
    module function, and a local name does not use a method."""
    source = """
from dataclasses import dataclass

@dataclass
class Record:
    working_set: tuple

def working_set(problem):
    return ()

class Solver:
    def bounds(self):
        return 0.0

def run(record, bounds=None):
    sizes = record.working_set
    return Solver(), sizes, bounds

run(Record(()))
"""
    path = Path("pkg/mod.py")
    assert _unused({path: ast.parse(source)}, [path]) == [
        "mod.py: working_set", "mod.py: Solver.bounds"]


def test_a_builtin_attribute_name_fails_closed():
    """A method named like a ``str`` or array attribute is reported even when
    something reads that name: the read cannot be attributed to it."""
    source = """
class Plan:
    def split(self):
        return ()

    def stages(self):
        return ()

print("a b".split(), Plan().stages())
"""
    path = Path("pkg/mod.py")
    assert _unused({path: ast.parse(source)}, [path]) == [
        "mod.py: Plan.split (a builtin attribute name)"]


# solver certificates: the optimality tests read them to check each solve,
# so they are kept as safety code although no caller outside the tests does
CERTIFICATES = ("QpResult.in_mult", "MpcSolution.slack", "MpcSolution.kkt_residual",
                "MpcSolution.working_set")


def _fields(tree: ast.Module):
    """(qualified name, name) of every field of every dataclass."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _decorated(node, "dataclass"):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _unread(trees: dict[Path, ast.Module], package: list[Path],
            exempt: tuple[str, ...] = ()) -> list[str]:
    """Every dataclass field in the ``package`` files that nothing in
    ``trees`` reads, as an attribute of anything or by a string that spells
    it.  A field named like an attribute in ``SHADOWED`` counts as read: its
    reads cannot be told from the builtin's.  ``exempt`` names fields kept
    anyway."""
    refs = _reference_map(trees, package)
    return [f"{path.name}: {qualname}" for path in package
            for qualname, name in _fields(trees[path])
            if qualname not in exempt and name not in SHADOWED
            and not refs[("attr", name)] and not refs[("str", name)]]


def test_every_field_is_read():
    unread = _unread(_trees(CALLERS), sorted(PACKAGE.glob("*.py")), CERTIFICATES)
    assert not unread, "record fields that nothing outside the tests reads:\n" + "\n".join(unread)


def test_a_field_only_a_test_reads_is_reported():
    """Only the trees walked count as readers, so a field that only a test
    reads is reported; one read as an attribute, spelled as a string or
    named like a builtin attribute is not."""
    source = """
from dataclasses import dataclass

@dataclass
class Record:
    kept: float
    looked_up: float
    count: int
    tested: float

def use(record):
    return record.kept, getattr(record, "looked_up")
"""
    path = Path("pkg/mod.py")
    assert _unread({path: ast.parse(source)}, [path]) == ["mod.py: Record.tested"]


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _decorated(node, name: str) -> bool:
    return any(name in ast.unparse(d) for d in node.decorator_list)


def _defaulted(path: Path, tree: ast.Module):
    """Every value with a default that a package file declares, as
    ``(label, callee, slots, name, is_field)``: each defaulted parameter of
    a function or method, called as ``callee``, and each defaulted field of
    a dataclass, called by its class name.  ``slots`` names the parameter
    each positional argument of a call fills."""
    methods = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                methods.add(item)
                args = item.args.posonlyargs + item.args.args
                yield from _defaulted_params(f"{node.name}.{item.name}", item,
                                             args if _decorated(item, "staticmethod") else args[1:])
        if _decorated(node, "dataclass"):
            fields = [i for i in node.body
                      if isinstance(i, ast.AnnAssign) and isinstance(i.target, ast.Name)]
            slots = [f.target.id for f in fields]
            for f in fields:
                if f.value is not None:
                    yield f"{node.name}.{f.target.id}", node.name, slots, f.target.id, True
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node not in methods:
            yield from _defaulted_params(node.name, node, node.args.posonlyargs + node.args.args)


def _defaulted_params(qualname: str, fn: ast.FunctionDef, positional):
    slots = [a.arg for a in positional]
    names = slots[len(slots) - len(fn.args.defaults):] if fn.args.defaults else []
    names += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    for name in names:
        yield f"{qualname}({name}=)", fn.name, slots, name, False


def _sources(trees: dict[Path, ast.Module], defaults: dict[tuple, tuple]) -> dict[tuple, list]:
    """Map each key of ``defaults`` to the arguments callers set it with:
    ``True`` for a value, or the key of the caller's own defaulted
    parameter when a call forwards that parameter unchanged.

    A call sets a value by keyword, by position, through ``**`` with a
    mapping whose keys the calling file spells as strings, or, for a
    dataclass field, through ``dataclasses.replace``."""
    by_callee: dict[str, list[tuple]] = {}
    for key, (callee, slots, name, is_field) in defaults.items():
        by_callee.setdefault(callee, []).append((key, slots, name))
        if is_field:
            by_callee.setdefault("replace", []).append((key, [], name))
    sources: dict[tuple, list] = {key: [] for key in defaults}

    def visit(path: Path, node, own: dict[str, tuple], strings: set[str]) -> None:
        """Walk ``node`` inside a function whose defaulted parameters
        ``own`` maps from name to key."""
        if isinstance(node, ast.FunctionDef):
            own = {name: key for key, (callee, _, name, is_field) in defaults.items()
                   if key[0] == path.name and callee == node.name and not is_field}
        if isinstance(node, ast.Call):
            for key, slots, name in by_callee.get(_callee(node), []):
                set_by = [arg for i, arg in enumerate(node.args)
                          if i < len(slots) and slots[i] == name
                          or isinstance(arg, ast.Starred) and name in slots[i:]]
                set_by += [kw.value for kw in node.keywords
                           if kw.arg == name or kw.arg is None and name in strings]
                sources[key] += [own.get(arg.id, True) if isinstance(arg, ast.Name) else True
                                 for arg in set_by]
        for child in ast.iter_child_nodes(node):
            visit(path, child, own, strings)

    for path, tree in trees.items():
        visit(path, tree, {}, {c.value for c in ast.walk(tree)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str)})
    return sources


def test_every_default_is_set_by_a_caller():
    trees = _trees(CALLERS)
    defaults = {(path.name, label): rest for path in sorted(PACKAGE.glob("*.py"))
                for label, *rest in _defaulted(path, trees[path])}
    sources = _sources(trees, defaults)
    set_keys: set[tuple] = set()
    while True:  # a forwarded default is set where its caller's is
        grown = {key for key, found in sources.items()
                 if any(s is True or s in set_keys for s in found)}
        if grown == set_keys:
            break
        set_keys = grown
    unset = sorted(f"{file}: {label}" for file, label in set(defaults) - set_keys)
    assert not unset, "defaults that no caller outside the tests sets:\n" + "\n".join(unset)
