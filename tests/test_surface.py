"""Pins of the library's public surface.

The controller tunes one cost parameter online, the fuel weight; every other
cost and solver setting is a module constant.  These checks keep retired
keyword knobs from coming back and keep definitions that nothing uses from
accumulating.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from ecocruise import invopt, mpc, qp, road
from ecocruise.dp import DpConfig
from ecocruise.harness import ControllerSpec

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ecocruise"
CORPUS = ("src", "tests", "demos", "perfbench")

# overrides of hooks a library calls by name
HOOKS = {("cli.py", "_Parser.error")}


@pytest.mark.parametrize("fn, params", [
    (mpc.build, ["gamma", "lin", "grade_window", "v_init", "params", "v_ref"]),
    (qp.solve_qp, ["h_mat", "c_vec", "a_eq", "b_eq", "a_in", "b_in", "x0", "working0"]),
    (road.gen_sinusoidal, ["seed", "length_m", "components"]),
    (invopt.build_kkt, ["window", "grade_window", "lin", "params", "active_set", "v_ref"]),
    (invopt.gamma_series, ["dp_solution", "road", "lin", "params", "n", "v_ref"]),
    (DpConfig.default, ["params", "v_ref", "v_i", "v_span", "dv", "dvavg", "dte", "vavg_band",
                        "keep_cost_to_go"]),
    (mpc.kkt_residual, ["problem", "solution"]),
])
def test_parameter_lists(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_controller_spec_fields():
    assert [f.name for f in dataclasses.fields(ControllerSpec)] == [
        "kind", "v_ref", "v_i", "horizon", "gamma"]


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


def _references(tree: ast.Module):
    """(name, line) of every identifier a file uses: names, attributes and
    strings that spell an identifier (``getattr``-style lookups)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def test_every_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in CORPUS for path in sorted((ROOT / top).rglob("*.py"))}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))

    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__") or (path.name, qualname) in HOOKS:
                continue
            # a use inside the definition itself (recursion) does not count
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own for p, line in uses.get(name, [])):
                unused.append(f"{path.name}: {qualname}")
    assert unused == []
