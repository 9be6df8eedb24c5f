"""The seams the frozen benchmark harness reaches into must exist.

``bipsbench`` imports program names and, in its traced pass, replaces
methods by name (``patches.wrap(Owner, "attr", ...)`` in
``bipsbench/layers.py``, which reads ``Owner.__dict__[attr]``).  The
harness cannot change with the program, so a deleted or renamed seam
would otherwise surface only when a traced pass of the workload that
reaches it runs.  These tests read the harness's source statically and
check every seam against the program, without running a workload.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BIPSBENCH = Path(__file__).resolve().parents[2] / "bipsbench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _program_imports() -> list[tuple[str, str, str]]:
    """``(file, module, name)`` for every ``from repro... import name``
    in ``bipsbench/*.py``, at any depth of the file."""
    found = []
    for path in sorted(BIPSBENCH.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "repro" or node.module.startswith("repro."):
                    found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


def _loop_values(loop: ast.For) -> tuple[str, ...]:
    assert isinstance(loop.target, ast.Name), ast.dump(loop.target)
    assert isinstance(loop.iter, (ast.Tuple, ast.List)), ast.dump(loop.iter)
    values = tuple(element.value for element in loop.iter.elts if isinstance(element, ast.Constant))
    assert len(values) == len(loop.iter.elts), ast.dump(loop.iter)
    return values


def _wrapped_seams() -> list[tuple[str, str]]:
    """``(owner, attr)`` for every ``patches.wrap(Owner, attr, ...)``
    call in ``bipsbench/layers.py``; an ``attr`` that is a loop variable
    yields one seam per value of its literal loop tuple."""
    seams = []

    def visit(node: ast.AST, bound: dict[str, tuple[str, ...]]) -> None:
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            bound = {**bound, node.target.id: _loop_values(node)}
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "patches"
        ):
            owner, attr = node.args[0], node.args[1]
            assert isinstance(owner, ast.Name), ast.dump(owner)
            if isinstance(attr, ast.Constant):
                seams.append((owner.id, attr.value))
            else:
                assert isinstance(attr, ast.Name) and attr.id in bound, ast.dump(attr)
                seams.extend((owner.id, value) for value in bound[attr.id])
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(_parse(BIPSBENCH / "layers.py"), {})
    return seams


IMPORTS = _program_imports()
SEAMS = _wrapped_seams()
#: Where layers.py imports each wrapped owner from.
OWNERS = {name: module for file, module, name in IMPORTS if file == "layers.py"}


def test_the_harness_is_read():
    # A parse that finds nothing would pass every check below vacuously.
    assert len(IMPORTS) >= 20
    assert len(SEAMS) >= 20
    assert ("Kernel", "post_at") in SEAMS and ("BIPSServer", "locate") in SEAMS


@pytest.mark.parametrize(
    "module, name",
    sorted({(module, name) for _, module, name in IMPORTS}),
    ids=lambda value: value,
)
def test_program_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize(
    "owner, attr", sorted(set(SEAMS)), ids=lambda value: value
)
def test_wrapped_seam_is_defined_on_its_owner(owner, attr):
    assert owner in OWNERS, f"layers.py wraps {owner} without importing it from repro"
    cls = getattr(importlib.import_module(OWNERS[owner]), owner)
    assert attr in cls.__dict__, f"{OWNERS[owner]}.{owner}.{attr}"
