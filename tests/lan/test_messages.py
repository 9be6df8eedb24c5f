"""The LAN protocol surface: every message type is sent by some run.

A message type that no ``src`` module constructs is protocol no run
speaks; one the server dispatches on but nobody sends is a handler no
run reaches.  Both are read from the source, not from a run.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import repro
from repro.lan import messages

SRC = Path(repro.__file__).parent

MESSAGE_TYPES = {
    name
    for name, cls in inspect.getmembers(messages, inspect.isclass)
    if issubclass(cls, messages.Message) and cls is not messages.Message
}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def constructed_names() -> set[str]:
    """Every name called anywhere under ``src/repro``."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                names.add(_called_name(node))
    return names


def server_dispatch_types() -> set[str]:
    """The types ``BIPSServer._on_message`` tests with ``isinstance``."""
    tree = ast.parse((SRC / "core" / "server.py").read_text(encoding="utf-8"))
    server = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "BIPSServer"
    )
    handler = next(
        node
        for node in server.body
        if isinstance(node, ast.FunctionDef) and node.name == "_on_message"
    )
    return {
        node.args[1].id
        for node in ast.walk(handler)
        if isinstance(node, ast.Call)
        and _called_name(node) == "isinstance"
        and isinstance(node.args[1], ast.Name)
    }


class TestProtocolSurface:
    def test_every_message_type_is_constructed_in_src(self):
        assert MESSAGE_TYPES - constructed_names() == set()

    def test_the_server_dispatches_only_on_sent_types(self):
        dispatched = server_dispatch_types()
        assert dispatched, "BIPSServer._on_message dispatches on nothing"
        assert dispatched - (MESSAGE_TYPES & constructed_names()) == set()
