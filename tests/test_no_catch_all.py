"""No failure is silent: the package has one catch-all handler.

``cli.cmd_run`` may catch any exception, because it turns the failure into
a manifest flagged incomplete and exit status 1. Every other handler names
the errors it expects.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drgmc"
ALLOWED = {("cli.py", "cmd_run")}
CATCH_ALL = {"Exception", "BaseException"}


def _names(node):
    if node is None:
        return {None}
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(elt) for elt in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def catch_all_handlers(path):
    """(function, line) of every bare or Exception/BaseException handler."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ExceptHandler):
            if _names(node.type) & (CATCH_ALL | {None}):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_only_cmd_run_catches_everything():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = [f"{path.name}:{line} in {func}"
                 for path in modules
                 for func, line in catch_all_handlers(path)
                 if (path.name, func) not in ALLOWED]
    assert not offenders, f"catch-all handlers: {offenders}"

