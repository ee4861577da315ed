"""One copy of every chain parameter: RunConfig holds the defaults.

The modules that run a configured chain (chain.py, lis.py, harness.py,
cli.py) and the proposals and ratios it calls (proposals.py,
acceptance.py) read every setting from the RunConfig they are given or
from their callers. A parameter or dataclass field there that defaults a
RunConfig key to a constant would be a second copy of that setting, free
to drift from RunConfig's. ``None``
stays allowed: it means "not given", not a value.
"""

import ast
from dataclasses import fields
from pathlib import Path

from drgmc.config import RunConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drgmc"
MODULES = ("chain.py", "lis.py", "harness.py", "cli.py", "proposals.py",
           "acceptance.py")
KEYS = {f.name for f in fields(RunConfig)}


def _is_value(node):
    """True for a literal other than None, including field(default=...)."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "field"):
        return any(kw.arg == "default" and _is_value(kw.value)
                   for kw in node.keywords)
    try:
        return ast.literal_eval(node) is not None
    except ValueError:
        return False


def config_defaults(source):
    """(name, line) of every parameter or class-body field default that
    gives a RunConfig key a constant value."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):],
                             args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            found += [(a.arg, d.lineno) for a, d in pairs
                      if a.arg in KEYS and _is_value(d)]
        elif isinstance(node, ast.ClassDef):
            found += [(stmt.target.id, stmt.lineno) for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)
                      and stmt.target.id in KEYS and stmt.value is not None
                      and _is_value(stmt.value)]
    return found


def test_detector_sees_each_kind_of_default():
    source = ("def f(x, rank=5, *, seed=0, h=None): pass\n"
              "g = lambda burn_in=-1: 0\n"
              "class C:\n"
              "    threshold: float = 0.01\n"
              "    max_rank: int = field(default=30)\n"
              "    eps: float | None = None\n"
              "    m: int = 0\n")
    names = sorted(name for name, _ in config_defaults(source))
    assert names == ["burn_in", "max_rank", "rank", "seed", "threshold"]


def test_chain_modules_default_no_config_key():
    offenders = [f"{name}:{line} {key}"
                 for name in MODULES
                 for key, line in config_defaults((PACKAGE / name).read_text())]
    assert not offenders, f"RunConfig keys given defaults outside RunConfig: {offenders}"
