"""The products a chain forms per state or iteration are ndarray.dot, not @.

On these sizes (n = 8 to 441) ``a @ b`` goes through numpy's gufunc
dispatch and costs about 0.5 us more per call than ``a.dot(b)``, which
reaches the same BLAS routine with the same result bit for bit
(``tests/test_operators.py`` pins that). A linear-model iteration makes
about 30 such products. The one product that is neither is the prior
factor on a vector at n >= ``operators.SYMV_MIN_N`` (the desk's n = 441):
BLAS dsymv, which reads one triangle of S and so about half its bytes.
This check finds every ``@`` in the hot modules and functions below;
set-up and test-only code keep ``@``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drgmc"
# module -> the functions or classes on the per-iteration path (None: all of it)
HOT = {
    "acceptance.py": None,
    "proposals.py": None,
    "operators.py": ("CovarianceOperator.sqrt_apply", "LowRankSpectrum.project",
                     "LowRankSpectrum.lift"),
    "linear_model.py": ("_LinearState",),
    "elliptic.py": ("ForwardSolveResult", "assemble_and_solve", "gradient"),
    "lis.py": ("local_spectrum",),
    # WhitenedState.gnh_action is left out: chains do not call it
    "chain.py": ("_values", "_projected", "_pcn", "_inf_mala", "_dr_mmala", "_dr_mhmc",
                 "_dili", "WhitenedModel.state", "WhitenedState.grad", "WhitenedState.jv"),
}
EXCEPTIONS = {
    ("lis.py", "local_spectrum"): "with .dot its Gram products round differently, "
                                  "which moves the LIS of the elliptic dili and "
                                  "adr-* chains by up to 8e-14",
}


def matmul_scopes(path):
    """(qualified name of the enclosing def or class, line) of every @ and
    @= in a module, and the set of qualified names it defines."""
    found, defined = [], set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            defined.add(scope)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found, defined


def within(scope, names):
    return names is None or any(scope == n or scope.startswith(n + ".") for n in names)


def test_hot_path_products_use_dot():
    offenders, exempt = [], set()
    for module, names in HOT.items():
        found, defined = matmul_scopes(PACKAGE / module)
        missing = [n for n in names or () if n not in defined]
        assert not missing, f"{module} no longer defines {missing}; update HOT"
        for scope, line in found:
            if not within(scope, names):
                continue
            if (module, scope) in EXCEPTIONS:
                exempt.add((module, scope))
            else:
                offenders.append(f"{module}:{line} in {scope or '<module>'}")
    assert not offenders, f"@ on the per-iteration path, write .dot: {offenders}"
    # an exception that no longer uses @ should leave this list
    assert exempt == set(EXCEPTIONS), f"stale exceptions: {set(EXCEPTIONS) - exempt}"
