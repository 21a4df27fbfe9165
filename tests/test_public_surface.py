"""The public surface earns its lines: every function and class a qradar
module exports, and every public method of an exported class, is called by a
qradar module, named by the benchmark harness, or kept as a named oracle that
a test checks a shipped kernel against by another route.  And no function
holds an argument to a sign by hand: errors._valid is the one argument rule;
nor factors a matrix by Cholesky outside gaussian's np.linalg.cholesky."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Exported names no qradar module calls, kept for the independent check
# each gives: name -> the test file that uses it, and what it checks.
ORACLES = {
    # 2 nu_min of the transposed covariance against criteria.two_eta_values.
    "gaussian.partial_transpose": "test_criteria.py",
    # S(A) + S(B) - S(AB) against criteria.discord_reports' mutual_info.
    "gaussian.von_neumann_entropy": "test_criteria.py",
    # Known-answer input: spectrum n + 1/2 and a positive Wigner field.
    "gaussian.thermal_state": "test_gaussian.py",
    # oe.end_to_end_report through identity channels equals direct_report.
    "channels.identity_channel": "test_oe.py",
    # The covariance ODE integrated to long times against the Lyapunov solve.
    "langevin.propagate_cov": "test_langevin.py",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _modules() -> dict[str, ast.Module]:
    return {p.stem: _parse(p) for p in sorted((ROOT / "src" / "qradar").glob("*.py"))}


def _uses(node: ast.AST) -> Counter:
    """Names read under ``node``, bare or as attributes (an import or a
    ``def`` is no use)."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _public_surface(modules: dict[str, ast.Module]):
    """(qualified name, bare name, def node) of each exported function and
    class, and of each public method of an exported class."""
    for module, tree in modules.items():
        exported = next(
            (
                [elt.value for elt in node.value.elts]
                for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            ),
            [],
        )
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name not in exported:
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def _unused_names() -> list[str]:
    modules = _modules()
    uses = sum((_uses(tree) for tree in modules.values()), Counter())
    harness = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py"))
    return [
        qualified
        for qualified, name, node in _public_surface(modules)
        if uses[name] == _uses(node)[name]  # no use outside its own definition
        and not re.search(rf"\b{name}\b", harness)  # tracer.TARGETS names spans as strings
        and qualified not in ORACLES
    ]


def test_every_public_name_is_called_benchmarked_or_an_oracle():
    unused = _unused_names()
    assert not unused, f"no qradar module, benchmark or ORACLES entry uses: {', '.join(unused)}"


def _is_sign_test(test: ast.expr, params: set[str]) -> bool:
    """``<parameter> < 0`` or ``<parameter> <= 0``, or an ``or`` holding one."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return any(_is_sign_test(value, params) for value in test.values)
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Lt, ast.LtE))
        and isinstance(test.left, ast.Name)
        and test.left.id in params
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == 0
    )


def _hand_written_sign_checks() -> list[str]:
    """module.function:line of each ``if`` that holds a parameter of its
    function to a sign by hand and raises."""
    found = []
    for module, tree in _modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            args = func.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            found += [
                f"{module}.{func.name}:{node.lineno}"
                for node in ast.walk(func)
                if isinstance(node, ast.If)
                and _is_sign_test(node.test, params)
                and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
            ]
    return found


def test_arguments_are_held_to_their_sign_rule_by_errors_valid():
    # errors._valid is the one argument rule: it also rejects NaN, inf and
    # integers beyond float range, which a bare `x < 0` lets through.
    found = _hand_written_sign_checks()
    assert not found, f"hand-written sign checks (use errors._valid): {', '.join(found)}"


def test_each_oracle_is_exported_and_used_by_its_test():
    surface = {qualified for qualified, _, _ in _public_surface(_modules())}
    for qualified, test_file in ORACLES.items():
        assert qualified in surface, qualified
        assert _uses(_parse(ROOT / "tests" / test_file))[qualified.rsplit(".", 1)[1]], qualified


def _cholesky_calls_outside_gaussian() -> list[str]:
    """module:line callee of each Cholesky factorization a qradar module
    calls, a LAPACK *potrf or scipy's included, other than gaussian's
    np.linalg.cholesky."""
    found = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = ast.unparse(node.func)
            name = callee.rsplit(".", 1)[-1]
            cholesky = name.endswith("potrf") or name in ("cholesky", "cho_factor")
            if cholesky and (module, callee) != ("gaussian", "np.linalg.cholesky"):
                found.append(f"{module}:{node.lineno} {callee}")
    return found


def test_one_cholesky_path():
    # The physical rule and sampling share np.linalg.cholesky in gaussian;
    # a second factorization route would be a second rule to keep in step.
    found = _cholesky_calls_outside_gaussian()
    assert not found, f"Cholesky outside gaussian's np.linalg.cholesky: {', '.join(found)}"
