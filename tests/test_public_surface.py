"""The public surface earns its lines: every function and class a qradar
module exports, and every public method of an exported class, is called by a
qradar module or named by the benchmark harness, and each of its parameters
with a default is set by some call there (an oracle a test checks a shipped
kernel against lives in the tests).  And no function holds an argument to a
sign by hand: errors._valid is the one argument rule; nor factors a matrix by
Cholesky outside gaussian's np.linalg.cholesky; nor writes the symmetric part
(M + M^T)/2 outside gaussian, or a channel action X V X^T + Y outside
channels; nor tests a matrix handed in for symmetry (``_asymmetric``) or
writes its shape rule ("2N x 2N") outside gaussian; nor raises
UnphysicalChannelError outside channels, where a channel is made; nor writes
a converter's 6-row drift literal or a bath row outside converter, where the
three-mode layout lives; nor does criteria run an eigensolver, nor a
converter grid or temperature basis a stability test of its drifts; and scipy
is imported by no qradar module."""

import ast
import math
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    ]


def test_every_public_name_is_called_or_benchmarked():
    unused = _unused_names()
    assert not unused, f"no qradar module or benchmark uses: {', '.join(unused)}"


def _unset_defaults() -> list[str]:
    """``qualified parameter`` of each parameter with a default, of each
    exported function and public method of an exported class, that no call in
    a qradar module or the benchmark harness passes, by position or keyword
    (a call spreading ``*args`` or ``**kwargs`` passes them all).  Callees
    are matched by bare name, as in :func:`_unused_names`."""
    modules = _modules()
    trees = [*modules.values(), *map(_parse, (ROOT / "perfbench").glob("*.py"))]
    most, keywords = Counter(), set()  # callee -> most positional arguments; (callee, keyword)
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = ast.unparse(call.func).rsplit(".", 1)[-1]
        spread = any(isinstance(a, ast.Starred) for a in call.args) or None in [k.arg for k in call.keywords]
        most[name] = max(most[name], math.inf if spread else len(call.args))
        keywords |= {(name, k.arg) for k in call.keywords}
    found = []
    for qualified, name, node in _public_surface(modules):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        bound = qualified.count(".") == 2  # a method: self or cls is not passed
        defaulted = [(p.arg, i) for i, p in enumerate(positional[first:], first - bound)]
        defaulted += [(p.arg, sys.maxsize) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        found += [f"{qualified} {p}" for p, i in defaulted if most[name] <= i and (name, p) not in keywords]
    return found


def test_every_default_parameter_is_set_by_a_run():
    # A default no run overrides is a constant under another name: an option
    # that only tests reach.
    unset = _unset_defaults()
    assert not unset, f"parameters no qradar module or benchmark sets: {', '.join(unset)}"


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


def _transposed(node: ast.expr) -> str | None:
    """``M`` of ``M.T`` or ``M.mT``, unparsed; None for any other node."""
    if isinstance(node, ast.Attribute) and node.attr in ("T", "mT"):
        return ast.unparse(node.value)
    return None


def _unscaled(node: ast.expr) -> ast.expr:
    """``M`` of ``c * M`` or ``M * c`` for a constant c; else ``node``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        if isinstance(node.left, ast.Constant):
            return node.right
        if isinstance(node.right, ast.Constant):
            return node.left
    return node


def _matmul_factors(node: ast.expr) -> list[ast.expr]:
    """The factors of a chain ``F1 @ F2 @ ...``; ``[node]`` for any other node."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return _matmul_factors(node.left) + _matmul_factors(node.right)
    return [node]


def _rule_copies(tree: ast.AST) -> list[tuple[str, int]]:
    """(rule, line) of each sum in ``tree`` that writes the symmetric part
    M + M^T (halved before or after the sum) or a channel action
    X @ ... @ X^T + Y."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            continue
        left, right = _unscaled(node.left), _unscaled(node.right)
        if ast.unparse(left) == _transposed(right) or ast.unparse(right) == _transposed(left):
            found.append(("symmetric part", node.lineno))
        for side in (node.left, node.right):
            factors = _matmul_factors(side)
            if len(factors) >= 3 and _transposed(factors[-1]) == ast.unparse(factors[0]):
                found.append(("channel action", node.lineno))
    return found


_RULE_HOME = {"symmetric part": "gaussian", "channel action": "channels"}


@pytest.mark.parametrize("source, rule", [
    ("0.5 * (v + v.mT)", "symmetric part"),
    ("half + half.T", "symmetric part"),
    ("0.5 * y + 0.5 * y.T", "symmetric part"),
    ("(m.T + m) / 2", "symmetric part"),
    ("b.X @ pairs @ b.X.T + b.Y", "channel action"),
    ("y + x @ v @ w @ x.mT", "channel action"),
])
def test_rule_copies_are_seen(source, rule):
    assert [r for r, _ in _rule_copies(ast.parse(source))] == [rule]


def test_one_copy_of_each_covariance_rule():
    # The symmetric part lives in gaussian (states, the diffusion, the
    # channel noise and each Lyapunov solve call it) and the channel action
    # in channels (GaussianChannel.act); a second copy could drift from it.
    found = [
        f"{module}:{line} {rule}"
        for module, tree in _modules().items()
        for rule, line in _rule_copies(tree)
        if module != _RULE_HOME[rule]
    ]
    assert not found, f"covariance rules written outside their module: {', '.join(found)}"


def _matrix_rule_copies(tree: ast.AST) -> list[tuple[str, int]]:
    """(rule, line) of each call of the symmetry test ``_asymmetric`` and each
    string that writes the shape rule "2N x 2N" in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _uses(node.func)["_asymmetric"]:
            found.append(("symmetry test", node.lineno))
        elif isinstance(node, ast.Constant) and "2N x 2N" in str(node.value):
            found.append(("shape rule", node.lineno))
    return found


@pytest.mark.parametrize("source, rule", [
    ("if _asymmetric(d): pass", "symmetry test"),
    ("gaussian._asymmetric(y)", "symmetry test"),
    ('f"drift must be square 2N x 2N, got {a.shape}"', "shape rule"),
    ('raise ValidationError("channel matrices must be square 2N x 2N")', "shape rule"),
])
def test_matrix_rule_copies_are_seen(source, rule):
    assert [r for r, _ in _matrix_rule_copies(ast.parse(source))] == [rule]


def test_one_matrix_boundary():
    # gaussian._square and gaussian._symmetrised hold every matrix handed to
    # the library to one shape, finiteness and symmetry rule; a second copy
    # drifted from it (a 0x0 drift raised a bare ValueError, and a two-mode
    # covariance's lower-left block went unchecked).
    found = [
        f"{module}:{line} {rule}"
        for module, tree in _modules().items()
        for rule, line in _matrix_rule_copies(tree)
        if module != "gaussian"
    ]
    assert _matrix_rule_copies(_modules()["gaussian"]), "no matrix rule seen in gaussian"
    assert not found, f"matrix rules written outside gaussian: {', '.join(found)}"


def _layout_copies(tree: ast.AST) -> list[tuple[str, int]]:
    """(part, line) of each ``np.array`` call on a 6-row list literal and each
    4-field tuple or list literal ending in the bath kind "cavity" or
    "mechanical" in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.array", "numpy.array"):
            rows = node.args[0] if node.args else None
            if isinstance(rows, ast.List) and len(rows.elts) == 6:
                found.append(("drift literal", node.lineno))
        elif isinstance(node, (ast.Tuple, ast.List)) and len(node.elts) == 4:
            kind = node.elts[-1]
            if isinstance(kind, ast.Constant) and kind.value in ("cavity", "mechanical"):
                found.append(("bath row", node.lineno))
    return found


@pytest.mark.parametrize("source, parts", [
    ("np.array([[0.0] * 6, [1.0] * 6, [2.0] * 6, [3.0] * 6, [4.0] * 6, [5.0] * 6])", ["drift literal"]),
    ("numpy.array([r0, r1, r2, r3, r4, r5])", ["drift literal"]),
    ("baths = [(w, g, t, 'mechanical'), (w, k, t, 'cavity')]", ["bath row", "bath row"]),
    ("[omega, kappa, 0.0, 'cavity']", ["bath row"]),
    ("np.array([[1.0, 0.0], [0.0, 1.0]])", []),
    ("if kind not in ('cavity', 'mechanical'): pass", []),
    ("(omega, damping, 0.0, kind)", []),
])
def test_layout_copies_are_seen(source, parts):
    assert [part for part, _ in _layout_copies(ast.parse(source))] == parts


def test_one_converter_layout():
    # converter._drift and converter._bath_rows write the three-mode layout
    # both converters share, in its one mode order; a converter that wrote
    # its own drift or baths could drift from that order, on which the
    # temperature basis's one bath per mode relies.
    found = [
        f"{module}:{line} {part}"
        for module, tree in _modules().items()
        for part, line in _layout_copies(tree)
        if module != "converter"
    ]
    assert _layout_copies(_modules()["converter"]), "no layout seen in converter"
    assert not found, f"converter layout written outside converter: {', '.join(found)}"


def _raises_of(name: str) -> list[str]:
    """module:line of each ``raise`` of the exception class ``name`` in a qradar module."""
    return [
        f"{module}:{node.lineno}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and _uses(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)[name]
    ]


def test_complete_positivity_is_decided_where_a_channel_is_made():
    # GaussianChannel holds every channel to the bound once, as it is made;
    # a second check would re-validate a channel that cannot fail it.
    found = [site for site in _raises_of("UnphysicalChannelError") if not site.startswith("channels:")]
    assert _raises_of("UnphysicalChannelError"), "no raise of UnphysicalChannelError seen"
    assert not found, f"UnphysicalChannelError raised outside channels: {', '.join(found)}"


def _scipy_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """The line and text of each import in ``tree`` of scipy, of a scipy
    submodule or of a name from one, at any depth (a function's import too)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("source, seen", [
    ("import scipy", True),
    ("import scipy.optimize", True),
    ("import scipy.constants as sc", True),
    ("import numpy, scipy.linalg", True),
    ("from scipy import optimize", True),
    ("from scipy.constants import hbar", True),
    ("from scipy.linalg import lapack", True),
    ("import scipyx", False),
    ("from .scipy import lapack", False),
    ("from numpy import linalg", False),
])
def test_scipy_imports_are_seen(source, seen):
    tree = ast.parse(f"def solve():\n    {source}")
    assert _scipy_imports(tree) == ([(2, source)] if seen else [])


def test_src_imports_no_scipy():
    # No run needs scipy: the Lyapunov steady state is numpy's linear solve
    # (langevin), so a run loads no scipy.  The physical constants are
    # literals in langevin: scipy.constants would tie every result to the
    # installed scipy's CODATA edition.  Thresholds run Brent's method in
    # sweeps: importing scipy.optimize for brentq cost more start-up time and
    # memory than a whole threshold.
    found = {f"{name}: {text}" for name, tree in _modules().items() for _, text in _scipy_imports(tree)}
    assert found == set()


_EIGENSOLVERS = ("eigvals", "eig", "eigvalsh", "eigh", "_symplectic_spectra", "symplectic_eigenvalues")


def _eigensolves(tree: ast.AST) -> list[tuple[int, str]]:
    """The line and callee of each call in ``tree`` of a numpy eigensolver,
    or of gaussian's spectrum by eigensolve."""
    return [
        (node.lineno, callee)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (callee := ast.unparse(node.func)).rsplit(".", 1)[-1] in _EIGENSOLVERS
    ]


@pytest.mark.parametrize("source, seen", [
    ("np.linalg.eigvals(m)", True),
    ("linalg.eigh(m)", True),
    ("eigvals(m)", True),
    ("gaussian._symplectic_spectra(covs)", True),
    ("_two_mode_spectra(covs)", False),
    ("np.linalg.det(m)", False),
])
def test_eigensolves_are_seen(source, seen):
    tree = ast.parse(f"def score(m, covs):\n    return {source}")
    assert _eigensolves(tree) == ([(2, source.split("(")[0])] if seen else [])


def test_criteria_runs_no_eigensolver():
    # Every criterion is a closed form in determinants and matrix products,
    # and the symplectic spectrum discord needs comes from one Cholesky
    # factor per stack (gaussian._two_mode_spectra): the eigvals of each
    # pair's Omega V it replaced was about a fifth of an EOM sweep.
    found = [f"criteria:{line} {callee}" for line, callee in _eigensolves(_modules()["criteria"])]
    assert not found, f"eigensolver called in criteria: {', '.join(found)}"


def _stability_tests(tree: ast.AST) -> list[str]:
    """Each call in ``tree`` of an eigensolver or of a Hurwitz test of drift
    eigenvalues (``is_stable``, or the stacked ``_stability`` there was), as
    written."""
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rsplit(".", 1)[-1] in (*_EIGENSOLVERS, "is_stable", "_stability")
    ]


@pytest.mark.parametrize("source, seen", [
    ("np.linalg.eigvals(drifts).real.max(axis=-1)", ["np.linalg.eigvals(drifts)"]),
    ("langevin.is_stable(model)", ["langevin.is_stable(model)"]),
    ("_stability(drifts)[0]", ["_stability(drifts)"]),
    ("_solve_lyapunov(drifts, diffusions)", []),
    ("_positive_definite(covs)", []),
])
def test_stability_tests_are_seen(source, seen):
    assert _stability_tests(ast.parse(f"def grid(drifts, diffusions, covs, model):\n    return {source}")) == seen


def test_stacked_steady_states_take_no_drift_eigensolve():
    # A converter grid and a temperature basis solve every drift's Lyapunov
    # equation and decide a steady state from the solution (Lyapunov's
    # theorem): the eigvals of each drift cost more than the solve itself
    # (221 us against 188 us on a 32-point grid), and misjudged drifts whose
    # eigenvalues it could not resolve.  The basis keeps one eigensolve, of
    # its V_b, for their rounding check; run_grid tells its failing members
    # apart through gaussian._positive_definite.
    modules = _modules()
    basis = next(node for node in ast.walk(modules["converter"])
                 if isinstance(node, ast.FunctionDef) and node.name == "_thermal_steady_state")
    assert _stability_tests(modules["sweeps"]) == []
    assert _stability_tests(basis) == ["np.linalg.eigvalsh(v_unit)"]
