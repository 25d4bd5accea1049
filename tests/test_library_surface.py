"""The library is what the reports and the acceptance criteria run.

Every module-level function and every non-dunder method in
``src/bruhat_satake`` must be named somewhere in the library outside its
own body; a module-level function may instead be named in
``tests/test_acceptance.py``.  A command body registered by a ``cli``
decorator is reached through that registration.  Oracles and helpers that
only tests call live in ``tests/``.

A function is named by its name.  A method ``C.m`` of the library is named
only where ``m`` is looked up on a receiver that the annotations in
``src/`` make a ``C``: ``self`` in a method of ``C``, ``C`` itself, a
parameter or variable annotated ``C``, a field or result annotated ``C``,
a loop target over a ``list[C]``, a name unpacked from a result annotated
``tuple[C, ...]``, or a name last assigned such a value.  So
``P.transpose(0, 2, 1)`` on a numpy stack does not name a
``BlockMatrix.transpose``, and a ``.rows`` read in the acceptance test
names no method.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bruhat_satake"
ACCEPTANCE = Path(__file__).resolve().with_name("test_acceptance.py")

# Names that stay in the library with no such caller, each with its reason.
ALLOWED = {
    "backend_name": "perfbench/child.py records the kernel backend of each benchmark run",
    "anticanonical_radius": "ROADMAP item 10 gives it a report in padic h --matrix",
}
REGISTRARS = {"_report", "_padic"}  # the cli decorators that register a command body


def _named(tree: ast.AST) -> Counter:
    """How often each identifier is read or looked up as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


_DUNDERS = {ast.Mult: "__mul__", ast.Add: "__add__", ast.Sub: "__sub__", ast.Pow: "__pow__"}  # the binary operators the library defines


class _Library:
    """The library's classes, as far as its annotations tell them apart.

    ``members`` maps each class to the annotation of each field, property
    and method result; ``results`` maps each module-level function to its
    return annotation.  The type of an expression is an annotation node (the
    class's own name for the class itself), or None where the annotations
    do not tell.
    """

    def __init__(self, trees):
        self.members: dict[str, dict[str, ast.expr | None]] = {}
        self.results: dict[str, ast.expr | None] = {}
        for tree in trees:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self.results[node.name] = node.returns
                elif isinstance(node, ast.ClassDef):
                    self.members[node.name] = {
                        item.name if isinstance(item, ast.FunctionDef) else item.target.id:
                            item.returns if isinstance(item, ast.FunctionDef) else item.annotation
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        or isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    }

    def class_of(self, annotation) -> str | None:
        """The library class an annotation names, bare or quoted."""
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval").body
        return annotation.id if isinstance(annotation, ast.Name) and annotation.id in self.members else None

    def type_of(self, node, env: dict[str, ast.expr]) -> ast.expr | None:
        if isinstance(node, ast.Name):
            return env.get(node.id, node if node.id in self.members else None)
        if isinstance(node, ast.Attribute):
            owner = self.class_of(self.type_of(node.value, env))
            if owner is None:  # module.Class
                return ast.Name(node.attr) if node.attr in self.members else None
            return self.members[owner].get(node.attr)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) and func.id not in env else None
            if isinstance(func, ast.Attribute) and self.type_of(func.value, env) is None:
                name = func.attr  # module.function
            return self.results[name] if name in self.results else self.type_of(func, env)
        if isinstance(node, ast.BinOp) and (owner := self.class_of(self.type_of(node.left, env))):
            return self.members[owner].get(_DUNDERS.get(type(node.op)))
        return None

    def scope(self, fn, env: dict[str, ast.expr], owner: str | None) -> dict[str, ast.expr]:
        """``env`` extended by the parameters of ``fn`` (``self`` or ``cls``
        is the owner of a method), then by its assignments and loop targets
        in source order."""
        env = dict(env)
        params = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
        decorators = {dec.id for dec in getattr(fn, "decorator_list", []) if isinstance(dec, ast.Name)}
        if owner and params and "staticmethod" not in decorators:
            env[params[0].arg] = ast.Name(owner)
        env |= {arg.arg: arg.annotation for arg in params if arg.annotation is not None}
        bindings = [
            (node.targets[0] if isinstance(node, ast.Assign) else node.target, node)
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            or isinstance(node, (ast.AnnAssign, ast.For, ast.comprehension))
        ]
        for target, node in sorted(bindings, key=lambda b: (b[0].lineno, b[0].col_offset)):
            if isinstance(node, ast.Assign):
                annotation = self.type_of(node.value, env)
            elif isinstance(node, ast.AnnAssign):
                annotation = node.annotation
            else:  # a loop target: an element of list[C] or tuple[C, ...]
                annotation = _element(self.type_of(node.iter, env))
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            types = _unpacked(annotation, len(names)) if isinstance(target, ast.Tuple) else [annotation]
            for name, typed in zip(names, types):
                if isinstance(name, ast.Name) and typed is not None:
                    env[name.id] = typed
        return env

    def named(self, node, own: dict, env=None, owner=None) -> Counter:
        """How often each identifier is read or looked up in ``node``, with
        each lookup of a member of the library class C on a receiver of type
        C also counted as "C.attr"; ``own`` collects the counts of each
        function's own body."""
        env = {} if env is None else env
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            env = self.scope(node, env, owner)
        counts = Counter()
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
            if (cls := self.class_of(self.type_of(node.value, env))) and node.attr in self.members[cls]:
                counts[f"{cls}.{node.attr}"] += 1
        for child in ast.iter_child_nodes(node):
            counts += self.named(child, own, env, node.name if isinstance(node, ast.ClassDef) else None)
        if isinstance(node, ast.FunctionDef):
            own[node] = counts
        return counts


def _element(annotation):
    """The element annotation of a subscripted container annotation."""
    if not isinstance(annotation, ast.Subscript):
        return None
    inner = annotation.slice
    return inner.elts[0] if isinstance(inner, ast.Tuple) else inner


def _unpacked(annotation, count: int) -> list:
    """The annotations of the ``count`` names that a value annotated
    ``tuple[C, ...]``, or ``tuple[C, D]`` with one type per name, unpacks
    into (None where the annotation does not tell)."""
    if not (isinstance(annotation, ast.Subscript) and isinstance(annotation.value, ast.Name)
            and annotation.value.id == "tuple"):
        return [None] * count
    inner = annotation.slice
    elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
    if len(elts) == 2 and isinstance(elts[1], ast.Constant) and elts[1].value is Ellipsis:
        return [elts[0]] * count
    return elts if len(elts) == count else [None] * count


def _registered(fn: ast.FunctionDef) -> bool:
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name) and dec.func.id in REGISTRARS
        for dec in fn.decorator_list
    )


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def uncalled(src: Path = SRC, acceptance: Path = ACCEPTANCE) -> list[str]:
    """The qualified names that nothing but their own body, or the body of
    another uncalled function, names."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    library, own = _Library(modules.values()), {}
    named = sum((library.named(tree, own) for tree in modules.values()), Counter())
    criteria = set(_named(ast.parse(acceptance.read_text())))
    # each candidate's key: a function's name, or a method's "Class.method"
    candidates = {
        f"{module}.{qualname}": (qualname if "." in qualname else fn.name, fn)
        for module, tree in modules.items()
        for qualname, fn in _definitions(tree)
        if fn.name not in ALLOWED and not _registered(fn) and ("." in qualname or fn.name not in criteria)
    }
    flagged: list[str] = []
    while True:
        fresh = [name for name, (key, fn) in candidates.items() if named[key] - own[fn][key] <= 0]
        if not fresh:
            return sorted(flagged)
        for name in fresh:
            named -= own[candidates.pop(name)[1]]  # what only an uncalled body names is uncalled too
        flagged += fresh


def test_every_library_function_has_a_caller():
    assert uncalled() == []


def test_a_function_only_tests_call_is_flagged(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    extra = "\n\ndef orphan(x):\n    return orphan(x - 1) if x else 0\n"
    (tmp_path / "weyl.py").write_text((SRC / "weyl.py").read_text() + extra)
    assert uncalled(tmp_path) == ["weyl.orphan"]


def _with_method_after_last_field(source: str, cls: str, method: str) -> str:
    """``source`` with ``method`` (indented as a class body) inserted after
    the last annotated field of class ``cls``, found by ``ast``."""
    (node,) = [n for n in ast.parse(source).body if isinstance(n, ast.ClassDef) and n.name == cls]
    last = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)][-1]
    lines = source.splitlines(keepends=True)
    return "".join(lines[: last.end_lineno]) + "\n" + method + "".join(lines[last.end_lineno :])


def test_a_method_only_tests_call_is_flagged_though_numpy_shares_its_name(tmp_path):
    # flagfq.cover_lemma_check calls P.transpose(0, 2, 1) on a numpy stack,
    # which must not count as a caller of a test-only BlockMatrix.transpose
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    method = "    def transpose(self):\n        return self\n"
    (tmp_path / "padic.py").write_text(_with_method_after_last_field((SRC / "padic.py").read_text(), "BlockMatrix", method))
    assert ".transpose(" in (SRC / "flagfq.py").read_text()
    assert uncalled(tmp_path) == ["padic.BlockMatrix.transpose"]


def test_every_allowed_name_is_still_defined():
    defined = {fn.name for path in SRC.glob("*.py") for _, fn in _definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined


def test_a_method_the_acceptance_test_names_only_by_its_bare_name_is_flagged(tmp_path):
    # the acceptance test reads some ``.rows``, which names no method; only
    # cli.padic_factor's typed ``p_part.rows`` (a BlockMatrix unpacked from
    # factor_P_Gamma1's result) names BlockMatrix.rows
    assert ".rows" in ACCEPTANCE.read_text()
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    method = "    def rows(self):\n        return self.terms\n"
    (tmp_path / "satake.py").write_text(_with_method_after_last_field((SRC / "satake.py").read_text(), "LaurentPoly", method))
    assert uncalled(tmp_path) == ["satake.LaurentPoly.rows"]


def _uses_numpy(tree: ast.AST) -> bool:
    """Whether a module imports numpy (by statement or by the module name as a
    string, as ``_lazy_module("numpy")`` does) or names ``np``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name.partition(".")[0] == "numpy" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
            (node.module or "").partition(".")[0] == "numpy" or any(alias.name == "np" for alias in node.names)
        ):
            return True
        if isinstance(node, ast.Name) and node.id == "np" or isinstance(node, ast.Attribute) and node.attr == "np":
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.partition(".")[0] == "numpy":
            return True
    return False


def test_only_the_f_q_stack_modules_use_numpy():
    # matrices over Z/p^r (ordcoh) and over Q (padic) are Python rows
    users = {path.stem for path in SRC.glob("*.py") if _uses_numpy(ast.parse(path.read_text()))}
    assert users == {"flagfq", "kernels"}


def test_a_numpy_use_is_seen():
    for source in [
        "from .kernels import np, rref_rows",
        "import numpy",
        "import numpy.linalg as la",
        "from numpy import zeros",
        "x = kernels.np.zeros(2)",
        "def f(a: np.ndarray): pass",
        "m = _lazy_module('numpy')",
    ]:
        assert _uses_numpy(ast.parse(source)), source
    assert not _uses_numpy(ast.parse("from .kernels import rref_rows\nnumbers = 1  # numpy"))


def _matmul_sites(tree: ast.Module, module: str) -> list[str]:
    """``module.name`` for each ``@`` or ``@=`` in a module, named by the
    top-level function or class around it (``<module>`` outside any)."""
    sites = []
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        sites += [
            f"{module}.{name}"
            for node in ast.walk(top)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        ]
    return sites


def test_only_the_stack_kernel_multiplies_with_matmul():
    # a single matrix is tuple rows, multiplied by kernels._mat_mul or _mul_mod
    sites = [site for path in sorted(SRC.glob("*.py")) for site in _matmul_sites(ast.parse(path.read_text()), path.stem)]
    assert sites == ["kernels.matmul_mod"]


def test_a_matmul_is_seen():
    assert _matmul_sites(ast.parse("def f(a, b):\n    return (a @ b) % 2"), "m") == ["m.f"]
    assert _matmul_sites(ast.parse("class C:\n    def g(self, b):\n        self.a @= b"), "m") == ["m.C"]
    assert _matmul_sites(ast.parse("x = a @ b"), "m") == ["m.<module>"]
    assert _matmul_sites(ast.parse("def f(a, b):\n    return a * b"), "m") == []


def test_flagfq_builds_no_single_matrix_in_numpy():
    # the generators, Weyl lifts and J are tuple rows; numpy holds only stacks and codes there
    tree = ast.parse((SRC / "flagfq.py").read_text())
    calls = [
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and node.func.attr in {"eye", "zeros", "stack"}
    ]
    assert calls == []
