"""The library is what the reports and the acceptance criteria run.

Every module-level function and every non-dunder method in
``src/bruhat_satake`` must be named somewhere in the library outside its
own body, or in ``tests/test_acceptance.py``.  A command body registered by
a ``cli`` decorator is reached through that registration.  Oracles and
helpers that only tests call live in ``tests/``.
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
    named = sum(map(_named, modules.values()), Counter())
    criteria = set(_named(ast.parse(acceptance.read_text())))
    candidates = {
        f"{module}.{qualname}": fn
        for module, tree in modules.items()
        for qualname, fn in _definitions(tree)
        if fn.name not in ALLOWED and not _registered(fn) and fn.name not in criteria
    }
    flagged: list[str] = []
    while True:
        fresh = [name for name, fn in candidates.items() if named[fn.name] - _named(fn)[fn.name] <= 0]
        if not fresh:
            return sorted(flagged)
        for name in fresh:
            named -= _named(candidates.pop(name))  # what only an uncalled body names is uncalled too
        flagged += fresh


def test_every_library_function_has_a_caller():
    assert uncalled() == []


def test_a_function_only_tests_call_is_flagged(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    extra = "\n\ndef orphan(x):\n    return orphan(x - 1) if x else 0\n"
    (tmp_path / "weyl.py").write_text((SRC / "weyl.py").read_text() + extra)
    assert uncalled(tmp_path) == ["weyl.orphan"]


def test_every_allowed_name_is_still_defined():
    defined = {fn.name for path in SRC.glob("*.py") for _, fn in _definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined
