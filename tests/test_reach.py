"""The library holds only what its callers reach.

Every top-level function or class of `src/isoadams` must be used by
other library code, by a demo or by the benchmark harness.  Code that
only the tests call belongs in the tests, which keep it as their
reference (for example `cobar_products.py` and `hom_lemma.py`).

A name counts as used where it appears as an identifier, an attribute
or a whole string: in library code outside its own definition, and
anywhere in `demos/` or `perfbench/` (strings count because
`perfbench/spans.py` wraps functions by name, and `__init__.__all__`
lists the public names as strings).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tokens(node: ast.AST) -> set[str]:
    """The identifiers, attribute names and string constants in node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def unreached_names() -> list[str]:
    """The top-level functions and classes of the library that nothing
    outside the tests reaches, as `module.name`."""
    outside: set[str] = set()
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            outside |= _tokens(ast.parse(path.read_text()))
    # (module, name or None, tokens) for each top-level statement
    statements = []
    for path in sorted((ROOT / "src" / "isoadams").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            statements.append((path.stem, stmt.name if defines else None, _tokens(stmt)))
    # a name used only inside unreached definitions is unreached too
    unreached: set[int] = set()
    while True:
        found = {
            n
            for n, (_, name, _) in enumerate(statements)
            if name is not None
            and name not in outside
            and not any(name in tokens for m, (_, _, tokens) in enumerate(statements) if m != n and m not in unreached)
        }
        if found == unreached:
            return [f"{statements[n][0]}.{statements[n][1]}" for n in sorted(unreached)]
        unreached = found


def test_library_holds_no_test_only_code():
    assert unreached_names() == []
