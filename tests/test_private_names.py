"""No module in src/gfrob reaches into another module's private names.

A `_`-prefixed name is an implementation detail of the module that defines
it: MultiPoly's monomial format stays inside poly.py, a potential's partials
inside Potential.  Each module may import only public names from the other
gfrob modules, and may read `X._name` only on `self`, `cls` or a class that
it defines itself.  Dunder names are not private.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gfrob"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(text: str) -> list[str]:
    """Each private import from a gfrob module and each foreign `X._name` read, as source text."""
    tree = ast.parse(text)
    own = {"self", "cls"} | {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "gfrob"):
            out += [f"from {'.' * node.level}{node.module or ''} import {a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            if not (isinstance(node.value, ast.Name) and node.value.id in own):
                out.append(ast.get_source_segment(text, node))
    return out


def test_no_module_uses_another_modules_private_names():
    found = {(path.name, seg) for path in sorted(SRC.glob("*.py")) for seg in private_reaches(path.read_text())}
    assert found == set(), "use or add a public name instead"


def test_lint_sees_private_imports_and_reads():
    text = (
        "from .frobenius import Potential, _third_partials\n"
        "from gfrob.poly import _declare\n"
        "from fractions import _gcd\n"
        "class Own:\n"
        "    def f(self, other):\n"
        "        return self._a, cls._b, Own._c, MultiPoly._from_pairs, other._d, groupoid._cache, x.__dict__\n"
    )
    assert private_reaches(text) == [
        "from .frobenius import _third_partials",
        "from gfrob.poly import _declare",
        "MultiPoly._from_pairs",
        "other._d",
        "groupoid._cache",
    ]
