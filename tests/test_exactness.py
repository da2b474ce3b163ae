"""Every true division in the library, against a reviewed allowlist.

MultiPoly stores integral coefficients as Python ints, and int / int is a
float.  A `/` is exact only when its left operand is a Fraction, so each one
in src/gfrob is listed here with the reason it is.  A new `/` (or `/=`)
fails this test until it is reviewed and added.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gfrob"

# (file, source text of the division) -> why the left operand is a Fraction
ALLOWED = {
    ("braided.py", "weight /= factorial(n)"): "weight starts as Fraction(c) in form_from_poly",
}


def divisions(text: str) -> list[str]:
    """Source text of every `a / b` and `a /= b` in a module."""
    return [
        ast.get_source_segment(text, node)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]


def test_every_true_division_is_reviewed():
    found = {(path.name, seg) for path in sorted(SRC.glob("*.py")) for seg in divisions(path.read_text())}
    assert found - set(ALLOWED) == set(), "unreviewed true division; lift the left operand to Fraction"
    assert set(ALLOWED) - found == set(), "stale allowlist entry"


def test_lint_sees_both_forms():
    """The walk catches `a / b` and `a /= b`, and not `//` or `//=`."""
    assert sorted(divisions("x = a / b\ny //= 2\nz = c // d\nw /= 3\n")) == ["a / b", "w /= 3"]
