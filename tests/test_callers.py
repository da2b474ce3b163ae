"""Every public function and class in src/gfrob has a caller outside the tests.

A public module-level function or class must be referenced by another line
of src/gfrob, referenced by the benchmark under perfbench/, or imported in
gfrob/__init__.py, which makes it public API (the README names each such
group).  A helper that only tests call belongs in the tests, as an oracle or
a fixture.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gfrob"


def public_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def references(tree: ast.Module) -> set[str]:
    """Names read, attributes read and names imported, leaving out each definition's uses of itself."""
    out: set[str] = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
                out.add(node.name)
            else:
                continue
            if name != own:
                out.add(name)
    return out


def uncalled(src: Path, bench: Path) -> list[str]:
    """module.name for each public definition in src that nothing outside the tests reaches."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = set().union(*(references(tree) for tree in trees.values()))
    used |= set().union(*(references(ast.parse(path.read_text())) for path in sorted(bench.glob("*.py"))))
    return [f"{mod}.{name}" for mod, tree in trees.items() for name in public_definitions(tree) if name not in used]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled(SRC, ROOT / "perfbench") == [], "export it from gfrob/__init__.py or move it into the tests"


def test_lint_sees_uncalled_and_self_only_definitions(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .a import exported\n")
    (src / "a.py").write_text(
        "def exported(): pass\n"
        "def helper(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def selfish(n): return selfish(n - 1)\n"
        "def orphan(): pass\n"
        "class Used: pass\n"
        "def _private(): pass\n"
        "X: Used = helper()\n"
    )
    (src / "b.py").write_text("from . import a\n\ndef benched(): return a.recursive\n")
    (bench / "run.py").write_text("import gfrob\n\ngfrob.b.benched()\n")
    assert uncalled(src, bench) == ["a.selfish", "a.orphan"]
