"""Every module-level memo in src/gfrob is one that the benchmark clears.

perfbench's cache_resetters clears each gfrob module-level dict whose name
contains "cache" before every cold job.  A memo under another name would
survive that reset, so a cold workload would run warm and show a gain that
no user sees.  So every name bound at module level to an empty {}, [],
set() or dict() must contain "cache".  The one exception is poly's variable
registry, which is never cleared: a cleared registry would unpack the packed
monomials of live polynomials wrongly.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gfrob"
NOT_CLEARED = {"poly._offsets"}


def _empty_container(node: ast.expr | None) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("dict", "set")
        and not node.args and not node.keywords
    )


def uncleared_memos(src: Path) -> list[str]:
    """module.name for each module-level empty container whose name lacks "cache"."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if _empty_container(value):
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                out += [f"{path.stem}.{name}" for name in names if "cache" not in name]
    return sorted(set(out) - NOT_CLEARED)


def test_every_module_level_memo_is_named_cache():
    assert uncleared_memos(SRC) == [], "name it *cache* so perfbench clears it before cold jobs"


def test_lint_sees_memos_under_other_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "_memo = {}\n"
        "_seen: set[int] = set()\n"
        "_queue = []\n"
        "table = dict()\n"
        "_orbit_cache: dict = {}\n"
        "_items_cache = []\n"
        "FIXED = {1: 2}\n"
        "_guard = [0]\n"
        "COPY = dict(FIXED)\n"
        "def f():\n"
        "    local = {}\n"
        "    return local\n"
    )
    (tmp_path / "poly.py").write_text("_offsets: dict[str, int] = {}\n")
    assert uncleared_memos(tmp_path) == ["a._memo", "a._queue", "a._seen", "a.table"]
