"""Every module-level memo in src/gfrob is one that the benchmark clears.

perfbench's cache_resetters clears each gfrob module-level dict whose name
contains "cache" before every cold job.  A memo under another name would
survive that reset, so a cold workload would run warm and show a gain that
no user sees.  So every name bound at module level to an empty {}, [],
set() or dict() must contain "cache".  The one exception is poly's variable
registry, which is never cleared: a cleared registry would unpack the packed
monomials of live polynomials wrongly.

perfbench clears each lru cache that a gfrob module holds as a module-level
attribute, and only a finite maxsize bounds what a long process keeps.  So
every functools.lru_cache in src/gfrob decorates a module-level function and
is given an integer maxsize, and functools.cache, which never evicts, is not
used.
"""

import ast
import itertools
from pathlib import Path

from gfrob import groupoid

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


def _cache_refs(tree: ast.Module) -> dict[str, str]:
    """Local name -> "lru_cache" or "cache", for each of the two imported from functools."""
    return {
        a.asname or a.name: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and node.module == "functools" for a in node.names if a.name in ("lru_cache", "cache")
    }


def _which(node: ast.AST, refs: dict[str, str]) -> str | None:
    if isinstance(node, ast.Name):
        return refs.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
        return node.attr if node.attr in ("lru_cache", "cache") else None
    return None


def _bounded(dec: ast.expr, refs: dict[str, str]) -> bool:
    """`lru_cache(<int>)` or `lru_cache(maxsize=<int>)`, other keywords allowed."""
    if not (isinstance(dec, ast.Call) and _which(dec.func, refs) == "lru_cache"):
        return False
    sizes = dec.args[:1] + [k.value for k in dec.keywords if k.arg == "maxsize"]
    return len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int


def unbounded_lru_caches(src: Path) -> list[str]:
    """file:line of each lru_cache or cache that is not a bounded lru_cache decorating a module-level function."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        refs = _cache_refs(tree)
        ok = {
            id(dec.func) for node in tree.body if isinstance(node, ast.FunctionDef)
            for dec in node.decorator_list if _bounded(dec, refs)
        }
        found = {node.lineno for node in ast.walk(tree) if _which(node, refs) and id(node) not in ok}
        out += [f"{path.name}:{line}" for line in sorted(found)]
    return out


def test_every_lru_cache_is_bounded_and_module_level():
    assert unbounded_lru_caches(SRC) == [], "decorate a module-level function with lru_cache(maxsize=<int>)"


def test_lint_sees_unbounded_and_nested_lru_caches(tmp_path):
    (tmp_path / "a.py").write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "from functools import lru_cache as memo\n"
        "@lru_cache(maxsize=16)\n"
        "def a(n): return n\n"
        "@lru_cache(8)\n"
        "def b(n): return n\n"
        "@functools.lru_cache(maxsize=4, typed=True)\n"
        "def c(n): return n\n"
        "@lru_cache(maxsize=None)\n"
        "def d(n): return n\n"
        "@lru_cache\n"
        "def e(n): return n\n"
        "@cache\n"
        "def f(n): return n\n"
        "@memo(maxsize=None)\n"
        "def g(n): return n\n"
        "@functools.cache\n"
        "def h(n): return n\n"
        "class K:\n"
        "    @lru_cache(maxsize=16)\n"
        "    def m(self): return 1\n"
        "def outer():\n"
        "    @lru_cache(maxsize=16)\n"
        "    def inner(n): return n\n"
        "    return inner\n"
        "i = lru_cache(maxsize=16)(len)\n"
        "@lru_cache(maxsize=SIZE)\n"
        "def j(n): return n\n"
    )
    (tmp_path / "b.py").write_text("def k(cache, lru_cache):\n    return cache(lru_cache)\n")
    assert unbounded_lru_caches(tmp_path) == [
        "a.py:10", "a.py:12", "a.py:14", "a.py:16", "a.py:18", "a.py:21", "a.py:24", "a.py:27", "a.py:28",
    ]


def test_groupoid_holds_no_table_but_its_orbit_cache(z2, s3):
    # a generator or point table kept at module level would survive perfbench's
    # cold-job reset, which clears only lru caches and dicts named *cache*
    for g, n in ((z2, 4), (s3, 3)):
        list(groupoid.components(g, itertools.product(range(g.order), repeat=n)))
    held = {
        name for name, value in vars(groupoid).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }
    assert held == {"_orbit_cache"}
