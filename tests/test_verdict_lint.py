"""Every check in src/gfrob reports through one type, modules.Verdict.

A Verdict maps each check of an axiom list to its first witness or None, and
derives passed, failed and failure from that map.  A report class that keeps
its own `passed` or `failure` member restates its checks beside the map, so
the lint flags any class in src/gfrob, other than Verdict, whose body binds
either name: a field, an assignment or a method.  The exceptions below name
their reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gfrob"
EXCEPTIONS = {
    "Verdict": "the one verdict type",
    "WdvvReport": "keeps every violating tuple, which the benchmark's tracer counts; passed reads them",
}
NAMES = {"passed", "failure"}


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def verdict_restatements(src: Path) -> list[str]:
    """module.Class.name for each `passed` or `failure` member of a class outside EXCEPTIONS."""
    out = []
    for path in sorted(src.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and cls.name not in EXCEPTIONS:
                names = [name for node in cls.body for name in _bound_names(node) if name in NAMES]
                out += [f"{path.stem}.{cls.name}.{name}" for name in names]
    return out


def test_only_verdict_reports_passed_and_failure():
    assert verdict_restatements(SRC) == [], "return a modules.Verdict instead"


def test_lint_sees_report_classes(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Verdict:\n"
        "    checks: dict\n"
        "    @property\n"
        "    def passed(self): return True\n"
        "class WdvvReport:\n"
        "    @property\n"
        "    def passed(self): return True\n"
        "class SignReport:\n"
        "    symmetric: bool\n"
        "    failure: str | None = None\n"
        "    @property\n"
        "    def passed(self): return self.symmetric\n"
        "class Counter:\n"
        "    passed = 0\n"
        "    def count(self):\n"
        "        failure = None\n"
        "        return failure\n"
    )
    assert verdict_restatements(tmp_path) == ["a.SignReport.failure", "a.SignReport.passed", "a.Counter.passed"]
