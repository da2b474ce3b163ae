"""A linear combination of products is one MultiPoly.sum_of_products call.

A hand loop `acc = acc + a * b` copies the accumulator's terms on every step,
and so does `sum(<generator>, start)` on polynomials.  In every module of
src/gfrob, poly.py included, the lint flags an assignment `x = x + a * b` or
`x = x - a * b` whose left operand repeats the target, and a call of `sum` on
a generator of any element that starts from a polynomial: a `MultiPoly.*`
call, or a name the module binds to one.  Augmented assignments such as a
scalar `s += a * b`, and scalar sums, which start from the Fraction ZERO, are
out of its scope.

Tensors accumulate juxtapositions into one dict of integer numerators, as
braided.circ_product does, so the lint also flags `x = x + a.juxt(b)`,
`x = x - a.juxt(b)` and `x += a.juxt(b)`: Tensor has no in-place addition,
so each copies too.

A keyed sum of terms is one linalg.accumulate call, so in src/gfrob the lint
flags the hand-written shapes `d[k] = d.get(k, z) + x` and
`d[k] = d[k] + x if k in d else x`, outside `accumulate` itself and the
inline kernels that KEYED_SUM_KERNELS names with the reason each keeps its
own loop.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gfrob"

# (module, function) -> why its keyed sum stays inline
KEYED_SUM_KERNELS = {
    ("linalg.py", "accumulate"): "the one keyed sum",
    ("linalg.py", "apply"): "the matrix-vector kernel behind every module validation; through accumulate the 216 "
    "applies of one S3-module validation took 194-269 us against 123-127 us",
    ("braided.py", "_braidize_numerators"): "the basepoint sums of the braidization kernel, on integer numerators",
    ("braided.py", "br_basis"): "the rows of s - 1, built in place one entry at a time",
    ("braided.py", "circ_product"): "the integer juxtapositions of one degree, summed in place",
    ("serialize.py", "_terms"): "it keeps a zero sum, so poly_from_json still refuses an exponent of 2^31 or more "
    "that carries a zero coefficient",
}


def _is_product(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def _is_juxt(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "juxt"


def _hand_accumulation(node: ast.AST, is_term) -> bool:
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return False
    value = node.value
    return (
        isinstance(value, ast.BinOp)
        and isinstance(value.op, (ast.Add, ast.Sub))
        and is_term(value.right)
        and ast.unparse(value.left) == ast.unparse(node.targets[0])
    )


def _juxt_accumulation(node: ast.AST) -> bool:
    augmented = isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)) and _is_juxt(node.value)
    return augmented or _hand_accumulation(node, _is_juxt)


def _makes_poly(node: ast.AST) -> bool:
    """A call of a MultiPoly constructor, such as MultiPoly.zero(names)."""
    func = getattr(node, "func", None)
    return isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "MultiPoly"


def _poly_sum(node: ast.AST, poly_names: set[str]) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"):
        return False
    starts = node.args[1:] + [k.value for k in node.keywords if k.arg == "start"]
    poly_start = any(_makes_poly(s) or isinstance(s, ast.Name) and s.id in poly_names for s in starts)
    return poly_start and isinstance(node.args[0], ast.GeneratorExp)


def hand_accumulations(src: Path) -> list[str]:
    """file:line of every hand-written accumulation of products or juxtapositions, and of every polynomial sum()."""
    out = []
    for path in sorted(src.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        poly_names = {
            t.id for node in nodes if isinstance(node, ast.Assign) and _makes_poly(node.value)
            for t in node.targets if isinstance(t, ast.Name)
        }
        lines = sorted(
            node.lineno for node in nodes
            if _juxt_accumulation(node) or _hand_accumulation(node, _is_product) or _poly_sum(node, poly_names)
        )
        out += [f"{path.name}:{line}" for line in lines]
    return out


def test_every_product_accumulation_calls_sum_of_products():
    assert hand_accumulations(SRC) == [], "accumulate with MultiPoly.sum_of_products, or tensors in one integer dict"


def test_lint_sees_hand_accumulations(tmp_path):
    (tmp_path / "poly.py").write_text("acc = acc + a * b\n")
    (tmp_path / "a.py").write_text(
        "acc = acc + a * b\n"
        "out[i + j] = out[i + j] - lead * fp[i]\n"
        "acc = acc + u * s * g[k]\n"
        "zero = MultiPoly.zero(names)\n"
        "m = sum((x * y for x, y in terms), zero)\n"
        "m = sum((x * y for x, y in terms), start=MultiPoly.zero())\n"
        "s += a * b\n"
        "acc = other + a * b\n"
        "acc = acc + b\n"
        "acc = a * b + acc\n"
        "total = sum(x * y for x, y in terms)\n"
        "total = sum([x * y for x, y in terms], zero)\n"
        "total = sum((x for x in terms), zero)\n"
        "total = sum((x * y for x, y in terms), ZERO)\n"
    )
    (tmp_path / "b.py").write_text("def f(p):\n    return sum((q * c for q, c in p), MultiPoly.zero())\n")
    assert hand_accumulations(tmp_path) == ["a.py:1", "a.py:2", "a.py:3", "a.py:5", "a.py:6", "a.py:13", "b.py:2", "poly.py:1"]


def test_lint_sees_juxtaposition_accumulations(tmp_path):
    (tmp_path / "poly.py").write_text("acc = acc + xm.juxt(yn)\n")
    (tmp_path / "a.py").write_text(
        "acc = acc + xm.juxt(yn)\n"
        "acc = acc - xm.juxt(yn)\n"
        "acc += xm.juxt(yn)\n"
        "parts[d] = parts[d] + x.part(m).juxt(y.part(d - m))\n"
        "acc = xm.juxt(yn)\n"
        "acc = other + xm.juxt(yn)\n"
        "acc = xm.juxt(yn) + acc\n"
        "acc *= xm.juxt(yn)\n"
        "acc = acc + juxt(xm, yn)\n"
    )
    assert hand_accumulations(tmp_path) == ["a.py:1", "a.py:2", "a.py:3", "a.py:4", "poly.py:1"]


def _with_function(node: ast.AST, name: str = "<module>"):
    """Every node below node, with the name of the nearest def that holds it."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
        yield child, name
        yield from _with_function(child, inner)


def _keyed_sum(node: ast.AST) -> bool:
    """`d[k] = d.get(k, z) + x` or `d[k] = d[k] + x if k in d else x`."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Subscript)):
        return False
    target, value = node.targets[0], node.value
    d, k = ast.unparse(target.value), ast.unparse(target.slice)
    if isinstance(value, ast.IfExp):
        test, body = value.test, value.body
        return (
            isinstance(test, ast.Compare) and isinstance(test.ops[0], ast.In) and len(test.ops) == 1
            and ast.unparse(test.left) == k and ast.unparse(test.comparators[0]) == d
            and isinstance(body, ast.BinOp) and isinstance(body.op, ast.Add)
            and ast.unparse(body.left) == ast.unparse(target) and ast.unparse(body.right) == ast.unparse(value.orelse)
        )
    get = getattr(value, "left", None)
    return (
        isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)
        and isinstance(get, ast.Call) and isinstance(get.func, ast.Attribute) and get.func.attr == "get"
        and ast.unparse(get.func.value) == d and len(get.args) == 2 and ast.unparse(get.args[0]) == k
    )


def keyed_sums(src: Path) -> list[str]:
    """`file:line function` of every hand-written keyed sum in src."""
    out = []
    for path in sorted(src.glob("*.py")):
        found = [(node.lineno, fn) for node, fn in _with_function(ast.parse(path.read_text())) if _keyed_sum(node)]
        out += [f"{path.name}:{line} {fn}" for line, fn in sorted(found)]
    return out


def test_every_keyed_sum_calls_accumulate():
    found = keyed_sums(SRC)
    stray = [f for f in found if (f.split(":")[0], f.split()[1]) not in KEYED_SUM_KERNELS]
    assert stray == [], "sum (key, value) terms with linalg.accumulate, or name the kernel in KEYED_SUM_KERNELS"
    kernels = {(f.split(":")[0], f.split()[1]) for f in found}
    assert kernels == set(KEYED_SUM_KERNELS), "a listed kernel no longer holds a keyed sum: drop it from the list"


def test_lint_sees_keyed_sums(tmp_path):
    (tmp_path / "a.py").write_text(
        "out[i] = out.get(i, 0) + x * y\n"
        "def f(terms):\n"
        "    terms[tup] = terms.get(tup, Fraction(0)) + weight\n"
        "    out[key] = out[key] + x if key in out else x\n"
        "    def g():\n"
        "        acc[i1 + i2] = acc.get(i1 + i2, 0) + c1 * c2\n"
        "    out[key] = out[key] + x if key in other else x\n"
        "    out[key] = out[key] + x if key in out else y\n"
        "    out[key] = out.get(other, 0) + x\n"
        "    out[key] = other.get(key, 0) + x\n"
        "    out[key] = out.get(key, 0) - x\n"
        "    y = target.get(c, 0) - f * x\n"
        "    prev = out.get(key)\n"
        "    out[key] = pc if prev is None else prev + pc\n"
    )
    (tmp_path / "b.py").write_text("class T:\n    def add(self, d):\n        d[k] = d.get(k, z) + x\n")
    assert keyed_sums(tmp_path) == ["a.py:1 <module>", "a.py:3 f", "a.py:4 f", "a.py:6 g", "b.py:3 add"]
