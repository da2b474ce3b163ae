"""Canonical JSON encoding of every value the CLI reads or writes.

Rationals serialize as reduced "p/q" strings with positive q; terms and
keys are emitted in sorted order so identical inputs always produce
byte-identical output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Sequence

from . import linalg
from .errors import GfrobError, SizeLimit
from .frobenius import FmData, GFrobeniusAlgebra, Potential
from .groupoid import max_digits
from .groups import FiniteGroup, group_from_table
from .modules import GradedModule, Tensor
from .poly import MultiPoly


class ParseError(GfrobError):
    pass


def frac_to_str(x: Fraction) -> str:
    """"p/q"; SizeLimit where p or q has more digits than str() prints."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise SizeLimit(f"a rational in the result has more than {max_digits()} digits, too many to print") from None


def _is_int(x: Any) -> bool:
    """A JSON integer: bool is an int subclass in Python, but true is not 1 here."""
    return type(x) is int


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_CANONICAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


def frac_from_str(s: str | int) -> Fraction:
    """A JSON integer, or a string Fraction reads whose exponent is at most max_digits() in magnitude.

    Fraction builds 10^exponent; a larger one takes seconds and cannot be printed.
    A canonical "p/q" of ASCII digits skips Fraction's general string parser.
    """
    try:
        if _is_int(s):
            return Fraction(s)
        if isinstance(s, str):
            plain = _CANONICAL.fullmatch(s)
            if plain:
                return Fraction(int(plain[1]), int(plain[2]))
            exp = _EXPONENT.search(s)
            if exp and abs(int(exp[1])) > max_digits():
                raise ParseError(f"bad rational {s!r}: exponent exceeds {max_digits()} in magnitude")
            return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from None
    raise ParseError(f"bad rational {s!r}")


def matrix_to_json(m: Sequence[Sequence[Fraction]]) -> list[list[str]]:
    return [[frac_to_str(x) for x in row] for row in m]


def matrix_from_json(rows: Any) -> linalg.Mat:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError("matrix must be a list of rows")
    return tuple(tuple(frac_from_str(x) for x in row) for row in rows)


def vector_from_json(row: Any) -> linalg.Vec:
    if not isinstance(row, list):
        raise ParseError("vector must be a list")
    return tuple(frac_from_str(x) for x in row)


def group_to_json(g: FiniteGroup) -> dict:
    return {"order": g.order, "table": [list(row) for row in g.table]}


def group_from_json(obj: Any) -> FiniteGroup:
    if not isinstance(obj, dict) or "table" not in obj:
        raise ParseError("group object needs a 'table' field")
    table = obj["table"]
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise ParseError("group table must be a list of rows")
    if any(isinstance(x, bool) for r in table for x in r):
        raise ParseError("group table entries must be integers, not booleans")
    return group_from_table(table)


def poly_to_json(p: MultiPoly) -> dict:
    return {
        "vars": list(p.vars),
        "terms": [
            {"exp": list(exp), "coef": frac_to_str(c)} for exp, c in p.sorted_terms()
        ],
    }


def _names(obj: Any) -> tuple[str, ...]:
    if not isinstance(obj, list) or not all(isinstance(v, str) for v in obj) or len(set(obj)) != len(obj):
        raise ParseError(f"names must be a list of distinct strings, got {obj!r}")
    return tuple(obj)


def _terms(obj: dict, key: str, length: int) -> dict[tuple[int, ...], Fraction]:
    """Coefficients summed by key vector; each key must be `length` non-negative integers."""
    if not isinstance(obj["terms"], list):
        raise ParseError("'terms' must be a list")
    out: dict[tuple[int, ...], Fraction] = {}
    for t in obj["terms"]:
        if not isinstance(t, dict) or key not in t or "coef" not in t:
            raise ParseError(f"each term needs {key!r} and 'coef', got {t!r}")
        k = t[key]
        if not isinstance(k, list) or len(k) != length or not all(_is_int(x) and x >= 0 for x in k):
            raise ParseError(f"{key} {k!r} must be {length} non-negative integers")
        out[tuple(k)] = out.get(tuple(k), Fraction(0)) + frac_from_str(t["coef"])
    return out


def poly_from_json(obj: Any) -> MultiPoly:
    if not isinstance(obj, dict) or "vars" not in obj or "terms" not in obj:
        raise ParseError("polynomial object needs 'vars' and 'terms'")
    variables = _names(obj["vars"])
    return MultiPoly(variables, _terms(obj, "exp", len(variables)))


def module_to_json(h: GradedModule) -> dict:
    return {
        "group": group_to_json(h.group),
        "dim": h.dim,
        "degrees": list(h.degrees),
        "action": {str(g): matrix_to_json(h.action[g]) for g in h.group.elements()},
    }


def module_from_json(obj: Any) -> GradedModule:
    """A module of the right shape; the module axioms are a check, validate_module, left to the caller."""
    if not isinstance(obj, dict):
        raise ParseError("module must be an object")
    try:
        group = group_from_json(obj["group"])
        degrees = obj["degrees"]
        if not isinstance(degrees, list) or not all(_is_int(d) for d in degrees):
            raise ParseError(f"module degrees must be a list of integers, got {degrees!r}")
        if any(not 0 <= d < group.order for d in degrees):
            raise ParseError(f"module degrees must lie in range({group.order}), got {degrees!r}")
        action = [matrix_from_json(obj["action"][str(g)]) for g in group.elements()]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed module: {exc}") from None
    dim = len(degrees)
    if any(len(m) != dim or any(len(row) != dim for row in m) for m in action):
        raise ParseError(f"module action matrices must be {dim} x {dim}")
    return GradedModule(group, tuple(degrees), tuple(action))


def tensor_to_json(t: Tensor) -> dict:
    return {
        "n": t.n,
        "terms": [
            {"idx": list(idx), "coef": frac_to_str(c)} for idx, c in t.sorted_terms()
        ],
    }


def tensor_from_json(obj: Any) -> Tensor:
    if not isinstance(obj, dict) or "n" not in obj or "terms" not in obj:
        raise ParseError("tensor object needs 'n' and 'terms'")
    n = obj["n"]
    if not _is_int(n) or n < 0:
        raise ParseError(f"tensor degree must be a non-negative integer, got {n!r}")
    return Tensor(n, _terms(obj, "idx", n))


def module_tensor_from_json(obj: Any, module: GradedModule) -> Tensor:
    """A tensor whose every index is a basis vector of the module."""
    t = tensor_from_json(obj)
    if any(i >= module.dim for idx in t.terms for i in idx):
        raise ParseError(f"tensor index out of range for a module of dimension {module.dim}")
    return t


def square_matrix_from_json(obj: Any, dim: int) -> linalg.Mat:
    """A dim x dim matrix, given bare or as {"matrix": rows}."""
    m = matrix_from_json(obj["matrix"] if isinstance(obj, dict) and "matrix" in obj else obj)
    if len(m) != dim or any(len(row) != dim for row in m):
        raise ParseError(f"matrix must be {dim} x {dim}")
    return m


def potential_from_json(obj: Any) -> Potential:
    """{"names", "potential"}, whose names cover every variable the polynomial uses, or a bare polynomial."""
    if isinstance(obj, dict) and "names" in obj:
        poly, names = poly_from_json(obj.get("potential")), _names(obj["names"])
        stray = sorted(set(poly.compact().vars) - set(names))
        if stray:
            raise ParseError(f"potential uses variables {stray} that are not among its names")
        return Potential(names, poly)
    poly = poly_from_json(obj)
    return Potential(poly.vars, poly)


def potential_to_json(p: Potential) -> dict:
    return {"names": list(p.names), "potential": poly_to_json(p.poly)}


def gfa_from_json(obj: Any) -> GFrobeniusAlgebra:
    if not isinstance(obj, dict):
        raise ParseError("algebra must be an object")
    try:
        module = module_from_json(obj["module"])
        dim = module.dim
        metric = square_matrix_from_json(obj["metric"], dim)
        planes, unit = obj["mult"], vector_from_json(obj["unit"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed algebra: {exc}") from None
    if not isinstance(planes, list) or len(planes) != dim:
        raise ParseError(f"mult must be {dim} planes of {dim} x {dim}")
    if len(unit) != dim:
        raise ParseError(f"unit must have {dim} entries")
    mult = tuple(square_matrix_from_json(plane, dim) for plane in planes)
    return GFrobeniusAlgebra(module, metric, mult, unit)


def fmdata_from_json(obj: Any) -> FmData:
    """{"names", "potential", "metric"}: a named potential as potential_from_json reads it, and its metric."""
    if not isinstance(obj, dict) or not {"names", "potential", "metric"} <= set(obj):
        raise ParseError("Frobenius manifold data needs 'names', 'potential' and 'metric'")
    pot = potential_from_json(obj)
    return FmData(square_matrix_from_json(obj["metric"], len(pot.names)), pot)


def embedding_from_json(obj: Any, size: int) -> list[int]:
    """Distinct coordinate indices into a list of `size` names."""
    ok = isinstance(obj, list) and all(_is_int(i) and 0 <= i < size for i in obj)
    if not ok or len(set(obj)) != len(obj):
        raise ParseError(f"embedding must be a list of distinct integers in 0..{size - 1}, got {obj!r}")
    return obj


def dumps(obj: Any) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2) and a newline, without the stdlib's pure-Python encoder.

    json.dumps leaves its C encoder whenever indent is set.  This writer
    appends every piece to one list and joins it once.  It writes dicts with
    str keys, lists, tuples, str, int, bool and None; strings go through the
    C escaper json.dumps uses, and any other scalar goes to json.dumps on its
    own.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _write(obj: Any, pad: str, out: list[str]) -> None:
    """Append obj as json.dumps(sort_keys=True, indent=2) writes it, pad being the newline and indent of its line."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + _quote(key) + ": ")
            _write(value, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        if all(type(x) is int for x in obj):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + pad + "]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    else:
        out.append(json.dumps(obj))


def dumps_line(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
