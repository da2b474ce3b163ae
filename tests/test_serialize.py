import inspect
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gfrob import Tensor, cyclic_group, dual_module, serialize, symmetric_group
from gfrob.errors import GfrobError
from gfrob.groupoid import max_digits
from gfrob.serialize import (
    ParseError,
    frac_from_str,
    frac_to_str,
    gfa_from_json,
    group_from_json,
    group_to_json,
    module_from_json,
    module_to_json,
    poly_to_json,
    potential_to_json,
    tensor_from_json,
    tensor_to_json,
)
from gfrob.singularity import potential_A, z2_frobenius_algebra

from conftest import gfa_to_json


def test_fraction_strings():
    assert frac_to_str(Fraction(-3, 7)) == "-3/7"
    assert frac_to_str(Fraction(2)) == "2/1"
    assert frac_from_str("-3/7") == Fraction(-3, 7)
    assert frac_from_str("5") == Fraction(5)
    assert frac_from_str(4) == Fraction(4)
    with pytest.raises(ParseError):
        frac_from_str("1/0")
    with pytest.raises(ParseError):
        frac_from_str("pi")


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def frac_from_str_reference(s):
    """The earlier body of frac_from_str: every string goes through Fraction's own parser."""
    try:
        if type(s) is int:
            return Fraction(s)
        if isinstance(s, str):
            exp = _EXPONENT.search(s)
            if exp and abs(int(exp[1])) > max_digits():
                raise ParseError(f"bad rational {s!r}: exponent exceeds {max_digits()} in magnitude")
            return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from None
    raise ParseError(f"bad rational {s!r}")


def _outcome(parse, s):
    try:
        return parse(s)
    except ParseError as exc:
        return ("ParseError", str(exc))


_LIMIT = max_digits()
_digits = st.one_of(
    st.text("0123456789", min_size=1, max_size=6),
    st.text("0123456789\u0663\uff11\u0967_", min_size=0, max_size=4),  # Arabic-Indic, fullwidth, Devanagari
    st.sampled_from(["0", "00", "007", "1" * _LIMIT, "1" * (_LIMIT + 1), "9" * (_LIMIT + 5)]),
)
_space = st.sampled_from(["", " ", "\t", "\n", "\u00a0"])
_signs = st.sampled_from(["", "-", "+", "--", "\u2212"])
_rationals = st.one_of(
    st.builds(lambda a, sign, p, q, b: f"{a}{sign}{p}/{q}{b}", _space, _signs, _digits, _digits, _space),
    st.builds(lambda sign, p: f"{sign}{p}", _signs, _digits),
    st.sampled_from([
        "1/0", "-1/0", "-0/1", "0/0", "-0/0", "007/010", "+1/2", " 1/2 ", "1/2\n", "1 / 2", "1/-2", "1e5", "1/2e3",
        "1.5", "1/2x", "1/2/3", "12/34 5", "\u0661/\u0662", "\uff11/2", "1_0/3", "", "/", "-/1", "1/",
    ]),
    st.text(max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(_rationals)
def test_frac_from_str_matches_fractions_parser(s):
    assert _outcome(frac_from_str, s) == _outcome(frac_from_str_reference, s)


def test_group_round_trip():
    for g in (cyclic_group(4), symmetric_group(3)):
        assert group_from_json(group_to_json(g)) == g


def test_module_round_trip():
    h = z2_frobenius_algebra(4).module
    assert module_from_json(module_to_json(h)) == h
    assert module_from_json(module_to_json(dual_module(h))) == dual_module(h)


def test_tensor_round_trip():
    rng = random.Random(0)
    for _ in range(10):
        t = Tensor(3, {
            tuple(rng.randrange(4) for _ in range(3)): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(4)
        })
        assert tensor_from_json(tensor_to_json(t)) == t


def test_gfa_round_trip():
    alg = z2_frobenius_algebra(3)
    back = gfa_from_json(gfa_to_json(alg))
    assert back.module == alg.module
    assert back.metric == alg.metric
    assert back.mult == alg.mult
    assert back.unit == alg.unit


def test_malformed_inputs():
    with pytest.raises(ParseError):
        group_from_json({"order": 2})
    with pytest.raises(ParseError):
        module_from_json({"dim": 2})
    with pytest.raises(ParseError):
        tensor_from_json([1, 2, 3])
    with pytest.raises(ParseError):
        group_from_json({"table": None})
    with pytest.raises(ParseError):
        group_from_json({"table": [0, 1]})
    with pytest.raises(ParseError):
        module_from_json({**module_to_json(z2_frobenius_algebra(3).module), "degrees": ["x", 0, 0, 1]})


@pytest.mark.parametrize("degrees", [[0, 0, 1.9, 1], "0001", [0, 0, True, 1]])
def test_module_degrees_are_not_coerced(degrees):
    """A float, a digit string or a bool is not a degree; int() would read each as one."""
    good = module_to_json(z2_frobenius_algebra(3).module)
    assert module_from_json(good).degrees == (0, 0, 0, 1)
    with pytest.raises(ParseError, match="degrees"):
        module_from_json({**good, "degrees": degrees})


BOOLEAN_WITNESSES = [
    ("exponent", serialize.poly_from_json, {"vars": ["x"], "terms": [{"exp": [True], "coef": "1"}]}),
    ("index", tensor_from_json, {"n": 2, "terms": [{"idx": [0, False], "coef": "1"}]}),
    ("tensor degree", tensor_from_json, {"n": True, "terms": [{"idx": [0], "coef": "1"}]}),
    ("coefficient", tensor_from_json, {"n": 1, "terms": [{"idx": [0], "coef": True}]}),
    ("rational", frac_from_str, True),
    ("embedding", lambda obj: serialize.embedding_from_json(obj, 3), [True, 0]),
    ("group table", group_from_json, {"order": 2, "table": [[0, True], [True, 0]]}),
]


@pytest.mark.parametrize("what, parse, obj", BOOLEAN_WITNESSES, ids=[w[0] for w in BOOLEAN_WITNESSES])
def test_json_booleans_are_not_integers(what, parse, obj):
    """bool is an int subclass in Python; a JSON true where an integer belongs is malformed."""
    with pytest.raises(ParseError):
        parse(obj)


def test_boolean_tensor_degree_exits_3(tmp_path, capsys):
    from gfrob.cli import main

    module = tmp_path / "module.json"
    module.write_text(json.dumps(module_to_json(z2_frobenius_algebra(3).module)))
    tensor = tmp_path / "tensor.json"
    tensor.write_text(json.dumps({"n": True, "terms": [{"idx": [0], "coef": "1"}]}))
    assert main(["braidize", "--module", str(module), "--tensor", str(tensor)]) == 3
    assert "tensor degree" in capsys.readouterr().err


# -- every parser on arbitrary JSON -------------------------------------------

FIELDS = (
    "table", "order", "group", "dim", "degrees", "action", "vars", "terms", "exp",
    "coef", "n", "idx", "matrix", "names", "potential", "poly", "metric", "mult",
    "unit", "0", "1",
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.sampled_from(["0", "1", "-1/2", "1/0", "x", "t_0", " 3 "])
)
arbitrary_json = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=30,
)

_ALG = z2_frobenius_algebra(3)
_A3 = potential_A(3)
_GFA = gfa_to_json(_ALG)
VALID_DOCUMENTS = {
    "group_from_json": group_to_json(_ALG.module.group),
    "module_from_json": module_to_json(_ALG.module),
    "gfa_from_json": _GFA,
    "tensor_from_json": tensor_to_json(Tensor(3, {(0, 1, 3): Fraction(1, 2)})),
    "module_tensor_from_json": tensor_to_json(Tensor(2, {(2, 3): Fraction(-1)})),
    "poly_from_json": poly_to_json(_A3.poly),
    "potential_from_json": potential_to_json(_A3),
    "fmdata_from_json": {**potential_to_json(_A3), "metric": [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]},
    "matrix_from_json": _GFA["metric"],
    "square_matrix_from_json": {"matrix": _GFA["metric"]},
    "vector_from_json": _GFA["unit"],
    "embedding_from_json": [0, 2],
}
PARSERS = sorted(name for name in dir(serialize) if name.endswith("_from_json"))
EXTRA_ARGS = {"module": _ALG.module, "dim": _ALG.dim, "size": _ALG.dim}


def _mutated(draw, doc):
    """doc with one node replaced by arbitrary JSON, found by a random descent
    that stops at each level with even odds, so shallow fields are hit often."""
    keys = list(doc) if isinstance(doc, dict) else list(range(len(doc))) if isinstance(doc, list) else []
    if not keys or draw(st.booleans()):
        return draw(arbitrary_json)
    key = draw(st.sampled_from(keys))
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[key] = _mutated(draw, doc[key])
    return out


def _parse(name, obj):
    parse = getattr(serialize, name)
    return parse(obj, *[EXTRA_ARGS[p] for p in list(inspect.signature(parse).parameters)[1:]])


def test_every_parser_is_fuzzed():
    assert set(PARSERS) == set(VALID_DOCUMENTS)
    for name in PARSERS:
        _parse(name, VALID_DOCUMENTS[name])


@pytest.mark.parametrize("name", PARSERS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_parsers_raise_only_gfrob_errors(name, data):
    # arbitrary JSON, or a valid document for the parser with one node replaced
    try:
        _parse(name, _mutated(data.draw, VALID_DOCUMENTS[name]))
    except GfrobError:
        pass


# -- the canonical writer -----------------------------------------------------

# Strings with non-ASCII text, quotes, backslashes and control characters; ints negative and past 64 bits;
# floats, which the writer hands to json.dumps one at a time.
writer_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-10**40, 10**40)
    | st.floats()
    | st.text(max_size=8)
    | st.text(alphabet='"\\\x00\x1f\x7f/é€\U0001f600\n\t\r ', max_size=6)
)
writer_values = st.recursive(
    writer_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(), max_size=5)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(writer_values)
def test_dumps_writes_the_bytes_of_json_dumps(value):
    assert serialize.dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_dumps_rewrites_every_golden_report_byte_for_byte():
    goldens = sorted((pathlib.Path(__file__).parent / "golden").glob("*.json"))
    assert goldens
    for path in goldens:
        text = path.read_text()
        assert serialize.dumps(json.loads(text)) == text, path.name
