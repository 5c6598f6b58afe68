from fractions import Fraction

import pytest

from salemk3 import codec
from salemk3.lattices import lattice_E8
from salemk3.polynomials import IntPolynomial
from salemk3.positivity import ObstructionReport

QUAD = IntPolynomial([1, -3, 1])


@pytest.mark.parametrize(
    "text, value",
    [("0", 0), ("7", 7), ("-12", -12), ("123456789012345678901234567890", 123456789012345678901234567890)],
)
def test_integer_grammar_accepts(text, value):
    assert codec.integer(text, "x") == value
    assert codec.rational(text, "x") == value


@pytest.mark.parametrize(
    "data",
    ["-0", "007", "+1", "1_0", " 3", "3 ", "", "1.5", "1e2", "١", 3, 3.0, True, None],
)
def test_integer_grammar_rejects(data):
    with pytest.raises(ValueError, match=r"x\[1\]"):
        codec.array(codec.integer)(["1", data], "x")


@pytest.mark.parametrize(
    "text, value",
    [("3/2", Fraction(3, 2)), ("-5/7", Fraction(-5, 7)), ("-4", Fraction(-4))],
)
def test_rational_grammar_accepts(text, value):
    assert codec.rational(text, "x") == value


@pytest.mark.parametrize(
    "data",
    ["2/4", "3/1", "1/0", "0/5", "-0/3", "3/-2", "1/-1", "+1/2", "1.5", "1e2", " 3", "1_0/3", "1/2/3", 1, None],
)
def test_rational_grammar_rejects(data):
    with pytest.raises(ValueError, match="x"):
        codec.rational(data, "x")


@pytest.mark.parametrize(
    "reader, text",
    [
        (codec.integer, "1" + "0" * 5000),
        (codec.rational, "1" + "0" * 5000),
        (codec.rational, "-7/1" + "0" * 5000),
    ],
    ids=["integer", "rational", "denominator"],
)
def test_oversized_integer_strings_name_their_field(reader, text):
    # past the interpreter's int_max_str_digits (4,300 by default)
    path = "certificate.lattice.gram[0][0]"
    with pytest.raises(ValueError, match=r"^certificate\.lattice\.gram\[0\]\[0\]: .*digits"):
        reader(text, path)


@pytest.mark.parametrize(
    "reader, good, bad",
    [
        (codec.json_int, 22, [22.0, "22", True, None]),
        (codec.positive_int, 1, [0, -1, 1.5, False]),
        (codec.boolean, False, ["false", 0, None]),
        (codec.choice("a", "b"), "b", ["c", 1, None, ["a"]]),
        (codec.string, "k3", [3, None, ["k3"]]),
    ],
)
def test_typed_readers(reader, good, bad):
    assert reader(good, "x") == good
    for data in bad:
        with pytest.raises(ValueError, match="x"):
            reader(data, "x")


def test_fields_requires_the_exact_key_set():
    table = {"a": codec.json_int, "b": codec.nullable(codec.boolean)}
    assert codec.fields({"a": 1, "b": None}, table, "doc") == {"a": 1, "b": None}
    for data, message in [
        ({"a": 1}, "missing"),
        ({"a": 1, "b": True, "c": 0}, "unknown"),
        ([1, True], "object"),
        ({"a": "1", "b": True}, r"doc\.a"),
    ]:
        with pytest.raises(ValueError, match=message):
            codec.fields(data, table, "doc")


def test_loads_rejects_duplicate_keys_and_non_finite_numbers():
    assert codec.loads('{"a":[1,2.5]}') == {"a": [1, 2.5]}
    with pytest.raises(ValueError, match="duplicate key 'a'"):
        codec.loads('{"b":{"a":1,"a":1}}')
    for text in ("NaN", "[Infinity]", '{"a":-Infinity}'):
        with pytest.raises(ValueError, match="non-finite"):
            codec.loads(text)


def test_load_names_a_missing_file(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(ValueError, match=f"^input file not found: {path}$"):
        codec.load(str(path))


def test_report_with_witnesses_round_trips():
    rep = ObstructionReport("not_positive", (((1, -2, 0), "geodesic"), ((0, 1, 1), "cyclic")), "cyclic_only")
    assert codec.report(codec.report_to_json(rep), "r") == rep
    doc = codec.report_to_json(rep)
    doc["witnesses"][1]["kind"] = "other"
    with pytest.raises(ValueError, match=r"^r\.witnesses\[1\]\.kind: "):
        codec.report(doc, "r")


def test_dumps_is_canonical():
    assert codec.dumps({"b": [1, None], "a": {"d": "x", "c": True}}) == '{"a":{"c":true,"d":"x"},"b":[1,null]}'


def test_poly_roundtrip():
    assert codec.poly(codec.poly_to_json(QUAD), "p").coeffs == QUAD.coeffs
    assert codec.poly_to_json(QUAD) == ["1", "-3", "1"]
    with pytest.raises(ValueError):
        codec.poly([1, 2], "p")  # not strings


def test_lattice_roundtrip():
    E8 = lattice_E8()
    doc = codec.lattice_to_json(E8)
    assert codec.lattice(doc, "L").gram == E8.gram
    with pytest.raises(ValueError):
        codec.lattice({"rank": 1, "gram": [["2"]], "extra": 1}, "L")
    for bad, where in [
        ({"rank": 1.0, "gram": [["2"]]}, r"L\.rank"),
        ({"rank": 2, "gram": [["2"]]}, r"L\.rank"),
        ({"rank": 1, "gram": [[2.4]]}, r"L\.gram\[0\]\[0\]"),
        ({"rank": 2, "gram": [["2", "1"], ["0", "2"]]}, r"L\.gram: .*symmetric"),
    ]:
        with pytest.raises(ValueError, match=where):
            codec.lattice(bad, "L")


def test_matrix_roundtrip():
    M = ((Fraction(3, 2), 1), (0, Fraction(-5, 7)))
    doc = codec.matrix_to_json(M)
    assert doc == [["3/2", "1"], ["0", "-5/7"]]
    back = codec.rat_matrix(doc, "M")
    assert back == tuple(tuple(Fraction(x) for x in row) for row in M)
    with pytest.raises(ValueError, match=r"M\[0\]\[0\]"):
        codec.int_matrix(doc, "M")
    assert codec.int_matrix([["1", "-2"]], "M") == ((1, -2),)
