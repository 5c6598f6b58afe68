"""The JSON codec: the only module that knows the grammar of FORMATS.md.

An integer is a decimal string matching ``0|-?[1-9][0-9]*``; a rational is
an integer or ``num/den`` in lowest terms with den >= 2. Count and flag
fields are JSON integers (never booleans) and JSON booleans. An object must
carry exactly its declared keys, and ``loads`` rejects duplicate keys and
non-finite numbers. A reader takes ``(data, path)`` and raises a ValueError
that names the field path, such as ``certificate.lattice.gram[0][0]``.
Output is canonical: sorted keys and ``(",", ":")`` separators.
"""

import json
import re
from fractions import Fraction
from math import gcd

from .lattices import Lattice, LatticeError
from .numbertheory import is_prime
from .polynomials import IntPolynomial
from .positivity import ObstructionReport

_INTEGER = re.compile(r"0|-?[1-9][0-9]*")
_FRACTION = re.compile(r"(-?[1-9][0-9]*)/([1-9][0-9]*)")


# --- documents -------------------------------------------------------------------


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _non_finite(name):
    raise ValueError(f"non-finite number {name}")


def loads(text):
    return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_non_finite)


def load(path):
    """Parse the JSON document in the file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ValueError(f"input file not found: {path}") from None
    try:
        return loads(text)
    except ValueError as exc:  # JSONDecodeError, a duplicate key or a non-finite number
        raise ValueError(f"malformed JSON in {path}: {exc}") from None


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# --- readers ---------------------------------------------------------------------


def _int(digits, path):
    """int(digits), naming the field when the string exceeds the
    interpreter's int_max_str_digits."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def integer(data, path):
    if not isinstance(data, str) or not _INTEGER.fullmatch(data):
        raise ValueError(f"{path}: expected a decimal integer string, got {data!r}")
    return _int(data, path)


def rational(data, path):
    if isinstance(data, str):
        if _INTEGER.fullmatch(data):
            return Fraction(_int(data, path))
        m = _FRACTION.fullmatch(data)
        if m:
            num, den = _int(m[1], path), _int(m[2], path)
            if den >= 2 and gcd(num, den) == 1:
                return Fraction(num, den)
    raise ValueError(f"{path}: expected an integer or a reduced num/den string, got {data!r}")


def json_int(data, path):
    if type(data) is not int:
        raise ValueError(f"{path}: expected a JSON integer, got {data!r}")
    return data


def positive_int(data, path):
    if json_int(data, path) < 1:
        raise ValueError(f"{path}: expected a positive JSON integer, got {data!r}")
    return data


def prime(data, path):
    if not is_prime(json_int(data, path)):
        raise ValueError(f"{path}: expected a prime JSON integer, got {data!r}")
    return data


def boolean(data, path):
    if not isinstance(data, bool):
        raise ValueError(f"{path}: expected a JSON boolean, got {data!r}")
    return data


def string(data, path):
    if not isinstance(data, str):
        raise ValueError(f"{path}: expected a JSON string, got {data!r}")
    return data


def free(data, path):
    """Any JSON value, kept as parsed (evidence that no check reads)."""
    return data


def choice(*values):
    def read(data, path):
        if data not in values:
            raise ValueError(f"{path}: expected one of {list(values)}, got {data!r}")
        return data

    return read


def nullable(reader):
    def read(data, path):
        return None if data is None else reader(data, path)

    return read


def array(reader):
    def read(data, path):
        if not isinstance(data, list):
            raise ValueError(f"{path}: expected a JSON array")
        return tuple(reader(x, f"{path}[{i}]") for i, x in enumerate(data))

    return read


def fields(data, readers, path):
    """Read a JSON object with exactly the keys of ``readers``, each by its reader."""
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    unknown = set(data) - set(readers)
    if unknown:
        raise ValueError(f"{path}: unknown fields {sorted(unknown)}")
    missing = set(readers) - set(data)
    if missing:
        raise ValueError(f"{path}: missing fields {sorted(missing)}")
    return {key: read(data[key], f"{path}.{key}") for key, read in readers.items()}


int_matrix = array(array(integer))
rat_matrix = array(array(rational))


def shape(M, rows, cols, path):
    """Raise unless the matrix M has ``rows`` rows (any number when None),
    each of ``cols`` entries."""
    if rows is not None and len(M) != rows:
        raise ValueError(f"{path}: expected {rows} rows, got {len(M)}")
    for i, row in enumerate(M):
        if len(row) != cols:
            raise ValueError(f"{path}[{i}]: expected {cols} entries, got {len(row)}")


def poly(data, path):
    return IntPolynomial(array(integer)(data, path))


def lattice(data, path):
    doc = fields(data, {"rank": json_int, "gram": int_matrix}, path)
    if doc["rank"] != len(doc["gram"]):
        raise ValueError(f"{path}.rank: does not match the gram matrix")
    try:
        return Lattice(doc["gram"])
    except LatticeError as exc:
        raise ValueError(f"{path}.gram: {exc}") from None


def _witness(data, path):
    doc = fields(data, {"vector": array(integer), "kind": choice("cyclic", "geodesic")}, path)
    return doc["vector"], doc["kind"]


REPORT = {
    "status": choice("positive", "not_positive", "inconclusive"),
    "method": choice("determinant_bound", "exhaustive_search", "cyclic_only"),
    "witnesses": array(_witness),
    "search_bound": nullable(rational),
    "candidate_count": nullable(json_int),
}


def report(data, path):
    return ObstructionReport(**fields(data, REPORT, path))


# --- writers ---------------------------------------------------------------------


def poly_to_json(p):
    return [str(c) for c in p.coeffs]


def matrix_to_json(M):
    # str of an int or a Fraction is already the canonical integer or num/den
    return [[str(x) for x in row] for row in M]


def lattice_to_json(L):
    return {"rank": L.rank, "gram": matrix_to_json(L.gram)}


def report_to_json(rep):
    return {
        "status": rep.status,
        "method": rep.method,
        "witnesses": [{"vector": [str(x) for x in v], "kind": kind} for v, kind in rep.witnesses],
        "search_bound": None if rep.search_bound is None else str(rep.search_bound),
        "candidate_count": rep.candidate_count,
    }
