import hashlib
import json
import runpy
import sys

import pytest

from salemk3 import codec
from salemk3.cli import run
from salemk3.realize import seed_for

from edits import MUTATIONS, one_field_edits, within
from salem_corpus import all_entries

LEHMER_JSON = ["1", "1", "0", "-1", "-1", "-1", "-1", "-1", "0", "1", "1"]
S4_JSON = ["1", "-1", "-1", "-1", "1"]
PAIR = {
    "lattice": {"rank": 2, "gram": [["2", "3"], ["3", "2"]]},
    "isometry": [["0", "-1"], ["1", "3"]],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_certify_salem(tmp_path, capsys):
    path = write(tmp_path, "lehmer.json", LEHMER_JSON)
    assert run(["certify-salem", path]) == 0
    out = capsys.readouterr().out
    assert "degree 10" in out
    path = write(tmp_path, "phi5.json", ["1", "1", "1", "1", "1"])
    assert run(["certify-salem", path]) == 1
    assert "wrong_root_pattern" in capsys.readouterr().out


# `certify-salem --format json` stdout for every corpus polynomial, in corpus
# order, as printed before the decision layer went fraction-free
CORPUS_CERTIFY_JSON = [
    '{"accepted":true,"degree":4,"lambda_interval":["3/2","7/4"],"quadratic_degenerate":false,"trace_polynomial":["-3","-1","1"]}',
    '{"accepted":true,"degree":6,"lambda_interval":["3/2","3"],"quadratic_degenerate":false,"trace_polynomial":["5","-3","-2","1"]}',
    '{"accepted":true,"degree":6,"lambda_interval":["7/4","2"],"quadratic_degenerate":false,"trace_polynomial":["7","-4","-2","1"]}',
    '{"accepted":true,"degree":8,"lambda_interval":["3/2","3"],"quadratic_degenerate":false,"trace_polynomial":["2","6","-4","-2","1"]}',
    '{"accepted":true,"degree":10,"lambda_interval":["9/8","19/16"],"quadratic_degenerate":false,"trace_polynomial":["3","4","-5","-5","1","1"]}',
    '{"accepted":true,"degree":10,"lambda_interval":["3/2","3"],"quadratic_degenerate":false,"trace_polynomial":["-2","3","6","-4","-2","1"]}',
    '{"accepted":true,"degree":12,"lambda_interval":["3/2","3"],"quadratic_degenerate":false,"trace_polynomial":["-6","-10","10","10","-6","-2","1"]}',
    '{"accepted":true,"degree":14,"lambda_interval":["3/2","3"],"quadratic_degenerate":false,"trace_polynomial":["2","0","-21","12","13","-7","-2","1"]}',
    '{"accepted":true,"degree":16,"lambda_interval":["3/2","3"],"quadratic_degenerate":false,"trace_polynomial":["2","14","-16","-28","20","14","-8","-2","1"]}',
    '{"accepted":true,"degree":18,"lambda_interval":["7/4","2"],"quadratic_degenerate":false,"trace_polynomial":["-13","4","67","-37","-60","33","19","-10","-2","1"]}',
    '{"accepted":true,"degree":20,"lambda_interval":["3/2","3"],"quadratic_degenerate":false,"trace_polynomial":["-2","-18","25","60","-50","-54","35","18","-10","-2","1"]}',
    '{"accepted":true,"degree":22,"lambda_interval":["3/2","3"],"quadratic_degenerate":false,"trace_polynomial":["4","-11","-50","55","100","-77","-70","44","20","-11","-2","1"]}',
    '{"accepted":true,"degree":22,"lambda_interval":["3/2","3"],"quadratic_degenerate":false,"trace_polynomial":["4","-20","-50","85","100","-104","-70","53","20","-12","-2","1"]}',
]


def test_certify_salem_json_pinned_on_the_corpus(tmp_path, capsys):
    outputs = []
    for _, coeffs, _ in all_entries():
        path = write(tmp_path, "s.json", [str(c) for c in coeffs])
        assert run(["--format", "json", "certify-salem", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == [line + "\n" for line in CORPUS_CERTIFY_JSON]


def test_realizable(tmp_path, capsys):
    path = write(tmp_path, "lehmer.json", LEHMER_JSON)
    assert run(["realizable", path, "--class", "enriques"]) == 0
    out = capsys.readouterr().out
    assert "clause (2)" in out
    path22 = write(tmp_path, "d22.json", ["1", "-2"] + ["0"] * 19 + ["-2", "1"])
    assert run(["realizable", path22, "--class", "k3"]) == 1


def test_realizable_bad_input(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"wat": 1})
    assert run(["realizable", path, "--class", "k3"]) == 2
    path = write(tmp_path, "notsalem.json", ["2", "0", "1"])
    assert run(["realizable", path, "--class", "k3"]) == 2


def test_positivity_exit_codes(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    assert run(["positivity", pair]) == 1
    twisted = dict(PAIR)
    twisted["lattice"] = {"rank": 2, "gram": [["22", "33"], ["33", "22"]]}
    pair2 = write(tmp_path, "pair2.json", twisted)
    assert run(["positivity", pair2]) == 0
    out = capsys.readouterr().out
    assert "determinant_bound" in out


def test_positivity_has_no_orbit_bound_option(tmp_path):
    # cyclic roots are exact with no cap, so there is no bound to set
    assert run(["positivity", write(tmp_path, "pair.json", PAIR), "--orbit-bound", "32"]) == 2


def test_strict_unknown_field(tmp_path, capsys):
    bad = dict(PAIR)
    bad["comment"] = "sneaky"
    pair = write(tmp_path, "pair.json", bad)
    assert run(["positivity", pair]) == 2
    assert "comment" in capsys.readouterr().out


def test_twist_and_split_check(tmp_path, capsys):
    doc = dict(PAIR)
    doc["element"] = ["11"]
    path = write(tmp_path, "twist.json", doc)
    assert run(["--format", "json", "twist", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["determinant"] == "-605"
    doc["exponent"] = 1
    doc["prime"] = 11
    path = write(tmp_path, "tsc.json", doc)
    assert run(["twist-split-check", path]) == 0
    doc["prime"] = 5
    doc["element"] = ["5"]
    path = write(tmp_path, "tsc5.json", doc)
    assert run(["twist-split-check", path]) == 1


def test_twist_split_check_reports_a_zero_element(tmp_path, capsys):
    doc = dict(PAIR, element=[], exponent=1, prime=11)
    assert run(["--format", "json", "twist-split-check", write(tmp_path, "tsc.json", doc)]) == 1
    assert json.loads(capsys.readouterr().out)["problems"] == ["twist element has norm 0, expected +-11"]


# psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to the bases
# 2 .. 37, and psi_13 one to 2 .. 41, so its primality is unproven
PSEUDOPRIMES = (318665857834031151167461, 3317044064679887385961981)


@pytest.mark.parametrize(
    "edit, field",
    [({"prime": p}, "prime") for p in (0, 1, -11, 9, 15, 121) + PSEUDOPRIMES]
    + [({"exponent": n}, "exponent") for n in (0, -1)],
    ids=str,
)
def test_twist_split_check_refuses_a_non_prime_or_a_non_positive_exponent(tmp_path, capsys, edit, field):
    doc = dict(PAIR, element=[str(edit.get("prime", 11))], exponent=1, prime=11) | edit
    assert run(["--format", "json", "twist-split-check", write(tmp_path, "tsc.json", doc)]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith(f"twist_split.{field}: ")


def _first_exponent_past_the_digit_limit():
    # the twist of PAIR by 11^n has |det| = 5 * 11^(2n)
    limit, n = sys.get_int_max_str_digits(), 1
    assert limit
    while 5 * 11 ** (2 * n) < 10**limit:
        n += 1
    return n


def test_twist_split_check_at_large_exponents(tmp_path, capsys):
    for exponent in (1000, _first_exponent_past_the_digit_limit() - 1):
        doc = dict(PAIR, element=["11"], exponent=exponent, prime=11)
        assert run(["--format", "json", "twist-split-check", write(tmp_path, "tsc.json", doc)]) == 0
        assert json.loads(capsys.readouterr().out)["p_valuation"] == 2 * exponent


@pytest.mark.parametrize("exponent", ["first", 3000, 10**30], ids=["first", "3000", "1e30"])
def test_twist_split_exponent_past_the_digit_limit_names_the_field(tmp_path, capsys, exponent):
    # |det L| * 11^(2 exponent) has more digits than the report may print
    if exponent == "first":
        exponent = _first_exponent_past_the_digit_limit()
    doc = dict(PAIR, element=["11"], exponent=exponent, prime=11)
    path = write(tmp_path, "tsc.json", doc)
    for fmt in ("json", "text"):
        assert within(1.0, lambda: run(["--format", fmt, "twist-split-check", path])) == 2
        assert "twist_split.exponent: " in capsys.readouterr().out


# the documents of the sweep below: each command, its field prefix and its
# document on PAIR. They have few leaves, so every leaf takes every edit
SWEPT_DOCUMENTS = {
    "twist": ("twist", dict(PAIR, element=["11"])),
    "power-integral": ("pair", PAIR),
    "twist-split-check": ("twist_split", dict(PAIR, element=["11"], exponent=1, prime=11)),
}

# the edited documents that are still valid, each with its reason
VALID_EDITS = {
    **{
        f"twist: element[0] {name}": "any nonzero integer polynomial is a twist element"
        for name in MUTATIONS
    },
    "twist-split-check: element[0] negated": "-11 has norm -11, and the check asks for norm +-11",
    "twist-split-check: exponent +1": "exponent 2 is a valid exponent, and the twist by 11^2 passes",
    "twist-split-check: exponent doubled": "exponent 2 is a valid exponent, and the twist by 11^2 passes",
}


def test_one_field_edits_of_a_cli_document_are_refused_by_name(tmp_path, capsys):
    """Each edit of every integer leaf of the twist, power-integral and
    twist-split-check documents exits 2 with an error that names a field of
    its document, or, for twist-split-check only, exits 1 with problems."""
    path = tmp_path / "input.json"
    valid = set()
    for command, (prefix, doc) in SWEPT_DOCUMENTS.items():
        for case, _, edited_doc in one_field_edits(doc):
            case = f"{command}: {case}"
            path.write_text(json.dumps(edited_doc), encoding="utf-8")
            code = within(5.0, lambda: run(["--format", "json", command, str(path)]))
            out = json.loads(capsys.readouterr().out)
            if "error" in out:
                assert code == 2 and out["error"].startswith(f"{prefix}."), (case, out["error"])
            elif code == 1:
                assert command == "twist-split-check" and out["problems"], (case, out)
            else:
                assert code == 0 and case in VALID_EDITS, (case, out)
                valid.add(case)
    assert valid == set(VALID_EDITS)


def test_power_integral(tmp_path, capsys):
    doc = {
        "lattice": {"rank": 2, "gram": [["-4", "0"], ["0", "5"]]},
        "isometry": [["3/2", "5/4"], ["1", "3/2"]],
    }
    path = write(tmp_path, "rat.json", doc)
    assert run(["--format", "json", "power-integral", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["power"] == 3
    # a rotation by an angle of infinite order: no power is integral
    doc = {
        "lattice": {"rank": 2, "gram": [["1", "0"], ["0", "1"]]},
        "isometry": [["3/5", "-4/5"], ["4/5", "3/5"]],
    }
    path = write(tmp_path, "rot.json", doc)
    assert run(["--format", "json", "power-integral", path]) == 2
    assert "not integral" in json.loads(capsys.readouterr().out)["error"]


def test_lattice_constructors(capsys):
    for name in ("U", "E8", "3U", "U+E8", "3U+2E8"):
        assert run(["--format", "json", "lattice", name]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == len(payload["gram"])


def test_json_determinism_and_roundtrip(tmp_path, capsys):
    pair = write(tmp_path, "pair.json", PAIR)
    assert run(["--format", "json", "positivity", pair]) == 1
    first = capsys.readouterr().out
    assert run(["--format", "json", "positivity", pair]) == 1
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # emitted JSON re-parses


def test_build_and_verify_certificate(tmp_path, capsys):
    poly = write(tmp_path, "s4.json", S4_JSON)
    cert_path = str(tmp_path / "cert.json")
    assert run(["build-certificate", poly, "--output", cert_path]) == 0
    capsys.readouterr()
    assert run(["verify", cert_path]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    # tamper symmetrically: parse survives, isometry item fails
    doc = json.loads(open(cert_path).read())
    g = doc["lattice"]["gram"]
    g[0][1] = str(int(g[0][1]) + 2)
    g[1][0] = str(int(g[1][0]) + 2)
    tampered = write(tmp_path, "tampered.json", doc)
    assert run(["verify", tampered]) == 1
    assert "isometry" in capsys.readouterr().out
    # a second "power" key used to win silently
    text = open(cert_path).read()
    assert text.count('"power":') == 1
    doubled = tmp_path / "doubled.json"
    doubled.write_text(text.replace('"power":', '"power":1,"power":'), encoding="utf-8")
    assert run(["--format", "json", "verify", str(doubled)]) == 2
    assert "duplicate key 'power'" in json.loads(capsys.readouterr().out)["error"]


def s4_seed_doc():
    """The curated S4 seed as a ``build-certificate --seed`` document."""
    seed = seed_for(codec.poly(S4_JSON, "salem"))
    return {
        "salem": S4_JSON,
        "S": codec.lattice_to_json(seed.S),
        "f_S": codec.matrix_to_json(seed.f_S),
        "R_rest": codec.lattice_to_json(seed.R_rest),
    }


def test_seed_rejects_non_integer_isometry(tmp_path, capsys):
    doc = s4_seed_doc()
    poly = write(tmp_path, "s4.json", S4_JSON)
    assert run(["build-certificate", poly, "--seed", write(tmp_path, "seed.json", doc)]) == 0
    from_seed = capsys.readouterr().out
    assert run(["build-certificate", poly]) == 0
    assert capsys.readouterr().out == from_seed
    doc["f_S"][0][0] = "1/2"  # used to be read as 0
    assert run(["build-certificate", poly, "--seed", write(tmp_path, "bad.json", doc)]) == 2
    assert "seed.f_S[0][0]" in capsys.readouterr().out


def test_seed_isometry_not_preserving_the_form_exits_2(tmp_path, capsys):
    # used to escape as a traceback with exit 1, which reads as "no"
    doc = s4_seed_doc()
    gram = doc["S"]["gram"]
    for i, j in ((0, 1), (1, 0)):
        gram[i][j] = str(int(gram[i][j]) + 2)
    poly = write(tmp_path, "s4.json", S4_JSON)
    seed_path = write(tmp_path, "seed.json", doc)
    assert run(["--format", "json", "build-certificate", poly, "--seed", seed_path]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == "seed.f_S: matrix does not preserve the bilinear form"


# the edited seed documents that still build, each with its reason
BUILDING_SEED_EDITS = {
    f"R_rest.gram[{i}][{i}] +10^30": "the edit is on the zero diagonal of the U plane of R_rest, "
    "and [[10^30, 1], [1, 0]] is still even with determinant -1"
    for i in (0, 1)
}


def test_one_field_edits_of_the_seed_document_are_refused_by_name(tmp_path, capsys):
    """Each edit of every integer leaf of the curated S4 seed document exits 2
    with an error that names a seed field or the seed-validation stage."""
    poly = write(tmp_path, "s4.json", S4_JSON)
    path = tmp_path / "seed.json"
    built = set()
    for case, _, edited_doc in one_field_edits(s4_seed_doc()):
        path.write_text(json.dumps(edited_doc), encoding="utf-8")
        code = within(5.0, lambda: run(["--format", "json", "build-certificate", poly, "--seed", str(path)]))
        out = json.loads(capsys.readouterr().out)
        if "error" in out:
            assert code == 2 and out["error"].startswith(("seed.", "stage seed-validation: ")), (case, out["error"])
        else:
            assert code == 0 and case in BUILDING_SEED_EDITS, case
            built.add(case)
    assert built == set(BUILDING_SEED_EDITS)


@pytest.mark.parametrize(
    "command, extra, name",
    [
        ("positivity", {}, "pair"),
        ("power-integral", {}, "pair"),
        ("twist", {"element": ["11"]}, "twist"),
        ("twist-split-check", {"element": ["11"], "exponent": 1, "prime": 11}, "twist_split"),
    ],
)
def test_isometry_not_preserving_the_form_names_the_field(tmp_path, capsys, command, extra, name):
    doc = dict(PAIR, isometry=[["1", "1"], ["0", "1"]], **extra)
    assert run(["--format", "json", command, write(tmp_path, "input.json", doc)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == f"{name}.isometry: matrix does not preserve the bilinear form"


def test_s4_certificate_bytes_are_pinned(tmp_path, capsys):
    # the canonical certificate is a contract: any change to its bytes is a format change
    poly = write(tmp_path, "s4.json", S4_JSON)
    assert run(["--format", "json", "build-certificate", poly]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "9dc789226e00bb556a4d5a9aae5f3712b70865bf27e419ca3b6d8af9b21fd462"


def test_s4_verify_bytes_are_pinned(tmp_path, capsys):
    # verify's report on the pinned certificate is a contract too, in both formats
    poly = write(tmp_path, "s4.json", S4_JSON)
    assert run(["--format", "json", "build-certificate", poly]) == 0
    cert = tmp_path / "cert.json"
    cert.write_text(capsys.readouterr().out, encoding="utf-8")
    digests = {}
    for fmt in ("json", "text"):
        assert run(["--format", fmt, "verify", str(cert)]) == 0
        digests[fmt] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digests == {
        "json": "5de4f7c69eaec6f759fd6a6a75655f52c58d0362adcd0b42e892e12f12ad6295",
        "text": "d3cb46d6032f157773d05513ef18623f486adb09d0e813b8bb5e52de27d2c96b",
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify-salem", "{dir}"], "cannot read input file {dir}: "),
        (["certify-salem", "{latin1}"], "input file {latin1} is not UTF-8: "),
        (["build-certificate", "{s4}", "--output", "{missing}"], "cannot write output file {missing}: "),
    ],
    ids=["input-directory", "input-not-utf8", "output-in-missing-directory"],
)
def test_file_errors_exit_2_and_name_the_file(tmp_path, capsys, argv, message):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('["1", "\u00e9"]'.encode("latin-1"))
    paths = {
        "dir": str(tmp_path),
        "latin1": str(latin1),
        "s4": write(tmp_path, "s4.json", S4_JSON),
        "missing": str(tmp_path / "no" / "such" / "cert.json"),
    }
    assert run(["--format", "json"] + [arg.format(**paths) for arg in argv]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith(message.format(**paths))


def test_verify_empty_kernel_basis_fails_the_kernel_item(tmp_path, capsys):
    # used to raise IndexError in linalg.saturation: a traceback and an empty stdout
    poly = write(tmp_path, "s4.json", S4_JSON)
    assert run(["--format", "json", "build-certificate", poly]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["kernel_basis"] = []
    assert run(["--format", "json", "verify", write(tmp_path, "cert.json", doc)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is False
    assert {item["check"]: item["passed"] for item in report["items"]}["kernel"] is False


def test_verify_misshapen_kernel_basis_fails_the_kernel_item(tmp_path, capsys):
    # an extra column per row used to be dropped by mat_mul and pass as [ok] kernel;
    # the reader now refuses the shape before any check runs
    poly = write(tmp_path, "s4.json", S4_JSON)
    assert run(["--format", "json", "build-certificate", poly]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["kernel_basis"] = [row + ["5"] for row in doc["kernel_basis"]]
    assert run(["--format", "json", "verify", write(tmp_path, "cert.json", doc)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == "certificate.kernel_basis[0]: expected 22 entries, got 23"


@pytest.mark.parametrize(
    "option",
    [["--congruence-prime"], ["--box", "30"], ["--prime-cap", "100000"]],
    ids=["congruence-prime", "box", "prime-cap"],
)
def test_build_certificate_has_no_search_options(tmp_path, option):
    # one route with fixed search limits: the former knobs are unknown arguments
    assert run(["build-certificate", write(tmp_path, "s4.json", S4_JSON)] + option) == 2


def test_malformed_json_diagnostic(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert run(["certify-salem", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().out
    # the error document is canonical JSON, like every other output
    assert run(["--format", "json", "certify-salem", str(path)]) == 2
    out = capsys.readouterr().out
    assert out == codec.dumps(json.loads(out)) + "\n"
    assert out.startswith('{"error":"malformed JSON in ')


@pytest.mark.parametrize(
    "command, edit, where",
    [
        ("twist", {"element": [11.9]}, "twist.element[0]"),
        ("twist-split-check", {"element": ["11"], "exponent": "1", "prime": 11}, "twist_split.exponent"),
        ("twist-split-check", {"element": ["11"], "exponent": True, "prime": 11}, "twist_split.exponent"),
        ("twist-split-check", {"element": ["11"], "exponent": 1, "prime": 11.0}, "twist_split.prime"),
        ("positivity", {"lattice": {"rank": 2, "gram": [[2.4, "3"], ["3", "2"]]}}, "pair.lattice.gram[0][0]"),
        ("power-integral", {"isometry": [["0", "-1"], ["1", "3/1"]]}, "pair.isometry[1][1]"),
    ],
)
def test_non_canonical_input_names_the_field(tmp_path, capsys, command, edit, where):
    path = write(tmp_path, "input.json", dict(PAIR, **edit))
    assert run(["--format", "json", command, path]) == 2
    assert where in json.loads(capsys.readouterr().out)["error"]


def test_duplicate_keys_are_rejected(tmp_path, capsys):
    path = tmp_path / "pair.json"
    isometry = json.dumps(PAIR["isometry"])
    path.write_text(
        '{"lattice":%s,"isometry":%s,"isometry":%s}' % (json.dumps(PAIR["lattice"]), isometry, isometry),
        encoding="utf-8",
    )
    assert run(["--format", "json", "positivity", str(path)]) == 2
    assert "duplicate key 'isometry'" in json.loads(capsys.readouterr().out)["error"]


def test_format_after_subcommand(tmp_path, capsys):
    path = write(tmp_path, "lehmer.json", LEHMER_JSON)
    for argv in (["lattice", "U"], ["certify-salem", path]):
        results = []
        for args in (["--format", "json", *argv], [*argv, "--format", "json"]):
            code = run(args)
            results.append((code, capsys.readouterr().out))
        assert results[0] == results[1]
        assert results[0][0] == 0
        json.loads(results[0][1])


@pytest.mark.parametrize(
    "polynomial, code, verdict",
    [(LEHMER_JSON, 0, "Salem polynomial of degree 10\n"), (["1", "1", "1", "1", "1"], 1, "rejected: wrong_root_pattern")],
    ids=["Lehmer", "cyclotomic(5)"],
)
def test_module_entry_point_exits_with_the_run_status(tmp_path, capsys, monkeypatch, polynomial, code, verdict):
    """``python -m salemk3.cli`` runs ``main``, which exits with the status of ``run``."""
    path = write(tmp_path, "poly.json", polynomial)
    monkeypatch.setattr(sys, "argv", ["salemk3", "certify-salem", path])
    monkeypatch.delitem(sys.modules, "salemk3.cli")  # run_module executes a fresh copy as __main__
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("salemk3.cli", run_name="__main__")
    assert exc.value.code == code
    assert capsys.readouterr().out.startswith(verdict)
