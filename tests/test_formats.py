import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mocklie
from mocklie import catalog

from conftest import GF5, rand_matrix, random_valid_bimodule, seeded
from mocklie.algebra import Algebra, algebra_from_tuple, check_identity
from mocklie.catalog import case_inputs, case_table
from mocklie.classify import classify
from mocklie.doubles import (
    assemble_prejj_double,
    check_invariance,
    conformance_diff,
)
from mocklie.fields import QQ, prime_field
from mocklie.formats import (
    FormatError,
    algebra_from_json,
    algebra_to_json,
    bimodule_from_json,
    bimodule_to_json,
    census_to_json,
    coerce_algebra,
    double_to_json,
    dumps,
    field_from_json,
    field_to_json,
    matrix_from_json,
    matrix_to_json,
    rep_from_json,
    rep_to_json,
    report_to_json,
    table_fixture_from_json,
)
from mocklie.reps import JJRep, PreJJBimodule
from mocklie.algebra import sub_adjacent


def random_algebra(rng, field, dim=2):
    n3 = dim ** 3
    if field is QQ:
        entries = tuple(QQ.of(rng.randrange(-4, 5)) for _ in range(n3))
    else:
        entries = tuple(rng.randrange(field.p) for _ in range(n3))
    return algebra_from_tuple(field, dim, entries)


def test_field_descriptor_round_trip():
    for field in (QQ, GF5, prime_field(7)):
        assert field_from_json(field_to_json(field)) == field


def test_field_descriptor_errors():
    with pytest.raises(FormatError):
        field_from_json({})
    with pytest.raises(FormatError):
        field_from_json({"kind": "real"})
    with pytest.raises(FormatError):
        field_from_json({"kind": "prime"})


@pytest.mark.parametrize("field", [QQ, GF5])
def test_algebra_round_trip(field):
    rng = seeded(60)
    for _ in range(25):
        alg = random_algebra(rng, field)
        doc = algebra_to_json(alg)
        back = algebra_from_json(json.loads(dumps(doc)))
        assert back == alg


def test_prime_scalars_serialize_with_modulus(classes_f5):
    doc = algebra_to_json(classes_f5["e1e1=e2"])
    assert doc["products"] == [{"i": 0, "j": 0, "coeffs": ["0 mod 5", "1 mod 5"]}]


def test_omitted_products_mean_zero():
    doc = {"dim": 2, "field": {"kind": "rational"}, "basis": ["a", "b"]}
    alg = algebra_from_json(doc)
    assert alg == Algebra.zero(QQ, 2, labels=("a", "b"))


def test_algebra_schema_errors():
    base = {"dim": 2, "field": {"kind": "rational"}}
    with pytest.raises(FormatError):
        algebra_from_json({"field": {"kind": "rational"}})
    with pytest.raises(FormatError):
        algebra_from_json({**base, "basis": ["a"]})
    with pytest.raises(FormatError):
        algebra_from_json({**base, "products": [{"i": 0, "j": 9, "coeffs": ["0", "0"]}]})
    with pytest.raises(FormatError):
        algebra_from_json({**base, "products": [{"i": 0, "j": 0, "coeffs": ["1"]}]})
    with pytest.raises(FormatError):
        algebra_from_json(
            {
                **base,
                "products": [
                    {"i": 0, "j": 0, "coeffs": ["1", "0"]},
                    {"i": 0, "j": 0, "coeffs": ["0", "1"]},
                ],
            }
        )
    with pytest.raises(FormatError):
        algebra_from_json({**base, "basis": ["a", "a"]})


VALID_DOC = {"dim": 2, "field": {"kind": "rational"}, "basis": ["e1", "e2"],
             "products": [{"i": 0, "j": 0, "coeffs": ["0", "1"]}]}


@pytest.mark.parametrize("path, value, what", [
    (("dim",), "abc", "dim"),
    (("dim",), "2", "dim"),
    (("dim",), 2.5, "dim"),
    (("dim",), 2.0, "dim"),
    (("dim",), True, "dim"),
    (("basis",), 5, "basis"),
    (("basis",), "e1e2", "basis"),
    (("basis",), None, "basis"),
    (("products",), 5, "products"),
    (("products",), {"i": 0}, "products"),
    (("products", 0, "coeffs"), 5, "coeffs"),
    (("products", 0, "coeffs"), "01", "coeffs"),
    (("products", 0, "i"), "a", "'i'"),
    (("products", 0, "i"), "0", "'i'"),
    (("products", 0, "j"), 0.0, "'j'"),
    (("products", 0, "j"), False, "'j'"),
    (("field", "p"), "x", "'p'"),
    (("field", "p"), "5", "'p'"),
    (("field", "p"), None, "'p'"),
    (("field", "p"), 5.0, "'p'"),
    (("field", "p"), True, "'p'"),
])
def test_algebra_fields_must_have_json_types(path, value, what):
    doc = json.loads(json.dumps(VALID_DOC))
    if path[0] == "field":
        doc["field"] = {"kind": "prime", "p": 5}
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(FormatError, match=what):
        algebra_from_json(doc)


def test_module_dim_must_be_a_json_integer(classes_qq):
    for parse, doc, _ in module_containers(classes_qq):
        for bad in ("2", 2.0, True):
            doc["module_dim"] = bad
            with pytest.raises(FormatError, match="module_dim"):
                parse(doc)
        doc["module_dim"] = 2
        parse(doc)


def test_matrix_round_trip():
    rng = seeded(61)
    m = rand_matrix(rng, GF5, 3)
    assert matrix_from_json(GF5, matrix_to_json(m)) == m
    with pytest.raises(FormatError):
        matrix_from_json(GF5, matrix_to_json(m), size=2)


def test_bimodule_round_trip(classes_f5):
    rng = seeded(62)
    bm = random_valid_bimodule(rng, classes_f5["e1e1=e2"])
    back = bimodule_from_json(json.loads(dumps(bimodule_to_json(bm))))
    assert back.left == bm.left and back.right == bm.right
    assert back.algebra == bm.algebra


def test_rep_round_trip(classes_qq):
    rep = JJRep.adjoint(sub_adjacent(classes_qq["e2e2=e1"]))
    back = rep_from_json(json.loads(dumps(rep_to_json(rep))))
    assert back.maps == rep.maps


def module_containers(classes_qq):
    alg = classes_qq["e1e1=e2"]
    bimodule = bimodule_to_json(PreJJBimodule.regular(alg))
    rep = rep_to_json(JJRep.adjoint(sub_adjacent(classes_qq["e2e2=e1"])))
    return [(bimodule_from_json, bimodule, "l"), (rep_from_json, rep, "rho")]


def test_module_container_must_be_an_object(classes_qq):
    for parse, _, _ in module_containers(classes_qq):
        for obj in ([1, 2], "rho", 5):
            with pytest.raises(FormatError, match="JSON object"):
                parse(obj)


def test_module_container_needs_module_dim_or_maps(classes_qq):
    for parse, doc, key in module_containers(classes_qq):
        del doc["module_dim"]
        for other in ("l", "r", "rho"):
            if other in doc:
                doc[other] = []
        with pytest.raises(FormatError, match="module_dim"):
            parse(doc)
        doc[key], doc["module_dim"] = [5, 6], 2
        with pytest.raises(FormatError, match="list of rows"):
            parse(doc)
        doc[key] = 5
        with pytest.raises(FormatError, match="list of matrices"):
            parse(doc)
        doc[key], doc["module_dim"] = [], "abc"
        with pytest.raises(FormatError, match="module_dim"):
            parse(doc)


def test_missing_fields_raise_format_error(classes_qq):
    bimodule, rep = (doc for _, doc, _ in module_containers(classes_qq))
    entry = {"left": [0, 0], "right": [0, 1], "expected": ["0"] * 4}
    cases = [(bimodule_from_json, bimodule, key) for key in ("algebra", "l", "r")]
    cases += [(rep_from_json, rep, key) for key in ("algebra", "rho")]
    cases += [(lambda obj: table_fixture_from_json(obj, QQ), {"entries": []}, "entries")]
    cases += [(lambda obj: table_fixture_from_json({"entries": [obj]}, QQ), entry, key)
              for key in ("left", "right", "expected")]
    for parse, doc, key in cases:
        parse(doc)
        with pytest.raises(FormatError, match=f"^missing field '{key}'$"):
            parse({k: v for k, v in doc.items() if k != key})


def test_dumps_is_deterministic(classes_qq):
    doc = algebra_to_json(classes_qq["e2e2=e1"])
    assert dumps(doc) == dumps(json.loads(dumps(doc)))
    assert dumps(doc).endswith("\n")


def test_report_serialization(classes_qq):
    report = check_identity(classes_qq["e2e1=e2"], "antiassociative")
    doc = report_to_json(report, QQ)
    assert doc["passed"] is False
    assert doc["witnesses"][0]["indices"] == [1, 0, 0]
    assert doc["witnesses"][0]["defect"] == ["0", "1"]


def test_census_serialization():
    census = classify(1, GF5, "antiassociative")
    doc = census_to_json(census)
    assert doc["total"] == 1
    assert doc["orbits"] == [{"representative": ["0 mod 5"], "size": 1}]
    assert doc["schema_version"] == 1


def test_double_serialization_has_spec_keys():
    double, rows = (lambda d=assemble_prejj_double(*case_inputs("I", QQ)):
                    (d, conformance_diff(d, case_table("I"))))()
    doc = double_to_json(double, check_invariance(double), rows)
    assert set(doc) >= {"ambient", "form", "source", "conformance", "invariance"}
    entry = doc["conformance"][0]
    assert set(entry) >= {"lhs-entry", "recomputed", "paper-expected", "match"}
    assert doc["conformance"][1]["recomputed"] == ["0", "2", "1", "0"]


def test_table_fixture_round_trip():
    doc = json.loads(catalog.case_table_path("I").read_text())
    entries = table_fixture_from_json(json.loads(dumps(doc)), QQ)
    assert len(entries) == 16
    assert entries[0][0] == (0, 0) and entries[0][1] == (0, 0)
    assert entries[0][2] == (QQ.zero, QQ.one, QQ.zero, QQ.zero)


def test_coerce_algebra_rational_to_prime(classes_qq):
    halved = Algebra.from_products(QQ, 2, {(0, 0): ("1/2", "0")})
    moved = coerce_algebra(halved, GF5)
    assert moved.c[0][0] == (3, 0)
    with pytest.raises(FormatError):
        coerce_algebra(coerce_algebra(classes_qq["zero"], GF5), QQ)


def test_coerce_rejects_bad_denominator():
    alg = Algebra.from_products(QQ, 2, {(0, 0): ("1/5", "0")})
    from mocklie.errors import FieldError

    with pytest.raises(FieldError):
        coerce_algebra(alg, GF5)


def test_catalog_data_files_are_canonical():
    # the packaged documents are the catalog: exactly these ten files, each
    # byte-equal to what the writers make of the value the catalog reads
    data = Path(mocklie.__file__).parent / "data"
    expected = {
        f"class_{name.replace('=', '_')}.json": algebra_to_json(catalog.class_algebra(name))
        for name in catalog.CLASS_NAMES
    }
    for case in catalog.CASE_NAMES:
        expected[f"case_{case}_dual.json"] = algebra_to_json(catalog.case_inputs(case)[1])
        expected[f"case_{case}_table.json"] = {"case": case, "entries": [
            {"left": list(left), "right": list(right),
             "expected": [QQ.render(x) for x in vec]}
            for left, right, vec in catalog.case_table(case)
        ]}
    assert sorted(path.name for path in data.glob("*.json")) == sorted(expected)
    assert len(expected) == 10
    for name, doc in expected.items():
        assert (data / name).read_bytes() == dumps(doc).encode(), name


SCALAR_TEXT = st.one_of(
    st.text(),
    st.from_regex(r" ?-?[0-9]{1,3}(/-?[0-9]{1,2})?( mod -?[0-9]{1,2})? ?", fullmatch=True),
)


@settings(max_examples=200, deadline=None)
@given(text=SCALAR_TEXT, field=st.sampled_from([QQ, GF5]))
def test_algebra_from_json_rejects_scalars_only_with_format_error(text, field):
    doc = {"dim": 2, "field": field_to_json(field),
           "products": [{"i": 0, "j": 1, "coeffs": ["0", text]}]}
    try:
        alg = algebra_from_json(doc)
    except FormatError:
        return
    assert alg.c[0][1] == (field.zero, field.parse(text))
