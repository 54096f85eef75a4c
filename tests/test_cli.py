import hashlib
import json
import time
from pathlib import Path

import pytest

from conftest import GF5, brute_force_antiassociative
from mocklie.algebra import (Algebra, apply_basis_change, passes_identity,
                             structure_equal, sub_adjacent)
from mocklie.catalog import case_inputs, case_table_path, class_algebra
from mocklie.cli import IDENTITY_ALIASES, build_parser, main
from mocklie.fields import QQ
from mocklie.formats import (
    algebra_from_json,
    algebra_to_json,
    bimodule_to_json,
    dumps,
    matrix_from_json,
    rep_to_json,
)
from mocklie.reps import JJRep, PreJJBimodule
from mocklie.linalg import LinearMap


def write_algebra(path, alg):
    path.write_text(dumps(algebra_to_json(alg)))
    return str(path)


@pytest.fixture
def case_one_files(tmp_path):
    primal, dual = case_inputs("I", QQ)
    return (
        write_algebra(tmp_path / "a.json", primal),
        write_algebra(tmp_path / "astar.json", dual),
    )


def test_check_case_one_passes(case_one_files, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", case_one_files[0], "--identity", "left-prejj",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True and doc["identity"] == "left_pre_jj"


def test_check_zero_algebra_all_kinds(tmp_path):
    path = write_algebra(tmp_path / "zero.json", Algebra.zero(QQ, 2))
    for identity in ("antiassoc", "left-prejj", "right-prejj", "jj", "operad"):
        assert main(["check", path, "--identity", identity,
                     "--out", str(tmp_path / "r.json")]) == 0


def test_check_failure_exit_code_and_witness(tmp_path):
    alg = Algebra.from_products(QQ, 2, {(0, 0): (1, 0)})
    path = write_algebra(tmp_path / "idem.json", alg)
    out = tmp_path / "report.json"
    code = main(["check", path, "--identity", "antiassoc", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["witnesses"][0]["indices"] == [0, 0, 0]


def test_check_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2,')
    assert main(["check", str(bad), "--identity", "jj"]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_check_unknown_identity(tmp_path):
    path = write_algebra(tmp_path / "z.json", Algebra.zero(QQ, 2))
    assert main(["check", path, "--identity", "assoc"]) == 2


def test_check_missing_file():
    assert main(["check", "/nonexistent.json", "--identity", "jj"]) == 2


def test_subadjacent_command(tmp_path):
    path = write_algebra(tmp_path / "sq.json", class_algebra("e1e1=e2"))
    out = tmp_path / "sub.json"
    assert main(["subadjacent", path, "--out", str(out)]) == 0
    alg = algebra_from_json(json.loads(out.read_text()))
    assert alg.c[0][0] == (QQ.zero, QQ.of(2))
    assert main(["subadjacent", path, "--halved", "--out", str(out)]) == 0
    halved = algebra_from_json(json.loads(out.read_text()))
    assert halved.c[0][0] == (QQ.zero, QQ.one)


def test_subadjacent_halved_char2_rejected(tmp_path):
    path = write_algebra(tmp_path / "sq.json", class_algebra("e1e1=e2"))
    assert main(["subadjacent", path, "--halved", "--field", "prime:2",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_semidirect_bimodule_container(tmp_path):
    alg = class_algebra("e1e1=e2")
    bm = PreJJBimodule.regular(alg)
    path = tmp_path / "bm.json"
    path.write_text(dumps(bimodule_to_json(bm)))
    out = tmp_path / "sd.json"
    assert main(["semidirect", str(path), "--out", str(out)]) == 0
    result = algebra_from_json(json.loads(out.read_text()))
    assert result.dim == 4
    assert passes_identity(result, "left_pre_jj")


@pytest.mark.parametrize("verb, option", [
    ("subadjacent", "--max-witnesses"),
    ("semidirect", "--max-witnesses"),
    ("classify", "--max-witnesses"),
    ("iso", "--max-witnesses"),
    ("table", "--max-witnesses"),
    ("classify", "--field"),
    ("semidirect", "--field"),
    ("classify", "--workers"),  # the census runs in one process
])
def test_verb_refuses_options_it_would_ignore(tmp_path, capsys, verb, option):
    square = class_algebra("e1e1=e2")
    alg = write_algebra(tmp_path / "a.json", square)
    container = tmp_path / "bm.json"
    container.write_text(dumps(bimodule_to_json(PreJJBimodule.regular(square))))
    operands = {"subadjacent": [alg], "semidirect": [str(container)], "iso": [alg, alg],
                "table": [alg], "classify": ["--dim", "1", "--prime", "5"]}[verb]
    value = "prime:5" if option == "--field" else "3"
    with pytest.raises(SystemExit) as exc:
        main([verb, *operands, option, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_semidirect_jj_container(tmp_path):
    g = sub_adjacent(class_algebra("e1e1=e2"))
    rep = JJRep.adjoint(g)
    path = tmp_path / "rep.json"
    path.write_text(dumps(rep_to_json(rep)))
    out = tmp_path / "sd.json"
    assert main(["semidirect", str(path), "--jj", "--out", str(out)]) == 0
    result = algebra_from_json(json.loads(out.read_text()))
    assert result.dim == 4 and passes_identity(result, "jj")


def test_semidirect_invalid_rep_fails(tmp_path):
    g = sub_adjacent(class_algebra("e1e1=e2"))
    rep = JJRep(g, (LinearMap.identity(QQ, 2), LinearMap.zeros(QQ, 2, 2)))
    path = tmp_path / "rep.json"
    path.write_text(dumps(rep_to_json(rep)))
    out = tmp_path / "sd.json"
    assert main(["semidirect", str(path), "--jj", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["precondition"]["passed"] is False


def test_double_command_with_builtin_conformance(case_one_files, tmp_path):
    out = tmp_path / "double.json"
    code = main(["double", *case_one_files, "--conformance", "I",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["invariance"]["passed"] is True
    entries = {e["lhs-entry"]: e for e in doc["conformance"]}
    assert entries["(e1+e1*)*(e1+e2*)"]["recomputed"] == ["0", "2", "1", "0"]
    assert entries["(e1+e1*)*(e1+e2*)"]["match"] is True
    assert sum(not e["match"] for e in doc["conformance"]) == 2


def test_double_command_with_fixture_path(case_one_files, tmp_path):
    table_path = tmp_path / "table.json"
    table_path.write_bytes(case_table_path("I").read_bytes())
    out = tmp_path / "double.json"
    assert main(["double", *case_one_files, "--conformance", str(table_path),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["conformance"]) == 16


@pytest.mark.parametrize("kind", ["prejj", "jj"])
@pytest.mark.parametrize("field", [[], ["--field", "prime:5"]])
def test_double_case_name_reads_the_packaged_fixture(case_one_files, tmp_path, kind,
                                                     field):
    runs = []
    for conformance in ("I", str(case_table_path("I"))):
        out = tmp_path / f"double-{len(runs)}.json"
        code = main(["double", *case_one_files, "--conformance", conformance,
                     "--kind", kind, *field, "--out", str(out)])
        runs.append((code, out.read_bytes()))
    assert runs[0] == runs[1]
    assert len(json.loads(runs[0][1])["conformance"]) == 16


def test_double_dimension_mismatch(tmp_path, capsys, case_one_files):
    other = write_algebra(tmp_path / "dim3.json", Algebra.zero(QQ, 3))
    out = tmp_path / "d.json"
    for kind in ("prejj", "jj"):
        assert main(["double", case_one_files[0], other, "--kind", kind,
                     "--out", str(out)]) == 2
        assert_one_error_line(capsys, "equal dimension")
        assert not out.exists()


def test_double_jj_kind(tmp_path):
    g = sub_adjacent(class_algebra("e1e1=e2"))
    h = sub_adjacent(class_algebra("e2e2=e1")).relabel(("e1*", "e2*"))
    fa = write_algebra(tmp_path / "g.json", g)
    fb = write_algebra(tmp_path / "h.json", h)
    out = tmp_path / "double.json"
    assert main(["double", fa, fb, "--kind", "jj", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "jj" and doc["invariance"]["passed"] is True


def test_classify_dim1(tmp_path):
    out = tmp_path / "census.json"
    assert main(["classify", "--dim", "1", "--prime", "5",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["total"] == 1 and len(doc["orbits"]) == 1


def test_classify_f2_census_matches_oracle(tmp_path):
    out = tmp_path / "census.json"
    assert main(["classify", "--dim", "2", "--prime", "2",
                 "--kind", "antiassoc", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    oracle = brute_force_antiassociative(2)
    assert doc["total"] == len(oracle)
    assert doc["warnings"]


def test_classify_infeasible(tmp_path, capsys):
    # the dim-2 GF(5) census tries 8,220 assignments, past --max-scan 1000
    out = tmp_path / "c.json"
    assert main(["classify", "--dim", "2", "--prime", "5", "--max-scan", "1000",
                 "--out", str(out)]) == 2
    assert_one_error_line(capsys, "more than 1000 assignments")
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--dim", "3", "--prime", "2", "--out", str(out)])
    assert exc.value.code == 2
    # 11^8 tuples, but 359,238 assignments tried
    assert main(["classify", "--dim", "2", "--prime", "11", "--kind", "antiassoc",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["total"] == 121 and [o["size"] for o in doc["orbits"]] == [1, 120]
    assert doc["metadata"]["visited"] == 359238


def test_classify_large_prime_census(tmp_path):
    # p = 999,983: the census tries each of the p values once, and the
    # primitive root (5) comes from the prime factors of p - 1
    out = tmp_path / "c.json"
    start = time.perf_counter()
    assert main(["classify", "--dim", "1", "--prime", "999983", "--kind", "jj",
                 "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1
    assert out.read_text() == dumps({
        "dim": 1,
        "field": {"kind": "prime", "p": 999983},
        "kind": "jj",
        "metadata": {"gl_order": 999982, "scanned": 999983, "visited": 999983,
                     "workers": 1},
        "orbits": [{"representative": ["0 mod 999983"], "size": 1}],
        "schema_version": 1,
        "total": 1,
        "warnings": [],
    })


@pytest.mark.parametrize("dim", [1, 2])
def test_classify_prime_past_max_scan_is_refused(tmp_path, capsys, dim):
    # the search tries every value of the first constant, 10^24 + 7 of them
    out = tmp_path / "c.json"
    assert main(["classify", "--dim", str(dim), "--prime", str(10 ** 24 + 7),
                 "--out", str(out)]) == 2
    assert_one_error_line(capsys, "more than 10000000 assignments")
    assert not out.exists()


def test_classify_negative_max_scan_is_refused(tmp_path, capsys):
    # refused by name before the search; 0 stays the solver's own refusal
    out = tmp_path / "c.json"
    base = ["classify", "--dim", "1", "--prime", "2", "--out", str(out)]
    assert main([*base, "--max-scan", "-5"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --max-scan must be non-negative, got -5\n"
    assert main([*base, "--max-scan", "0"]) == 2
    assert_one_error_line(capsys, "more than 0 assignments")
    assert not out.exists()


def test_classify_prime_too_large_to_count_is_refused(tmp_path, capsys):
    # within --max-scan, but the 10^24 + 7 values of a constant are past
    # what len() counts
    out = tmp_path / "c.json"
    assert main(["classify", "--dim", "1", "--prime", str(10 ** 24 + 7),
                 "--max-scan", str(10 ** 29), "--out", str(out)]) == 2
    assert_one_error_line(capsys, "too large to count")
    assert not out.exists()


def test_iso_found_and_not_found(tmp_path):
    a = write_algebra(tmp_path / "a.json", class_algebra("e1e1=e2", GF5))
    b = write_algebra(tmp_path / "b.json", class_algebra("e2e2=e1", GF5))
    z = write_algebra(tmp_path / "z.json", class_algebra("zero", GF5))
    out = tmp_path / "iso.json"
    assert main(["iso", a, b, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["found"] is True
    assert main(["iso", a, z, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["matrix"] is None


def test_table_rendering(tmp_path, capsys):
    path = write_algebra(tmp_path / "sq.json", class_algebra("e1e1=e2"))
    assert main(["table", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == ["e1*e1 = e2", "e1*e2 = 0", "e2*e1 = 0", "e2*e2 = 0"]


def test_table_with_scaled_coefficients(tmp_path, capsys):
    alg = Algebra.from_products(QQ, 2, {(1, 1): ("2", "-1/3")})
    path = write_algebra(tmp_path / "alg.json", alg)
    assert main(["table", path]) == 0
    out = capsys.readouterr().out
    assert "e2*e2 = 2*e1 + -1/3*e2" in out


def test_field_coercion_flag(tmp_path):
    alg = Algebra.from_products(QQ, 2, {(0, 0): ("0", "1/2")})
    path = write_algebra(tmp_path / "half.json", alg)
    out = tmp_path / "report.json"
    assert main(["check", path, "--identity", "jj", "--field", "prime:5",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["field"] == {"kind": "prime", "p": 5}


def test_field_coercion_prime_to_rational_rejected(tmp_path):
    path = write_algebra(tmp_path / "f5.json", class_algebra("zero", GF5))
    assert main(["check", path, "--identity", "jj", "--field", "rational"]) == 2


def test_bad_field_flag(tmp_path):
    path = write_algebra(tmp_path / "z.json", Algebra.zero(QQ, 2))
    assert main(["check", path, "--identity", "jj", "--field", "complex"]) == 2


def test_output_bytes_deterministic(case_one_files, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["double", *case_one_files, "--conformance", "I",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_max_witnesses_flag(tmp_path):
    alg = Algebra.from_products(QQ, 2, {(0, 0): (1, 0), (1, 1): (0, 1)})
    path = write_algebra(tmp_path / "idem.json", alg)
    out = tmp_path / "report.json"
    assert main(["check", path, "--identity", "antiassoc",
                 "--max-witnesses", "1", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert len(doc["witnesses"]) == 1 and doc["truncated"] is True


def assert_one_error_line(capsys, *names):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    for name in names:
        assert name in err[0]


@pytest.mark.parametrize("verb", ["check", "double"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_witness_cap_below_one_is_refused(case_one_files, tmp_path, capsys, verb, cap):
    argv = {"check": ["check", case_one_files[0], "--identity", "jj"],
            "double": ["double", *case_one_files]}[verb]
    out = tmp_path / "out.json"
    assert main([*argv, "--max-witnesses", cap, "--out", str(out)]) == 2
    assert_one_error_line(capsys, "--max-witnesses", cap)
    assert not out.exists()


@pytest.mark.parametrize("text", ["abc", "1/0"])
def test_check_malformed_scalar_exit_code(tmp_path, capsys, text):
    doc = algebra_to_json(class_algebra("e1e1=e2"))
    doc["products"][0]["coeffs"] = ["0", text]
    path = tmp_path / "bad.json"
    path.write_text(dumps(doc))
    assert main(["check", str(path), "--identity", "jj"]) == 2
    assert_one_error_line(capsys, str(path), repr(text), "QQ")


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(dim="abc"),
    lambda doc: doc.update(basis=5),
    lambda doc: doc.update(products=5),
    lambda doc: doc["products"][0].update(coeffs=5),
    lambda doc: doc["products"][0].update(i="a"),
    lambda doc: doc.update(field={"kind": "prime", "p": "x"}),
    lambda doc: doc.update(field={"kind": "prime", "p": None}),
    lambda doc: doc.update(dim=2.5),
    lambda doc: doc.update(dim=33, basis=[], products=[]),
    lambda doc: doc["products"][0].update(i=2),
    lambda doc: doc["products"][0].update(j=-1),
    lambda doc: doc["products"][0].update(coeffs=["1"]),
    lambda doc: doc.update(basis=["e1", []]),
    lambda doc: doc.update(basis=[1, None]),
    # the file is well formed, but 1/5 has no value mod 5
    lambda doc: doc["products"][0].update(coeffs=["0", "1/5"]) or ["--field", "prime:5"],
], ids=["dim-abc", "basis-5", "products-5", "coeffs-5", "i-a", "p-x", "p-null",
        "dim-2.5", "dim-33", "i-2", "j-minus-1", "coeffs-short", "basis-list-label",
        "basis-int-null-labels", "coerce-1/5-mod-5"])
def test_check_malformed_algebra_document(tmp_path, capsys, edit):
    doc = algebra_to_json(class_algebra("e1e1=e2"))
    flags = edit(doc) or []
    path = tmp_path / "bad.json"
    path.write_text(dumps(doc))
    assert main(["check", str(path), "--identity", "jj", *flags]) == 2
    assert_one_error_line(capsys, str(path))


def test_dim_32_still_loads(tmp_path):
    path = write_algebra(tmp_path / "z32.json", Algebra.zero(QQ, 32))
    out = tmp_path / "table.txt"
    assert main(["table", path, "--out", str(out)]) == 0
    assert out.read_text().startswith("dim 32 over QQ")


def test_check_bad_prime_field_flag(tmp_path, capsys):
    path = write_algebra(tmp_path / "z.json", Algebra.zero(QQ, 2))
    assert main(["check", path, "--identity", "jj", "--field", "prime:abc"]) == 2
    assert_one_error_line(capsys, "--field", "prime:abc")


@pytest.mark.parametrize("modulus, code, names", [
    ("7" * 4400, 2, ["--field", "digits"]),  # past int()'s 4,300-digit limit
    ("3317044064679887385961981", 2, ["too large"]),  # psi_13
    ("1000000000000000000000007", 0, []),  # 10^24 + 7, a prime
], ids=["4400-digits", "psi13", "1e24+7"])
def test_check_large_prime_field_flag(tmp_path, capsys, modulus, code, names):
    path = write_algebra(tmp_path / "z.json", Algebra.zero(QQ, 2))
    start = time.perf_counter()
    assert main(["check", path, "--identity", "jj", "--field", f"prime:{modulus}",
                 "--out", str(tmp_path / "out.json")]) == code
    assert time.perf_counter() - start < 1
    if code == 2:
        assert_one_error_line(capsys, *names)


def test_check_integer_past_the_digit_limit(tmp_path, capsys):
    # json.load cannot convert an integer literal of 5,000 digits
    text = Path(write_algebra(tmp_path / "z.json", Algebra.zero(QQ, 2))).read_text()
    assert '"dim": 2' in text
    path = tmp_path / "big.json"
    path.write_text(text.replace('"dim": 2', '"dim": ' + "9" * 5000))
    assert main(["check", str(path), "--identity", "jj"]) == 2
    assert_one_error_line(capsys, str(path), "digits")


def test_check_deeply_nested_json(tmp_path, capsys):
    # json.load recurses once per nesting level
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    start = time.perf_counter()
    assert main(["check", str(path), "--identity", "jj"]) == 2
    assert time.perf_counter() - start < 1
    assert_one_error_line(capsys, str(path), "nested")


def test_check_defect_past_the_digit_limit(tmp_path, capsys):
    # a 2,200-digit coefficient loads and renders, but e1e1 = c e1 fails jj
    # with defect 3c^2, about 4,400 digits: past str()'s limit
    c = 10 ** 2199 + 7
    path = write_algebra(tmp_path / "big.json",
                         Algebra.from_products(QQ, 1, {(0, 0): (c,)}))
    out = tmp_path / "out.json"
    start = time.perf_counter()
    assert main(["check", path, "--identity", "jj", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1
    assert_one_error_line(capsys, "digits")
    assert not out.exists()
    assert main(["table", path, "--out", str(out)]) == 0
    assert str(c) in out.read_text()


@pytest.mark.parametrize("key", ["l", "r"])
def test_semidirect_container_missing_maps(tmp_path, capsys, key):
    doc = bimodule_to_json(PreJJBimodule.regular(class_algebra("e1e1=e2")))
    del doc[key]
    path = tmp_path / "bm.json"
    path.write_text(dumps(doc))
    assert main(["semidirect", str(path)]) == 2
    assert_one_error_line(capsys, str(path), repr(key))


def test_check_non_utf8_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["check", str(path), "--identity", "jj"]) == 2
    assert_one_error_line(capsys, str(path), "UTF-8")


def test_check_directory_exit_code(tmp_path, capsys):
    assert main(["check", str(tmp_path), "--identity", "jj"]) == 2
    assert_one_error_line(capsys, str(tmp_path))


@pytest.mark.parametrize("text", ["[1, 2]", "5"])
@pytest.mark.parametrize("flags", [[], ["--jj"]])
def test_semidirect_container_not_an_object(tmp_path, capsys, flags, text):
    path = tmp_path / "container.json"
    path.write_text(text + "\n")
    assert main(["semidirect", str(path), *flags]) == 2
    assert_one_error_line(capsys, str(path), "JSON object")


@pytest.mark.parametrize("jj", [False, True])
def test_semidirect_container_without_module_dim(tmp_path, capsys, jj):
    if jj:
        doc = rep_to_json(JJRep.adjoint(sub_adjacent(class_algebra("e2e2=e1"))))
        doc["rho"] = []
    else:
        doc = bimodule_to_json(PreJJBimodule.regular(class_algebra("e1e1=e2")))
        doc["l"], doc["r"] = [], []
    del doc["module_dim"]
    path = tmp_path / "nodim.json"
    path.write_text(dumps(doc))
    assert main(["semidirect", str(path)]) == 2
    assert_one_error_line(capsys, str(path), "module_dim")


@pytest.mark.parametrize("maps, flags", [(("rho",), ["--jj"]), (("rho",), []),
                                         (("l", "r"), [])], ids=["rep-jj", "rep", "bimodule"])
def test_semidirect_container_with_module_dim_zero(tmp_path, capsys, maps, flags):
    doc = {"algebra": algebra_to_json(Algebra.zero(QQ, 1)), "module_dim": 0}
    doc.update((key, [[]]) for key in maps)
    path = tmp_path / "dim0.json"
    path.write_text(dumps(doc))
    assert main(["semidirect", str(path), *flags]) == 2
    assert_one_error_line(capsys, str(path), "module must have positive dimension")


def zero_module_container(jj, m):
    alg = Algebra.zero(QQ, 1)
    if jj:
        return rep_to_json(JJRep.zero(alg, m))
    return bimodule_to_json(PreJJBimodule.zero(alg, m))


@pytest.mark.parametrize("jj", [True, False], ids=["rep", "bimodule"])
def test_semidirect_container_with_negative_module_dim(tmp_path, capsys, jj):
    # refused under its own name before any matrix is read against it
    doc = zero_module_container(jj, 1)
    doc["module_dim"] = -1
    path = tmp_path / "negative.json"
    path.write_text(dumps(doc))
    assert main(["semidirect", str(path), *(["--jj"] if jj else [])]) == 2
    assert_one_error_line(capsys, str(path), "module_dim -1",
                          "module must have positive dimension")


@pytest.mark.parametrize("given", [True, False], ids=["given", "inferred"])
@pytest.mark.parametrize("jj", [True, False], ids=["rep", "bimodule"])
def test_semidirect_container_with_module_dim_33(tmp_path, capsys, jj, given):
    # module checks cost about dim**4 like the algebra checks, so module_dim
    # is capped at 32 too, whether given or read off the first map
    doc = zero_module_container(jj, 33)
    if not given:
        del doc["module_dim"]
    path = tmp_path / "m33.json"
    path.write_text(dumps(doc))
    assert main(["semidirect", str(path)]) == 2
    assert_one_error_line(capsys, str(path), "module_dim 33")


@pytest.mark.parametrize("jj", [True, False], ids=["rep", "bimodule"])
def test_semidirect_container_with_module_dim_32_loads(tmp_path, jj):
    path = tmp_path / "m32.json"
    path.write_text(dumps(zero_module_container(jj, 32)))
    out = tmp_path / "sd.json"
    assert main(["semidirect", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["dim"] == 33


def test_cached_parser_gives_the_outputs_of_a_fresh_one(tmp_path):
    square = write_algebra(tmp_path / "sq.json", class_algebra("e1e1=e2"))
    third = write_algebra(tmp_path / "third.json", class_algebra("e2e1=e2"))
    calls = [
        ["subadjacent", square, "--halved"],
        ["subadjacent", square],
        ["check", third, "--identity", "jj", "--field", "prime:5"],
        ["check", third, "--identity", "jj"],
        ["check", square, "--identity", "jj", "--kind", "jj"],
        ["check", square, "--identity", "left-prejj"],
    ]

    def run(argv, out):
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        return code, out.read_bytes() if out.exists() else None

    cached = [run(argv, tmp_path / f"cached{k}") for k, argv in enumerate(calls)]
    fresh = []
    for k, argv in enumerate(calls):
        build_parser.cache_clear()
        fresh.append(run(argv, tmp_path / f"fresh{k}"))
    assert cached == fresh
    assert [code for code, _ in cached] == [0, 0, 1, 1, 2, 0]
    assert cached[0][1] != cached[1][1] and cached[2][1] != cached[3][1]


def test_iso_rational_bound_guard(tmp_path, capsys):
    square, cube = class_algebra("e1e1=e2"), class_algebra("e2e2=e1")
    a = write_algebra(tmp_path / "a.json", square)
    b = write_algebra(tmp_path / "b.json", cube)
    out = tmp_path / "iso.json"
    assert main(["iso", a, b, "--bound", "50", "--out", str(out)]) == 0
    matrix = matrix_from_json(QQ, json.loads(out.read_text())["matrix"])
    assert structure_equal(apply_basis_change(square, matrix), cube)
    # a dim-6 basis change has 36 entries, past the solver's 27 unknowns
    six = write_algebra(tmp_path / "six.json", Algebra.zero(QQ, 6))
    assert main(["iso", six, six]) == 2
    assert_one_error_line(capsys, "36 unknowns")


def test_unwritable_out_exit_code(tmp_path, capsys):
    path = write_algebra(tmp_path / "z.json", Algebra.zero(QQ, 2))
    out = tmp_path / "missing-dir" / "out.json"
    assert main(["check", path, "--identity", "jj", "--out", str(out)]) == 2
    assert_one_error_line(capsys, str(out))


def test_check_accepts_invertible_fraction_over_prime_field(tmp_path):
    doc = algebra_to_json(class_algebra("e1e1=e2", GF5))
    doc["products"][0]["coeffs"] = ["0", "1/2"]
    path = tmp_path / "half.json"
    path.write_text(dumps(doc))
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--identity", "jj", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True
    assert main(["table", str(path), "--out", str(out)]) == 0
    assert "e1*e1 = 3*e2" in out.read_text()


def _fixture_with(change):
    doc = json.loads(case_table_path("I").read_text())
    change(doc["entries"][0])
    return doc


@pytest.mark.parametrize("doc", [
    [1, 2],
    5,
    {"entries": 5},
    _fixture_with(lambda row: row.update(expected=["1", "0", "0"])),
    _fixture_with(lambda row: row.update(left=[5, 0])),
    _fixture_with(lambda row: row.update(left=[1.7, 0])),
], ids=["list", "int", "entries-int", "short-expected", "left-out-of-range",
        "left-float"])
def test_double_malformed_conformance_fixture(case_one_files, tmp_path, capsys, doc):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    assert main(["double", *case_one_files, "--conformance", str(path),
                 "--out", str(tmp_path / "d.json")]) == 2
    assert_one_error_line(capsys, str(path))


def test_iso_negative_bound(tmp_path, capsys):
    a = write_algebra(tmp_path / "a.json", class_algebra("e1e1=e2"))
    assert main(["iso", a, a, "--bound", "-3"]) == 2
    assert_one_error_line(capsys, "bound")


@pytest.mark.parametrize("flags", [["--bound", str(10 ** 19)],
                                   ["--field", f"prime:{10 ** 24 + 7}"]],
                         ids=["bound-1e19", "prime-1e24+7"])
def test_iso_entry_range_past_max_scan_is_refused(tmp_path, capsys, flags):
    # the solver tries every value of the first entry, more than 10^7 here
    a = write_algebra(tmp_path / "a.json", class_algebra("e1e1=e2"))
    assert main(["iso", a, a, *flags]) == 2
    assert_one_error_line(capsys, "more than 10000000 assignments")


# sha256 of each verb's (argv, exit code, stdout, stderr) runs over the
# bundled files, with the data and tmp directories written as placeholders:
# the CLI is free to change how it works, not a byte of what it prints.
CLI_SHA256 = {
    "check": "3b55b6ed7a6add7b263ef8c7fa7602b7314c3e87da089a6d1bf7b63b9bb1a94f",
    "table": "9659fb90355ff9a7ab9038e95054a7ff8b1154d7005630fd129e95397d2bd8a1",
    "subadjacent": "469e1b64acd868335379e33495f6cd7db8b8f134d8bb1585f41f70c66ca49940",
    "double": "e24f60d43bbba21874d54b8dd719acf8e3b06bde9d50178af7afea5f8b16fc9e",
    "iso": "38319aeb421dbf3d93f0c46e18a997de447f2c64b8a43d8caabeda3e9ce5f771",
    "classify": "1ed55d4a34036cf3677986d36d7230c4de908a4e823ac862c982daa2c0a29100",
    "semidirect": "9d7f1a5ae371a350e8aa76c81bdbf7bb897a342ddfcd5b4011684bab71e926a4",
    "errors": "703b8b0b9956dc0d892f9dadc020e2e2aef96285dd29abc037ca4cc7db6f5c13",
}


def pinned_cli_runs(tmp_path):
    """The argument lists of each pinned verb, keyed as ``CLI_SHA256``."""
    data = case_table_path("I").parent
    classes = [str(path) for path in sorted(data.glob("class_*.json"))]
    containers = []
    for k, path in enumerate(classes):
        alg = algebra_from_json(json.loads(Path(path).read_text()))
        for name, doc in (("bm", bimodule_to_json(PreJJBimodule.regular(alg))),
                          ("rep", rep_to_json(JJRep.adjoint(sub_adjacent(alg))))):
            containers.append(tmp_path / f"{name}{k}.json")
            containers[-1].write_text(dumps(doc))
    no_r = bimodule_to_json(PreJJBimodule.regular(class_algebra("e1e1=e2")))
    del no_r["r"]
    (tmp_path / "no_r.json").write_text(dumps(no_r))
    (tmp_path / "m33.json").write_text(dumps(zero_module_container(False, 33)))
    (tmp_path / "bad.json").write_text("not json\n")
    fields = ([], ["--field", "prime:5"], ["--field", "prime:7"])
    square = classes[0]
    return {
        "check": [["check", path, "--identity", identity, *field]
                  for path in classes for identity in IDENTITY_ALIASES for field in fields],
        "table": [["table", path, *field] for path in classes for field in fields],
        "subadjacent": [["subadjacent", path, *halved]
                        for path in classes for halved in ([], ["--halved"])],
        "double": [["double", str(data / f"class_{base}.json"),
                    str(data / f"case_{case}_dual.json"), "--kind", kind, *conformance]
                   for case, base in (("I", "e1e1_e2"), ("II", "e2e1_e2"),
                                      ("III", "e2e2_e1"))
                   for kind in ("prejj", "jj")
                   for conformance in ([], ["--conformance", case])],
        "iso": [["iso", a, b, *field] for a in classes for b in classes
                for field in (["--field", "prime:5"], [])],
        "classify": [["classify", "--dim", str(dim), "--prime", str(p), "--kind", kind]
                     for dim in (1, 2) for p in (2, 3) for kind in IDENTITY_ALIASES],
        "semidirect": [["semidirect", str(path)] for path in containers],
        "errors": [
            ["check", str(tmp_path / "missing.json"), "--identity", "jj"],
            ["check", str(tmp_path / "bad.json"), "--identity", "jj"],
            ["semidirect", str(tmp_path / "no_r.json")],
            ["semidirect", str(tmp_path / "m33.json")],
            ["check", square, "--identity", "jj", "--field", "prime:abc"],
            ["check", square, "--identity", "jj",
             "--out", str(tmp_path / "missing-dir" / "out.json")],
            ["check", square, "--identity", "jj", "--max-witnesses", "0"],
            ["check", square, "--identity", "lie"],
        ],
    }


def test_cli_outputs_are_pinned(tmp_path, capsys):
    data = str(case_table_path("I").parent)
    for verb, runs in pinned_cli_runs(tmp_path).items():
        seen = []
        for argv in runs:
            code = main(argv)
            out, err = capsys.readouterr()
            seen.append([argv, code, out, err])
        text = json.dumps(seen).replace(data, "<data>").replace(str(tmp_path), "<tmp>")
        assert hashlib.sha256(text.encode()).hexdigest() == CLI_SHA256[verb], verb
