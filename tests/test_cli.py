import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gsb
from gsb.cli import run
from gsb.poly import _digits

AAB = "alphabet: a > b\nordering: deglex\nrelations:\na*a - b\n"
# the cyclic group of order 3 as a group-table file: elements 1, 2 and the identity 0
CYCLIC_3 = {
    "size": 2,
    "product": {"1 1": 2, "1 2": 0, "2 1": 0, "2 2": 1},
    "inverse": {"1": 2, "2": 1},
}


def _with_product(entry, value):
    return json.dumps({**CYCLIC_3, "product": {**CYCLIC_3["product"], entry: value}})


@pytest.fixture
def aab_file(tmp_path):
    path = tmp_path / "aab.pres"
    path.write_text(AAB)
    return str(path)


def test_check_not_certified_exits_2(aab_file, capsys):
    assert run(["check", aab_file]) == 2
    out = capsys.readouterr().out
    assert "a*a*a" in out and "a*b - b*a" in out


def test_check_json(aab_file, capsys):
    assert run(["check", aab_file, "--json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "NotCertified"
    assert data["nontrivial"][0]["residual"] == "a*b - b*a"


def test_complete_json_schema(aab_file, capsys):
    assert run(["complete", aab_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"status", "added", "nontrivial", "processed"}
    assert data["status"] == "CertifiedGSB"
    assert data["added"] == ["a*b - b*a"]


def test_complete_writes_output_and_recheck(aab_file, tmp_path, capsys):
    out = str(tmp_path / "done.pres")
    assert run(["complete", aab_file, "-o", out]) == 0
    capsys.readouterr()
    assert run(["check", out]) == 0
    assert "certified" in capsys.readouterr().out


def test_complete_degree_bounded_exit(aab_file, capsys):
    assert run(["complete", aab_file, "--max-deg", "2", "--json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "CompleteUpToDegree(2)"


def test_nf_and_trace(aab_file, tmp_path, capsys):
    out = str(tmp_path / "done.pres")
    run(["complete", aab_file, "-o", out])
    capsys.readouterr()
    assert run(["nf", out, "--poly", "a*a*a"]) == 0
    assert capsys.readouterr().out.strip() == "b*a"
    assert run(["nf", out, "--poly", "a*a*a", "--trace"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "b*a"
    assert any(line.startswith("step 1:") for line in lines)


def test_irr_and_dim(aab_file, tmp_path, capsys):
    out = str(tmp_path / "done.pres")
    run(["complete", aab_file, "-o", out])
    capsys.readouterr()
    assert run(["irr", out, "--max-deg", "3"]) == 0
    words = capsys.readouterr().out.split()
    assert words == ["1", "b", "a", "b*b", "b*a", "b*b*b", "b*b*a"]
    assert run(["dim", out, "--max-deg", "3"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_irr_count_only_counts_the_listing(tmp_path, capsys):
    tower = tmp_path / "tower.pres"
    tower.write_text(
        "alphabet: t > t^-1 > a\nordering: tower(t, t^-1)\nrelations:\n"
        "t*t^-1 - 1\na*t - t*a*a\n"
    )
    unit = tmp_path / "unit.pres"
    unit.write_text("alphabet: a > b\nordering: deglex\nrelations:\na - 1\nb - 1\n1\n")
    for path in (str(tower), str(unit)):
        for max_deg in ("0", "3"):
            assert run(["irr", path, "--max-deg", max_deg]) == 0
            listed = capsys.readouterr().out.splitlines()
            assert run(["irr", path, "--max-deg", max_deg, "--count-only"]) == 0
            assert capsys.readouterr().out == f"{len(listed)}\n"


def test_irr_count_only_prints_counts_past_the_int_str_digit_limit(tmp_path, capsys):
    path = tmp_path / "bba.pres"
    path.write_text("alphabet: a > b\nordering: deglex\nrelations:\nb*b - a\n")
    assert run(["irr", str(path), "--max-deg", "25000", "--count-only"]) == 0
    # the irreducible words avoid b*b: F(n + 2) of them at degree n, F(25004) - 2 in all
    fib = [0, 1]
    for _ in range(25003):
        fib = [fib[1], fib[0] + fib[1]]
    out = capsys.readouterr().out
    assert out == _digits(fib[1] - 2) + "\n"
    assert len(out) == 5226 + 1


def test_lyndon_commands(capsys):
    assert run(["lyndon", "--alphabet", "x2>x1", "--max-len", "4", "--count-only"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["1 2", "2 1", "3 2", "4 3"]
    assert run(["lyndon", "--alphabet", "x2>x1", "--max-len", "2", "--bracket"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["x2\tx2", "x1\tx1", "x2*x1\t[x2 x1]"]


@pytest.fixture
def lowest_int_digit_limit():
    """Python's lowest int/str digit limit, 640, where the interpreter has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_lyndon_count_only_prints_counts_past_the_int_str_digit_limit(
    lowest_int_digit_limit, capsys
):
    assert run(["lyndon", "--alphabet", "b>a", "--max-len", "2200", "--count-only"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [str(n) for n in range(1, 2201)]
    # Witt's formula: (1/n) * sum of mu(d) * 2^(n/d) over d | n; 2200 = 2^3 * 5^2 * 11
    total = 0
    for k in range(3):
        for primes in itertools.combinations((2, 5, 11), k + 1):
            total += (-1) ** len(primes) * 2 ** (2200 // math.prod(primes))
    expected = (2**2200 + total) // 2200
    assert lines[-1] == "2200 " + _digits(expected)
    assert len(_digits(expected)) > 640


def test_construct_module_cyclic_roundtrip(tmp_path, capsys):
    base = tmp_path / "mod.pres"
    base.write_text(
        "alphabet: a > b\nordering: module-top\nbasis: y1 > y2\nrelations:\n"
    )
    out = str(tmp_path / "cyclic.pres")
    assert run(["construct", "module-cyclic", str(base), "--count", "2", "-o", out]) == 0
    cert = json.loads((tmp_path / "cyclic.pres.cert.json").read_text())
    assert cert["status"] == "CertifiedGSB"
    capsys.readouterr()
    assert run(["check", out]) == 0


def test_construct_malcev(tmp_path, capsys):
    base = tmp_path / "base.pres"
    base.write_text(
        "alphabet: x1 > x2\nordering: deglex\nrelations:\nx1*x2 - x2*x1\n"
    )
    assert run(["construct", "malcev", str(base), "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert "a*a*b*a*b - x1" in out
    assert "alphabet: a > b > x1 > x2" in out


@pytest.mark.parametrize(
    "kind, text, message",
    [
        (
            "malcev",
            "alphabet: x1 > x2\nordering: deglex\nrelations:\nx1*x1 - x2\n",
            "the base presentation is not a certified basis",
        ),
        (
            "module-cyclic",
            "alphabet: a > b\nordering: module-top\nbasis: y1 > y2\nrelations:\n"
            "a*y1 - y2\nb*a*y1 - y1\n",
            "the base module presentation is not certified",
        ),
    ],
)
def test_construct_on_an_uncertified_base_exits_1_and_writes_nothing(
    kind, text, message, tmp_path, capsys
):
    base = tmp_path / "base.pres"
    base.write_text(text)
    out = tmp_path / "out.pres"
    assert run(["construct", kind, str(base), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not (tmp_path / "out.pres.cert.json").exists()


def test_construct_hnn_cyclic(tmp_path, capsys):
    out = str(tmp_path / "hnn.pres")
    assert run(["construct", "hnn", "--cyclic", "3", "-o", out]) == 0
    capsys.readouterr()
    assert run(["check", out]) == 0


def test_construct_hnn_table_file_equals_cyclic(tmp_path, capsys):
    table = tmp_path / "c3.json"
    table.write_text(json.dumps(CYCLIC_3))
    assert run(["construct", "hnn", "--table", str(table)]) == 0
    from_table = capsys.readouterr().out
    assert run(["construct", "hnn", "--cyclic", "3"]) == 0
    assert from_table == capsys.readouterr().out
    assert from_table.startswith("alphabet: ")


@pytest.mark.parametrize(
    "product, inverse, message",
    [
        ({"\u0661 1": 2}, {}, "an index of table key '\u0661 1' is '\u0661', not an integer"),
        ({"1 1": "0_0"}, {}, "product entry (1,1) is '0_0', not an integer"),
        ({}, {"\u0661": 2}, "an inverse key is '\u0661', not an integer"),
        ({}, {"1": " 2 "}, "inverse entry 1 is ' 2 ', not an integer"),
    ],
    ids=["product-key", "product-entry", "inverse-key", "inverse-entry"],
)
def test_construct_hnn_reads_table_integers_as_ints_or_ascii_digits(
    tmp_path, capsys, product, inverse, message
):
    table = tmp_path / "g.json"
    c3 = {"size": "2", "product": {"1 1": "2", "1 2": "0", "2 1": 0, "2 2": 1}}
    table.write_text(json.dumps({**c3, "inverse": {"1": "2", "2": 1}}))
    assert run(["construct", "hnn", "--table", str(table)]) == 0
    from_table = capsys.readouterr().out
    assert run(["construct", "hnn", "--cyclic", "3"]) == 0
    assert from_table == capsys.readouterr().out
    bad = {"product": {**c3["product"], **product}, "inverse": {"1": 2, "2": 1, **inverse}}
    table.write_text(json.dumps({**c3, **bad}))
    assert run(["construct", "hnn", "--table", str(table)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "kind, table, message",
    [
        (
            "hnn",
            {**CYCLIC_3, "product": {**CYCLIC_3["product"], "01 1": 2}},
            "product entry (1,1) is given twice",
        ),
        (
            "hnn",
            {**CYCLIC_3, "inverse": {**CYCLIC_3["inverse"], "01": 2}},
            "inverse entry 1 is given twice",
        ),
        (
            "simple",
            {
                "basis": ["x1", "x2"],
                "product": {"01 1": "x2", "1 1": "x1", "1 2": "x2", "2 1": "x2", "2 2": "x2"},
            },
            "product entry (1,1) is given twice",
        ),
    ],
    ids=["hnn-product", "hnn-inverse", "simple-product"],
)
def test_construct_refuses_a_table_key_spelled_twice(kind, table, message, tmp_path, capsys):
    # "01" and "1" name one index, so keeping either entry would drop the other
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    out = tmp_path / "t.pres"
    assert run(["construct", kind, "--table", str(path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not (tmp_path / "t.pres.cert.json").exists()


@pytest.mark.parametrize(
    "kind, flag, text, key",
    [
        ("hnn", "--table", '{"size": 2, "product": {"1 1": 2, "1 1": 0}, "inverse": {}}', "1 1"),
        ("hnn", "--table", '{"size": 2, "size": 2, "product": {}, "inverse": {}}', "size"),
        ("simple", "--table", '{"basis": ["x1"], "product": {"1 1": "x1", "1 1": "x1"}}', "1 1"),
        ("simple", "--pairs", '{"pairs": [{"f": "x1", "g": "x1", "f": "x1"}]}', "f"),
    ],
    ids=["hnn-product", "hnn-top-level", "simple-product", "simple-pairs"],
)
def test_construct_refuses_a_json_key_given_twice(kind, flag, text, key, tmp_path, capsys):
    # json keeps the last value of a key given twice, which would drop the first
    path = tmp_path / "given.json"
    path.write_text(text)
    args = ["construct", kind, flag, str(path)]
    if flag == "--pairs":
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"basis": ["x1"], "product": {"1 1": "x1"}}))
        args += ["--table", str(table)]
    out = tmp_path / "t.pres"
    assert run([*args, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: key {key!r} is given twice\n"
    assert not out.exists() and not (tmp_path / "t.pres.cert.json").exists()


@pytest.mark.parametrize(
    "kind, flags",
    [
        ("hnn", {"-o", "--output", "--cert", "--cyclic", "--table", "--index-bound"}),
        ("malcev", {"-o", "--output", "--cert", "--count", "--a", "--b"}),
        ("simple", {"-o", "--output", "--cert", "--table", "--pairs", "--m-bound", "--n-bound"}),
        ("module-cyclic", {"-o", "--output", "--cert", "--count", "--generator"}),
        ("lie-words", {"--max-i"}),
    ],
)
def test_construct_help_lists_only_the_flags_of_its_kind(kind, flags, capsys):
    assert run(["construct", kind, "-h"]) == 0
    words = capsys.readouterr().out.replace(",", " ").replace("[", " ").replace("]", " ").split()
    assert {w for w in words if w.startswith("-")} == flags | {"-h", "--help"}


def test_construct_simple_over_a_formal_inverse_basis(tmp_path, capsys):
    table = tmp_path / "table.json"
    product = {"1 1": "x", "1 2": "x", "2 1": "x^-1", "2 2": "x^-1"}
    table.write_text(json.dumps({"basis": ["x", "x^-1"], "product": product}))
    out = tmp_path / "simple.pres"
    assert run(["construct", "simple", "--table", str(table), "-o", str(out)]) == 0
    assert out.read_text().startswith("alphabet: ")
    assert run(["check", str(out)]) == 0


def test_construct_simple_on_a_non_associative_table_exits_1_and_writes_nothing(
    tmp_path, capsys
):
    table = tmp_path / "na.json"
    product = {"1 1": "x2", "1 2": "x2", "2 1": "x1", "2 2": "x1"}
    table.write_text(json.dumps({"basis": ["x1", "x2"], "product": product}))
    out = tmp_path / "n.pres"
    assert run(["construct", "simple", "--table", str(table), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: a table overlap was nontrivial; the table is not associative\n"
    )
    assert not out.exists() and not (tmp_path / "n.pres.cert.json").exists()


def test_construct_simple_on_a_zero_denominator_exits_1_and_writes_nothing(tmp_path, capsys):
    table = tmp_path / "z.json"
    table.write_text(json.dumps({"basis": ["x1"], "product": {"1 1": {"x1": "1/0"}}}))
    out = tmp_path / "z.pres"
    assert run(["construct", "simple", "--table", str(table), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: entry (1,1) coefficient of 'x1' is '1/0', with a zero denominator\n"
    )
    assert not out.exists() and not (tmp_path / "z.pres.cert.json").exists()


def test_construct_simple_with_tables(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(
        json.dumps(
            {
                "basis": ["x1", "x2"],
                "product": {
                    "1 1": "x1",
                    "1 2": "x1",
                    "2 1": "x2",
                    "2 2": "x2",
                },
            }
        )
    )
    pairs = tmp_path / "pairs.json"
    pairs.write_text(
        json.dumps(
            {"pairs": [{"f": "x1", "g": "x2", "x": "u1", "y": "v1"}]}
        )
    )
    out = str(tmp_path / "simple.pres")
    assert (
        run(
            [
                "construct",
                "simple",
                "--table",
                str(table),
                "--pairs",
                str(pairs),
                "--m-bound",
                "1",
                "--n-bound",
                "1",
                "-o",
                out,
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert run(["check", out]) == 0


def test_usage_and_input_errors(tmp_path, capsys):
    assert run(["nonsense"]) == 1
    capsys.readouterr()
    assert run(["check", str(tmp_path / "missing.pres")]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.pres"
    bad.write_text("alphabet: a\nordering: bogus\nrelations:\n")
    assert run(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_relation_syntax_error_names_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_text("alphabet: a > b\nordering: deglex\nrelations:\na*b - b*a\na*a - 1/0*b\n")
    assert run(["check", str(bad)]) == 1
    assert capsys.readouterr().err == "error: line 5: zero denominator (at position 6)\n"


def test_unknown_symbol_names_its_line_and_position(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_text("alphabet: a > b\nordering: deglex\nrelations:\na*b - b*a\na*z - b\n")
    assert run(["check", str(bad)]) == 1
    assert capsys.readouterr().err == "error: line 5: unknown symbol 'z' (at position 2)\n"


def test_dim_rejects_module_presentations(tmp_path, capsys):
    mod = tmp_path / "mod.pres"
    mod.write_text("alphabet: a > b\nordering: module-top\nbasis: y1\nrelations:\n")
    assert run(["dim", str(mod), "--max-deg", "2"]) == 1


def test_dim_does_not_take_module_flag(aab_file, capsys):
    assert run(["dim", aab_file, "--max-deg", "2", "--module"]) == 1
    assert "unrecognized arguments: --module" in capsys.readouterr().err


def test_module_flag_asserts_module_input(aab_file, tmp_path, capsys):
    assert run(["check", aab_file, "--module"]) == 1
    assert "module" in capsys.readouterr().err
    mod = tmp_path / "mod.pres"
    mod.write_text(
        "alphabet: a > b\nordering: module-top\nbasis: y1 > y2\nrelations:\na*y1 - y2\n"
    )
    assert run(["check", str(mod), "--module"]) == 0
    capsys.readouterr()
    assert run(["nf", str(mod), "--poly", "b*a*y1", "--module"]) == 0
    assert capsys.readouterr().out.strip() == "b*y2"
    assert run(["irr", str(mod), "--max-deg", "1", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "5"


@pytest.mark.parametrize("value", ["\u0663", "\uff13", "1_0", " 2 ", "+3"])
def test_an_integer_flag_is_read_as_ascii_digits(aab_file, capsys, value):
    # int() would read each of these as an integer
    assert run(["irr", aab_file, "--max-deg", value, "--count-only"]) == 1
    assert capsys.readouterr().err == (
        f"error: argument --max-deg: {value!r} is not an integer of ASCII digits\n"
    )
    assert run(["irr", aab_file, "--max-deg", "-1", "--count-only"]) == 1
    assert capsys.readouterr().err == "error: max_deg must be >= 0, got -1\n"


def test_complete_and_a_traced_normal_form_on_a_module_presentation(tmp_path, capsys):
    mod = tmp_path / "mod.pres"
    mod.write_text(
        "alphabet: a > b\nordering: module-top\nbasis: y1 > y2\nrelations:\n"
        "a*y1 - y2\na*y1 - b*y2\n"
    )
    done = tmp_path / "done.pres"
    assert run(["complete", str(mod), "-o", str(done)]) == 0
    assert capsys.readouterr().out == "status: CertifiedGSB\nprocessed: 0 compositions\n"
    assert done.read_text() == (
        "alphabet: a > b\nordering: module-top\nbasis: y1 > y2\nrelations:\n"
        "b*y2 - y2\na*y1 - y2\n"
    )
    assert run(["nf", str(done), "--poly", "a*a*y1", "--trace"]) == 0
    assert capsys.readouterr().out == "step 1: rule #1 left a: a*a*y1\na*y2\n"


def test_capacity_env_override(aab_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GSB_MAX_WORDS", "4")
    assert run(["dim", aab_file, "--max-deg", "3"]) == 1
    assert "capacity" in capsys.readouterr().err
    monkeypatch.setenv("GSB_MAX_WORDS", "40000")
    assert run(["dim", aab_file, "--max-deg", "3"]) == 0
    capsys.readouterr()
    for bad in ("0", "-5", "1e3"):
        monkeypatch.setenv("GSB_MAX_WORDS", bad)
        assert run(["dim", aab_file, "--max-deg", "3"]) == 1
        assert "GSB_MAX_WORDS must be a positive integer" in capsys.readouterr().err


def test_capacity_env_takes_ascii_digits_only(aab_file, capsys, monkeypatch):
    # other scripts' digits, underscores, blanks and signs are refused, as in table files
    for bad in ("\u0663", "1_0", " 7 ", "+5", "4\n"):
        monkeypatch.setenv("GSB_MAX_WORDS", bad)
        assert run(["dim", aab_file, "--max-deg", "3"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: GSB_MAX_WORDS must be a positive integer, got {bad!r}\n"
    # a capacity past Python's int/str digit limit is read in chunks
    monkeypatch.setenv("GSB_MAX_WORDS", "9" * 5000)
    assert run(["dim", aab_file, "--max-deg", "3"]) == 0
    capsys.readouterr()


def test_selftest_exit_codes(monkeypatch, capsys):
    import gsb.selftest as selftest

    monkeypatch.setattr(
        selftest, "CRITERIA", (("0 stub", lambda: (True, "ok")),)
    )
    assert run(["selftest"]) == 0
    assert "PASS" in capsys.readouterr().out
    monkeypatch.setattr(
        selftest, "CRITERIA", (("0 stub", lambda: (False, "bad")),)
    )
    assert run(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,env",
    [
        (["complete", "F", "--max-deg", "0"], {}),
        (["irr", "F", "--max-deg", "-1"], {}),
        (["lyndon", "--alphabet", "a>b", "--max-len", "0"], {}),
        (["dim", "F", "--max-deg", "3"], {"GSB_MAX_WORDS": "abc"}),
        # 2**20001 - 1 words: a count past Python's int/str digit limit
        (["dim", "F", "--max-deg", "20000"], {}),
        (["dim", "F", "--max-deg", "200000"], {}),
        (["check", "F", "--max-deg", "-3"], {}),
        (["check", "M", "--max-deg", "0"], {}),
        (["nf", "F", "--poly", "1/0*a"], {}),
        (["check", "Z"], {}),
        (["lyndon", "--alphabet", "b>a", "--max-len", "3", "--count-only", "--bracket"], {}),
        (["construct", "hnn", "--table", "J"], {}),
        (["construct", "simple", "--table", "T", "--pairs", "J"], {}),
        (["construct", "simple", "--table", "P"], {}),
        (["check", "U"], {}),
        (["check", "W"], {}),
        (["construct", "hnn", "--table", "GI"], {}),
        (["construct", "hnn", "--table", "GS"], {}),
        (["construct", "simple", "--table", "MI"], {}),
        (["construct", "hnn", "--table", "LD"], {}),
        (["construct", "hnn", "--table", "DN"], {}),
        (["construct", "hnn", "--table", "GF"], {}),
        (["construct", "hnn", "--table", "GB"], {}),
        (["construct", "simple", "--table", "MF"], {}),
        (["construct", "simple", "--table", "MB"], {}),
        ([], {}),
        (["complete"], {}),
        (["nonsense"], {}),
        (["construct"], {}),
        (["construct", "hnn"], {}),
        (["construct", "hnn", "--cyclic", "x"], {}),
        (["construct", "malcev"], {}),
        (["construct", "lie-words", "-o", "OUT"], {}),
        # a capacity and a word count past the digit limit, in the capacity error
        (["dim", "F", "--max-deg", "20000"], {"GSB_MAX_WORDS": "9" * 5000}),
    ],
)
def test_limit_errors_exit_1_without_traceback(aab_file, tmp_path, argv, env):
    # a fresh process, so an uncaught exception would show its traceback
    files = {"F": aab_file}
    for name, text in (
        ("M", "alphabet: a > b\nordering: module-top\nbasis: y1 > y2\nrelations:\na*y1 - y2\n"),
        ("Z", "alphabet: a > b\nordering: deglex\nrelations:\na*a - 1/0*b\n"),
        ("J", "not json"),
        ("T", json.dumps({"basis": ["x1"], "product": {"1 1": "x1"}})),
        ("P", json.dumps({"basis": ["x1"], "product": {"1 1": 5}})),
        ("W", "alphabet: a > b\nordering: module-top(tower(t, t^-1))\nbasis: y1\nrelations:\n"),
        # JSON tables: Infinity as an entry, 1e400 as the size, Infinity as a
        # coefficient, a 5000-digit literal, deep nesting, a float, a bool, and a
        # float and a bool as multiplication-table coefficients
        ("GI", _with_product("1 1", float("inf"))),
        ("GS", json.dumps(CYCLIC_3).replace('"size": 2', '"size": 1e400')),
        ("MI", json.dumps({"basis": ["x1"], "product": {"1 1": {"x1": float("inf")}}})),
        ("LD", json.dumps(CYCLIC_3).replace('"size": 2', '"size": ' + "9" * 5000)),
        ("DN", "[" * 200_000),
        ("GF", _with_product("1 1", 2.7)),
        ("GB", _with_product("2 2", True)),
        ("MF", json.dumps({"basis": ["x1"], "product": {"1 1": {"x1": 2.7}}})),
        ("MB", json.dumps({"basis": ["x1"], "product": {"1 1": {"x1": True}}})),
    ):
        files[name] = str(tmp_path / f"{name}.pres")
        Path(files[name]).write_text(text)
    # not UTF-8
    files["U"] = str(tmp_path / "U.pres")
    Path(files["U"]).write_bytes(b"alphabet: a > b\nordering: deglex\nrelations:\n\xff*a\n")
    argv = [files.get(a, a) for a in argv]
    src = str(Path(gsb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "gsb.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_dim_capacity_error_stops_at_the_first_degree_past_the_capacity(aab_file, capsys):
    start = time.perf_counter()
    assert run(["dim", aab_file, "--max-deg", "200000"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: 32767 words of degree <= 14 exceed the capacity 20000; max_deg is 200000\n"
    )


@pytest.mark.parametrize("chain", ["a>>b", "b>a>", " > a"])
def test_lyndon_alphabet_is_read_as_a_file_alphabet_is(chain, capsys):
    assert run(["lyndon", "--alphabet", chain, "--max-len", "2"]) == 1
    assert capsys.readouterr().err == "error: empty symbol in --alphabet\n"


def test_lyndon_count_only_three_letters(capsys):
    argv = ["lyndon", "--alphabet", "c>b>a", "--max-len", "13", "--count-only"]
    assert run(argv) == 0
    counts = [3, 3, 8, 18, 48, 116, 312, 810, 2184, 5880, 16104, 44220, 122640]
    assert capsys.readouterr().out == "".join(
        f"{n} {c}\n" for n, c in enumerate(counts, start=1)
    )
    assert run(["lyndon", "--alphabet", "c>b>a", "--max-len", "0", "--count-only"]) == 1
    assert capsys.readouterr().err == "error: max_len must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["construct", "lie-words", "--max-i", "2", "-o", "OUT", "--cert", "CERT"], "-o"),
        (["construct", "lie-words", "--max-i", "2", "-o", "OUT"], "-o"),
        (["construct", "lie-words", "--max-i", "2", "--cert", "CERT"], "--cert"),
        (["construct", "lie-words", "--max-i", "2", "--count", "2"], "--count"),
        (["construct", "hnn", "--cyclic", "3", "--count", "2", "-o", "OUT"], "--count"),
        (["construct", "simple", "--table", "TABLE", "--count", "2", "-o", "OUT"], "--count"),
        (
            ["construct", "lie-words", "nonexistent.pres", "--max-i", "1", "--cyclic", "3",
             "--pairs", "x.json"],
            "nonexistent.pres",
        ),
        (
            ["construct", "hnn", "nonexistent.pres", "--cyclic", "3", "-o", "OUT"],
            "nonexistent.pres",
        ),
        (["construct", "simple", "nonexistent.pres", "--table", "TABLE"], "nonexistent.pres"),
        (["construct", "lie-words", "--cyclic", "3"], "--cyclic"),
        (["construct", "simple", "--table", "TABLE", "--cyclic", "3", "-o", "OUT"], "--cyclic"),
        (["construct", "malcev", "nonexistent.pres", "--table", "TABLE"], "--table"),
        (["construct", "module-cyclic", "nonexistent.pres", "--table", "TABLE"], "--table"),
        (["construct", "simple", "--table", "TABLE", "--index-bound", "2"], "--index-bound"),
        (["construct", "malcev", "nonexistent.pres", "--index-bound", "2"], "--index-bound"),
        (["construct", "hnn", "--cyclic", "3", "--pairs", "x.json", "--cert", "CERT"], "--pairs"),
        (["construct", "module-cyclic", "nonexistent.pres", "--pairs", "x.json"], "--pairs"),
        (["construct", "hnn", "--cyclic", "2", "--table", "nonexistent.json"], "--table"),
        (["construct", "lie-words", "--max-i", "1", "--a", "p"], "--a"),
        (["construct", "module-cyclic", "nonexistent.pres", "--b", "q"], "--b"),
        (["construct", "lie-words", "--max-i", "1", "--generator", "z"], "--generator"),
        (["construct", "lie-words", "--m-bound", "2"], "--m-bound"),
        (["construct", "malcev", "nonexistent.pres", "--n-bound", "2"], "--n-bound"),
        (["construct", "hnn", "--cyclic", "3", "--max-i", "2"], "--max-i"),
    ],
)
def test_construct_rejects_flags_its_kind_does_not_read(tmp_path, argv, flag):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"basis": ["x1"], "product": {"1 1": "x1"}}))
    names = {"OUT": tmp_path / "out.pres", "CERT": tmp_path / "out.cert.json", "TABLE": table}
    argv = [str(names.get(a, a)) for a in argv]
    src = str(Path(gsb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "gsb.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0]
    assert done.stdout == ""
    assert not names["OUT"].exists() and not names["CERT"].exists()
