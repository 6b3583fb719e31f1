import json
import time

import pytest

from permupoly import circle, families, field, scan
from permupoly.cli import main
from permupoly.families import ELEMENT_PARAMS, FAMILIES, INT_PARAMS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pp_example1(capsys):
    code, out, _ = run(capsys, "check-pp", "--field", "2^6",
                       "--poly", "(g^1*x+g^3)^5 + x^4 + g^48*x")
    assert code == 0
    assert "permutation" in out.splitlines()[0]


def test_check_pp_negative_exit(capsys):
    code, out, _ = run(capsys, "check-pp", "--field", "2^3", "--poly", "x^2+x")
    assert code == 1
    assert "not-permutation" in out
    assert "f(0) = f(1)" in out


def test_check_pp_assert_flag(capsys):
    code, _, _ = run(capsys, "check-pp", "--field", "2^3", "--poly", "x^2+x",
                     "--assert", "not-pp")
    assert code == 0
    code, _, _ = run(capsys, "check-pp", "--field", "2^3", "--poly", "x",
                     "--assert", "not-pp")
    assert code == 1


def test_check_pp_complete(capsys):
    code, out, _ = run(capsys, "check-pp", "--field", "2^2",
                       "--poly", "g^1*x", "--complete")
    assert code == 0 and "complete: yes" in out
    code, out, _ = run(capsys, "check-pp", "--field", "2^2",
                       "--poly", "x", "--complete")
    assert code == 0 and "complete: no" in out


def test_check_pp_out_file(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, _, _ = run(capsys, "check-pp", "--field", "2^3", "--poly", "x^2+x",
                     "--out", str(out_path))
    assert code == 1
    payload = json.loads(out_path.read_text())
    assert payload["verdict"] == "not-permutation"
    assert payload["witness"] == ["0", "1"]


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "check-pp", "--field", "2^3", "--poly", "x",
                     "--bogus-flag")
    assert code == 2
    code, _, err = run(capsys, "check-pp", "--field", "2^3", "--poly", "x^")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "check-pp", "--field", "6^2", "--poly", "x")
    assert code == 2 and "prime" in err
    code, _, err = run(capsys, "lemma1", "--field", "2^4", "--r", "1",
                       "--d", "7", "--h", "1")
    assert code == 2 and "divide" in err
    code, _, err = run(capsys, "decompose", "--field", "2^4", "--x", "0")
    assert code == 2


@pytest.mark.parametrize("field_arg, text", [
    ("2^4", "x^"), ("2^4", "(x"), ("2^4", "((x))"), ("2^4", "x + *"), ("2^2", "0x7*x"),
    ("2^4", "x^2\u00b2"), ("2^4", "y")])
def test_malformed_poly_exits_2(capsys, field_arg, text):
    code, out, err = run(capsys, "check-pp", "--field", field_arg, "--poly", text)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "(at position" in lines[0] and "Traceback" not in err


def test_lemma1_cli(capsys):
    code, out, _ = run(capsys, "lemma1", "--field", "5^4", "--r", "151",
                       "--d", "156", "--h", "x + g^1")
    assert code == 0
    assert "permutes the field" in out
    code, out, _ = run(capsys, "lemma1", "--field", "5^4", "--r", "151",
                       "--d", "156", "--h", "x + g^4")
    assert code == 1
    assert "does not permute" in out


def test_family_cli(capsys):
    code, out, _ = run(capsys, "family", "--family", "P1", "--m", "2",
                       "--k", "3", "--b", "g^1", "--delta", "g^3")
    assert code == 0
    assert "g(x) = (g^1*x + g^3)^5 + x^4 + g^48*x" in out
    assert "permutation" in out
    # hypothesis violation reported, still exit 0 (nothing asserted)
    code, out, _ = run(capsys, "family", "--family", "P5", "--m", "4",
                       "--b", "g^1", "--delta", "0")
    assert code == 0
    assert "[FAIL]" in out


@pytest.mark.parametrize("b", ["0x_1", "g^1_0", "g^+3", "g^ 3", "g^99999999999999999999999"])
def test_family_cli_malformed_element_exits_2(capsys, b):
    code, out, err = run(capsys, "family", "--family", "P6", "--k", "3",
                         "--b", b, "--delta", "g^3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and repr(b) in err and "Traceback" not in err


def test_family_cli_missing_param(capsys):
    code, _, err = run(capsys, "family", "--family", "P1", "--m", "2",
                       "--b", "g^1", "--delta", "0")
    assert code == 2 and "--k" in err


def test_scan_cli_and_command_reproduction(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    code, out, _ = run(capsys, "scan", "--family", "P6", "--k", "2",
                       "--mode", "necessity", "--out", str(out1))
    assert code == 0
    assert "PASS" in out
    payload = json.loads(out1.read_text())
    assert payload["confusion"]["tf"] == 0 and payload["confusion"]["ft"] == 0
    # replaying the recorded command reproduces the report byte for byte
    command = payload["command"].split()
    assert command[:2] == ["permupoly", "scan"]
    out2 = tmp_path / "b.json"
    argv = [a if a != str(out1) else str(out2) for a in command[1:]]
    code2 = main(argv)
    capsys.readouterr()
    assert code2 == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a["duration_ms"] = b["duration_ms"] = 0
    a["command"] = a["command"].replace(str(out1), "X")
    b["command"] = b["command"].replace(str(out2), "X")
    assert a == b


def test_scan_cli_p6_k4(tmp_path, capsys):
    # the full-size necessity scan through the CLI surface
    out = tmp_path / "r.json"
    code, text, _ = run(capsys, "scan", "--family", "P6", "--k", "4",
                        "--mode", "necessity", "--out", str(out))
    assert code == 0 and "PASS" in text
    payload = json.loads(out.read_text())
    assert payload["confusion"] == {"tt": 1920, "tf": 0, "ft": 0, "ff": 30720}


def test_scan_cli_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run(capsys, "scan", "--family", "P2", "--m", "3", "--s", "6",
                     "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("family")
    assert len(lines) == 1 + 48


def test_scan_cli_modulus_override(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, "scan", "--family", "P2", "--m", "3", "--s", "6",
                     "--modulus", "0x6d", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["field"]["modulus"] == "0x6d"
    assert payload["totals"]["satisfying"] == 48


def test_decompose_cli(capsys):
    code, out, _ = run(capsys, "decompose", "--field", "2^4", "--x", "g^7")
    assert code == 0
    assert "u = g^10" in out and "lambda = g^12" in out
    assert "unit circle size: 5" in out


def test_decompose_cli_counts_the_circle_without_listing_it(capsys, monkeypatch):
    # the size is 2^m + 1; listing the circle's 4,097 points is not needed
    def refuse(*args):
        raise AssertionError("decompose listed the unit circle")

    monkeypatch.setattr(circle, "unit_circle", refuse)
    monkeypatch.setattr(circle, "mu_d_roots", refuse)
    code, out, _ = run(capsys, "decompose", "--field", "2^24", "--x", "g^7")
    assert code == 0
    assert "unit circle size: 4097" in out.splitlines()


def test_solve_quad_cli(capsys):
    code, out, _ = run(capsys, "solve-quad", "--field", "2^4",
                       "--u", "1", "--v", "0")
    assert code == 0 and "roots: 0, 1" in out
    code, out, _ = run(capsys, "solve-quad", "--field", "2^2",
                       "--u", "1", "--v", "g^1")
    assert code == 0 and "no roots" in out
    code, out, _ = run(capsys, "solve-quad", "--field", "2^4",
                       "--u", "0", "--v", "g^6")
    assert code == 0 and "single root" in out


def test_field_info_cli(capsys):
    code, out, _ = run(capsys, "field-info", "--field", "5^4")
    assert code == 0
    assert "q = 625" in out
    assert "0x273" in out


FIELD_INFO = {
    "2^8": ("field GF(2^8), q = 256\n"
            "modulus 0x11b (coefficients, constant first: [1, 1, 0, 1, 1, 0, 0, 0, 1])\n"
            "generator g^1 = code 3\nlog tables: yes\nsubfield degrees: [1, 2, 4, 8]\n"),
    "5^4": ("field GF(5^4), q = 625\n"
            "modulus 0x273 (coefficients, constant first: [2, 0, 0, 0, 1])\n"
            "generator g^1 = code 6\nlog tables: yes\nsubfield degrees: [1, 2, 4]\n"),
    "4093^2": ("field GF(4093^2), q = 16752649\n"
               "modulus 0xffa00b (coefficients, constant first: [2, 0, 1])\n"
               "generator g^1 = code 4103\nlog tables: yes\nsubfield degrees: [1, 2]\n"),
    "2^24": ("field GF(2^24), q = 16777216\n"
             "modulus 0x100001b (coefficients, constant first: [1, 1, 0, 1, 1"
             + ", 0" * 19 + ", 1])\n"
             "generator g^1 = code 2\nlog tables: yes\n"
             "subfield degrees: [1, 2, 3, 4, 6, 8, 12, 24]\n"),
}


@pytest.mark.parametrize("spec", sorted(FIELD_INFO))
def test_field_info_builds_no_tables(capsys, monkeypatch, spec):
    # the description of a tabled field reads none of its tables
    def refuse(ctx):
        raise AssertionError("field-info built log tables")
    monkeypatch.setattr(field.FieldCtx, "_build_tables", refuse)
    code, out, err = run(capsys, "field-info", "--field", spec)
    assert (code, out, err) == (0, FIELD_INFO[spec], "")


def test_field_info_names_generator_as_tables_do(capsys):
    for spec in ("2^1", "3^1", "2^8"):
        ctx = field.field_from_descriptor(spec)
        code, out, _ = run(capsys, "field-info", "--field", spec)
        assert code == 0
        assert (f"generator {ctx.format_element(ctx.generator)} = code {ctx.generator}\n"
                "log tables: yes\n") in out


def test_field_info_large_char2(capsys, monkeypatch):
    # above the bound field-info refuses at once: no modulus search, no factoring
    def refuse(*args):
        raise AssertionError("field-info worked on a field above the bound")

    monkeypatch.setattr(field, "canonical_modulus", refuse)
    monkeypatch.setattr(field, "_prime_factors", refuse)
    for n in (61, 67):
        start = time.perf_counter()
        code, out, err = run(capsys, "field-info", "--field", f"2^{n}")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"error: GF(2^{n}) is out of scope: "
                       "fields are limited to q <= 2^24\n")


def test_field_descriptor_with_modulus(capsys):
    code, out, _ = run(capsys, "field-info", "--field", "2^6:modulus=0x6d")
    assert code == 0 and "0x6d" in out


@pytest.mark.parametrize("argv,degree", [
    (["--field", "2^6", "--modulus", "0x1c3"], 6),
    (["--field", "2^6:modulus=0xc3"], 6),
    (["--field", "3^2", "--modulus", "0x100"], 2),
])
def test_out_of_range_modulus_code(capsys, argv, degree):
    code, out, err = run(capsys, "field-info", *argv)
    assert code == 2 and out == ""
    assert err == f"error: modulus must be monic of degree {degree}\n"


# malformed field, modulus and integer text: each is refused with one
# error line naming the form it expected
@pytest.mark.parametrize("argv, expected", [
    (["field-info", "--field", "2^1_6"], "expected p^n with decimal p and n"),
    (["field-info", "--field", "+2^4"], "expected p^n with decimal p and n"),
    (["field-info", "--field", "2^+4"], "expected p^n with decimal p and n"),
    (["field-info", "--field", "2^ 4"], "expected p^n with decimal p and n"),
    (["field-info", "--field", "0x2^4"], "expected p^n with decimal p and n"),
    (["field-info", "--field", "2^4:modulus=19"], "expected a packed 0x.. or 0b.. code"),
    (["field-info", "--field", "2^4", "--modulus", "0x1_3"],
     "expected a packed 0x.. or 0b.. code"),
    (["field-info", "--field", "2^4", "--modulus", "19"], "expected a packed 0x.. or 0b.. code"),
    (["field-info", "--field", "2^4", "--modulus", "zz"], "expected a packed 0x.. or 0b.. code"),
    (["field-info", "--field", "2^4", "--modulus=-0x13"], "expected a packed 0x.. or 0b.. code"),
    (["field-info", "--field", "2^4", "--modulus", ""], "expected a packed 0x.. or 0b.. code"),
    (["scan", "--family", "P6", "--k", "1_0"], "expected decimal digits"),
    (["scan", "--family", "P6", "--k", "+3"], "expected decimal digits"),
    (["scan", "--family", "P4", "--q", "0x5", "--e", "2"], "expected decimal digits"),
    (["family", "--family", "P1", "--m", "2", "--k", " 3", "--b", "g", "--delta", "0"],
     "expected decimal digits"),
    (["family", "--family", "P2", "--m", "3", "--s", "6.0", "--b", "1", "--delta", "1"],
     "expected decimal digits"),
    (["lemma1", "--field", "5^4", "--r", "1_51", "--d", "156", "--h", "x"],
     "expected decimal digits"),
    (["lemma1", "--field", "5^4", "--r", "151", "--d", "1e2", "--h", "x"],
     "expected decimal digits"),
])
def test_malformed_field_modulus_and_integer_text_exits_2(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(f"{expected}\n")
    assert err.count("\n") == 1


def test_integer_option_above_the_exponent_bound(capsys):
    code, out, err = run(capsys, "scan", "--family", "P6", "--k", "9" * 5000)
    assert (code, out) == (2, "")
    assert err == f"error: --k {'9' * 5000} exceeds 2^62\n"


@pytest.mark.parametrize("argv, modulus", [
    (["--field", "2^4", "--modulus", "0x13"], "0x13"),
    (["--field", "2^4", "--modulus", "0b10011"], "0x13"),
    (["--field", "2^6", "--modulus", "0X6D"], "0x6d"),
    (["--field", "2^6:modulus=0x43"], "0x43"),
    (["--field", "3^2:modulus=0b1010"], "0xa"),
    (["--field", "7"], "0x7"),
])
def test_well_formed_field_text_builds(capsys, argv, modulus):
    code, out, err = run(capsys, "field-info", *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith(f"modulus {modulus} ")


# one valid flag set per family; the cases below come from families.FAMILIES
FAMILY_FLAGS = {
    "P1": {"m": "2", "k": "3", "b": "g^1", "delta": "g^3", "c": "g^48"},
    "P2": {"m": "3", "s": "6", "b": "g^9", "delta": "g^18"},
    "P3": {"m": "2", "bprime": "g^3", "b": "g^1"},
    "P4": {"q": "5", "e": "2", "r": "1", "a": "g^1"},
    "P5": {"m": "2", "b": "g^1", "delta": "g^2"},
    "P6": {"k": "2", "b": "g^5", "delta": "g^1"},
}


def _flags(values):
    return [arg for name, v in values.items() for arg in (f"--{name}", v)]


def _schema_cases():
    for fam, record in FAMILIES.items():
        field, enumerated, optional = (record.field, record.enumerated,
                                       record.optional)
        for name in field:
            for cmd in ("family", "scan"):
                yield cmd, fam, name, None, f"error: family {fam} needs --{name}\n"
        for name in enumerated:
            yield ("family", fam, name, None,
                   f"error: {fam} requires parameter {name}\n")
        for name in INT_PARAMS + ELEMENT_PARAMS:
            if name not in field + enumerated + optional:
                yield ("family", fam, None, name,
                       f"error: {fam} does not take parameter {name}\n")


@pytest.mark.parametrize("cmd, family, drop, extra, message",
                         list(_schema_cases()))
def test_schema_driven_flag_errors(capsys, cmd, family, drop, extra, message):
    record = FAMILIES[family]
    assert set(FAMILY_FLAGS[family]) == set(
        record.field + record.enumerated + record.optional)
    values = {k: v for k, v in FAMILY_FLAGS[family].items() if k != drop}
    if extra is not None:
        values[extra] = "1"
    code, out, err = run(capsys, cmd, "--family", family, *_flags(values))
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scan_refuses_flags_it_would_ignore(capsys, family):
    # a scan enumerates everything but the field parameters itself
    field_names = FAMILIES[family].field
    values = {k: v for k, v in FAMILY_FLAGS[family].items() if k in field_names}
    for name in INT_PARAMS + ELEMENT_PARAMS:
        if name not in field_names:
            code, out, err = run(capsys, "scan", "--family", family,
                                 *_flags({**values, name: "1"}))
            assert (code, out) == (2, "")
            assert err == (f"error: scan enumerates {family}'s other "
                           f"parameters itself and takes no --{name}\n")


@pytest.mark.parametrize("flags, command", [
    (["--family", "P4", "--q", "3", "--e", "2"],
     "permupoly scan --family P4 --mode sufficiency --e 2 --q 3 --modulus 0xa"),
    (["--family", "P6", "--k", "2", "--mode", "necessity"],
     "permupoly scan --family P6 --mode necessity --k 2 --modulus 0x13"),
])
def test_scan_command_text(tmp_path, capsys, flags, command):
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, "scan", *flags, "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["command"] == (
        f"{command} --out {out} --format json")


def refuse_work(monkeypatch):
    """Make a modulus search or the factoring of P4's q fail the test."""
    def refuse(*args):
        raise AssertionError("worked on a field above the bound")

    monkeypatch.setattr(field, "canonical_modulus", refuse)
    monkeypatch.setattr(families, "_prime_factors", refuse)


@pytest.mark.parametrize("flags", [
    ["--family", "P6", "--k", "1000"],
    ["--family", "P4", "--q", "5", "--e", "200000"],
    ["--family", "P4", "--q", str(2 ** 61 - 1), "--e", "1"],
])
def test_scan_of_a_huge_field_fails_fast(capsys, monkeypatch, flags):
    refuse_work(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", *flags)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: GF(") and err.endswith(
        " is out of scope: fields are limited to q <= 2^24\n")


@pytest.mark.parametrize("flags, field_text", [
    (["--family", "P6", "--k", "1000", "--b", "1", "--delta", "1"], "2^2000"),
    (["--family", "P4", "--q", "5", "--e", "200000", "--r", "1", "--a", "1"],
     "5^200000"),
    (["--family", "P4", "--q", str(2 ** 61 - 1), "--e", "1", "--r", "1",
      "--a", "1"], f"{2 ** 61 - 1}^1"),
])
def test_family_of_a_huge_field_fails_fast(capsys, monkeypatch, flags, field_text):
    # the bound comes before the modulus search and before factoring P4's q
    refuse_work(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, "family", *flags)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: GF({field_text}) is out of scope: "
                   "fields are limited to q <= 2^24\n")


def test_vacuous_pass_warns(capsys):
    code, out, err = run(capsys, "scan", "--family", "P4", "--q", "4", "--e", "1")
    assert code == 0
    assert out == ("scan P4 mode=sufficiency over GF(2^2) modulus 0x7\n"
                   "tuples 3, satisfying 0, pp among satisfying 0, "
                   "violating tuples not evaluated\ndiscrepancies: 0\nPASS\n")
    assert err == "warning: no tuple satisfies the hypotheses; PASS is vacuous\n"
    code, out, err = run(capsys, "scan", "--family", "P6", "--k", "2",
                         "--mode", "necessity")
    assert code == 0 and "PASS" in out and err == ""


@pytest.mark.parametrize("flags, message", [
    (["--family", "P4", "--q", "6", "--e", "2"], "q=6 is not a prime power"),
    (["--family", "P1", "--m", "-1", "--k", "3"],
     "P1 parameter m must be a positive integer"),
    (["--family", "P6", "--k", "0"], "P6 parameter k must be a positive integer"),
])
def test_scan_rejects_bad_field_parameter(capsys, flags, message):
    code, out, err = run(capsys, "scan", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_scan_k1_is_vacuous(capsys):
    code, out, err = run(capsys, "scan", "--family", "P6", "--k", "1")
    assert code == 0 and out.endswith("PASS\n")
    assert err == "warning: no tuple satisfies the hypotheses; PASS is vacuous\n"


def test_scan_above_table_bound_fails_fast(capsys, monkeypatch):
    # GF(32^5) = GF(2^25): 2^26 - 2 tuples would pass the enumeration guard,
    # and the field must be refused before it is built
    def no_build(*args):
        raise AssertionError("field built above the table bound")

    monkeypatch.setattr(scan, "field_for_family", no_build)
    code, out, err = run(capsys, "scan", "--family", "P4", "--q", "32", "--e", "5")
    assert (code, out) == (2, "")
    assert err == ("error: GF(32^5) is out of scope: "
                   "fields are limited to q <= 2^24\n")


def test_scan_refuses_hours_of_work_at_once(capsys, monkeypatch):
    # P4 625^2: 390,624 tuples over GF(5^8), hours at about 24 ms a check
    def no_build(*args):
        raise AssertionError("field built for a refused scan")

    monkeypatch.setattr(scan, "field_for_family", no_build)
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", "--family", "P4", "--q", "625", "--e", "2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: scan work estimate 1.53e+11 (390624 tuples, each "
                   "built and checked on 390625 elements) is above the guard "
                   "of 2.15e+09\n")


def test_check_pp_above_old_table_bound(capsys):
    # 2^21 - 1 = 7^2 * 127 * 337, so x^7 first repeats at g^((q-1)/7)
    code, out, err = run(capsys, "check-pp", "--field", "2^21", "--poly", "x^7",
                         "--assert", "not-pp")
    assert (code, err) == (0, "")
    assert out == ("not-permutation\n"
                   "witness: f(1) = f(g^299593), image size 299594/2097152\n")
