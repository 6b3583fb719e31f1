import json

import pytest

from permupoly.cli import main
from permupoly.families import ELEMENT_PARAMS, INT_PARAMS, SCHEMA


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


def test_field_descriptor_with_modulus(capsys):
    code, out, _ = run(capsys, "field-info", "--field", "2^6:modulus=0x6d")
    assert code == 0 and "0x6d" in out


# one valid flag set per family; the cases below come from families.SCHEMA
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
    for fam, (field, enumerated, optional) in SCHEMA.items():
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
    assert set(FAMILY_FLAGS[family]) == set(sum(SCHEMA[family], ()))
    values = {k: v for k, v in FAMILY_FLAGS[family].items() if k != drop}
    if extra is not None:
        values[extra] = "1"
    code, out, err = run(capsys, cmd, "--family", family, *_flags(values))
    assert (code, out, err) == (2, "", message)


def test_vacuous_pass_warns(capsys):
    code, out, err = run(capsys, "scan", "--family", "P4", "--q", "4", "--e", "1")
    assert code == 0
    assert out == ("scan P4 mode=sufficiency over GF(2^2) modulus 0x7\n"
                   "tuples 3, satisfying 0, pp among satisfying 0, "
                   "pp among violating 0\ndiscrepancies: 0\nPASS\n")
    assert err == "warning: no tuple satisfies the hypotheses; PASS is vacuous\n"
    code, out, err = run(capsys, "scan", "--family", "P6", "--k", "2",
                         "--mode", "necessity")
    assert code == 0 and "PASS" in out and err == ""
