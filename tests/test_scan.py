import dataclasses
import hashlib
import json
import re
import sys

import pytest

import permupoly.scan as scan_mod
from permupoly import build_field, scan_necessity, scan_sufficiency, write_report
from permupoly.families import FAMILIES, NECESSITY_CLAUSE, field_for_family
from permupoly.scan import report_json


def strip_timing(report):
    d = report.to_dict()
    d["duration_ms"] = 0.0
    return d


def test_scan_p2_sufficiency(gf64):
    rep = scan_sufficiency("P2", {"m": 3, "s": 6}, ctx=gf64)
    assert rep.total == 64 * 64
    assert rep.satisfying == 48
    assert rep.pp_true_satisfying == 48
    assert rep.discrepancy_count == 0
    assert rep.passed
    assert rep.mode == "sufficiency"


def test_scan_p4_sufficiency(gf625):
    rep = scan_sufficiency("P4", {"q": 5, "e": 4}, ctx=gf625)
    assert rep.satisfying == 2 * 468
    assert rep.pp_true_satisfying == rep.satisfying
    assert rep.passed


def test_scan_necessity_small_p6():
    # GF(16): b in GF(4)* iff PP, delta with absolute trace 1
    rep = scan_necessity("P6", {"k": 2})
    assert rep.passed
    assert rep.confusion["tf"] == 0 and rep.confusion["ft"] == 0
    assert rep.confusion["tt"] == 3 * 8       # |GF(4)*| x |Tr=1|
    assert rep.confusion["ff"] == 12 * 8
    assert rep.total == 15 * 8
    assert rep.satisfying == 24
    assert rep.pp_true_violating == 0


def test_scan_necessity_rejects_other_families(gf64):
    text = "necessity scans exist only for ['P5', 'P6']; got P1"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        scan_necessity("P1", {"m": 2, "k": 3}, ctx=gf64)


def test_empty_scan_valid_schema(gf4):
    # P6 with k = 1 violates the k > 1 gate everywhere
    rep = scan_sufficiency("P6", {"k": 1}, ctx=gf4)
    assert rep.satisfying == 0
    assert rep.pp_true_satisfying == 0
    assert rep.discrepancy_count == 0
    assert rep.passed
    d = rep.to_dict()
    for key in ("family", "field", "totals", "confusion", "discrepancies",
                "sampled", "duration_ms"):
        assert key in d


def test_field_and_scan_take_no_table_or_cap_options():
    # every field has its tables, and the scan caps are module constants
    with pytest.raises(TypeError):
        build_field(2, 4, tables=False)
    with pytest.raises(TypeError):
        scan_necessity("P6", {"k": 2}, sample_threshold=50)
    with pytest.raises(TypeError):
        scan_sufficiency("P2", {"m": 3, "s": 6}, row_cap=10)


def test_report_byte_identical_reruns(tmp_path):
    texts = []
    for _ in range(2):
        rep = scan_necessity("P6", {"k": 2})
        rep.duration_ms = 0.0
        texts.append(report_json(rep))
    assert texts[0] == texts[1]


def test_csv_rows(tmp_path):
    rep = scan_necessity("P6", {"k": 2})
    path = tmp_path / "r.csv"
    write_report(rep, str(path), fmt="csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + rep.total  # header + one evaluated tuple per row
    header = lines[0].split(",")
    assert "b" in header and "delta" in header and "is_pp" in header
    with pytest.raises(ValueError):
        write_report(rep, str(path), fmt="xml")


def test_row_cap(monkeypatch):
    # rows are capped as they are appended: the scan holds at most one row
    # past the cap, which is how it knows to set rows_truncated
    real, held = scan_mod.is_permutation, []

    def watching(ctx, poly):
        held.append(len(sys._getframe(1).f_locals["report"].rows))
        return real(ctx, poly)

    monkeypatch.setattr(scan_mod, "is_permutation", watching)
    monkeypatch.setattr(scan_mod, "ROW_CAP", 10)
    rep = scan_necessity("P6", {"k": 2})
    assert len(held) == rep.total == 120 and max(held) == 11
    assert len(rep.rows) == 10 and rep.rows_truncated
    monkeypatch.setattr(scan_mod, "ROW_CAP", rep.total)
    full = scan_necessity("P6", {"k": 2})
    assert len(full.rows) == full.total and not full.rows_truncated


def test_sampled_necessity_deterministic(monkeypatch):
    # force the stride path with a tiny threshold
    monkeypatch.setattr(scan_mod, "SAMPLE_THRESHOLD", 50)
    full = scan_necessity("P6", {"k": 2})
    assert full.sampled
    again = [scan_necessity("P6", {"k": 2}) for _ in range(2)]
    assert strip_timing(again[0]) == strip_timing(again[1])
    # condition-true side stays exhaustive
    assert full.confusion["tt"] + full.confusion["tf"] == 24
    assert full.confusion["ff"] + full.confusion["ft"] < 96
    assert full.passed


def test_discrepancy_reporting(monkeypatch, gf64):
    # every built-in family permutes on its satisfying side, so a sufficiency
    # discrepancy can only come from a defect; fake one to exercise the
    # reporting path
    import permupoly.scan as scan_mod
    from permupoly.perm import PermReport

    real = scan_mod.is_permutation
    calls = {"n": 0}

    def flaky(ctx, poly):
        calls["n"] += 1
        if calls["n"] % 10 == 0:
            return PermReport(False, (0, 1), ctx.q - 1)
        return real(ctx, poly)

    monkeypatch.setattr(scan_mod, "is_permutation", flaky)
    rep = scan_sufficiency("P2", {"m": 3, "s": 6}, ctx=gf64)
    assert rep.discrepancy_count == 4  # every 10th of 48
    assert not rep.passed
    first = rep.discrepancies[0]
    assert first["expected"] == "permutation"
    assert first["observed"] == "not-permutation"
    assert first["witness"] == ["0", "1"]
    assert first["params"]["family"] == "P2"
    assert rep.discrepancy_count >= len(rep.discrepancies)


def test_scan_json_schema(tmp_path):
    rep = scan_sufficiency("P2", {"m": 3, "s": 6})
    payload = json.loads(report_json(rep))
    assert payload["field"] == {"p": 2, "n": 6, "modulus": "0x43"}
    assert payload["totals"]["satisfying"] == 48
    assert set(payload["confusion"]) == {"tt", "tf", "ft", "ff"}
    assert payload["sampled"] is False
    assert isinstance(payload["duration_ms"], float)


def set_scan_constants(monkeypatch, constants):
    """Set scan module constants, such as SAMPLE_THRESHOLD, for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(scan_mod, name, value)


@pytest.mark.parametrize("family, field_params, constants, tuples", [
    ("P6", {"k": 3}, {}, 63 * 64),
    ("P6", {"k": 3}, {"SAMPLE_THRESHOLD": 100}, 63 * 64),
    ("P5", {"m": 2}, {}, 16 * 16),
    ("P1", {"m": 2, "k": 3}, {}, 4096),
], ids=["P6-k3", "P6-k3-sampled", "P5-m2", "P1-m2k3"])
def test_scan_builds_each_tuple_once(monkeypatch, family, field_params, constants,
                                     tuples):
    # one make_family call per enumerated tuple, each tuple once
    import permupoly.families as families_mod

    real, calls = families_mod.make_family, []

    def counting(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(families_mod, "make_family", counting)
    set_scan_constants(monkeypatch, constants)
    scan = scan_necessity if family in NECESSITY_CLAUSE else scan_sufficiency
    scan(family, field_params)
    assert len(calls) == len(set(calls)) == tuples


# 0x43 is GF(2^6)'s canonical modulus; 0x49 and 0x57 are two other
# irreducibles of degree 6
@pytest.mark.parametrize("modulus", [0x49, 0x57])
@pytest.mark.parametrize("family, field_params, constants, tt, ff", [
    ("P6", {"k": 3}, {}, 224, 1792),
    ("P5", {"m": 3}, {}, 448, 2688),
    # every 18th of the 1,792 violating tuples
    ("P6", {"k": 3}, {"SAMPLE_THRESHOLD": 100}, 224, 100),
], ids=["P6-k3", "P5-m3", "P6-k3-sampled"])
def test_necessity_totals_do_not_depend_on_modulus(monkeypatch, family, field_params,
                                                   constants, tt, ff, modulus):
    # verdict counts are properties of the abstract field
    set_scan_constants(monkeypatch, constants)
    canonical = scan_necessity(family, field_params)
    assert canonical.field["modulus"] == "0x43"
    assert canonical.confusion == dict(tt=tt, tf=0, ft=0, ff=ff)
    other = scan_necessity(family, field_params, modulus=modulus)
    assert other.field["modulus"] == hex(modulus)
    assert other.to_dict()["totals"] == canonical.to_dict()["totals"]
    assert other.confusion == canonical.confusion


@pytest.mark.parametrize("constants", [{}, {"SAMPLE_THRESHOLD": 50}],
                         ids=["exhaustive", "sampled"])
def test_violating_count_off_by_one_is_caught(monkeypatch, constants):
    p6 = FAMILIES["P6"]
    monkeypatch.setitem(FAMILIES, "P6", dataclasses.replace(
        p6, violating=lambda fp, q: p6.violating(fp, q) + 1))
    set_scan_constants(monkeypatch, constants)
    with pytest.raises(AssertionError, match=r"^P6 \{'k': 2\} .* met 96 "
                       r"condition-violating tuples; its record states 97$"):
        scan_necessity("P6", {"k": 2})


class FieldBuilt(Exception):
    pass


@pytest.mark.parametrize("family, field_params, admitted", [
    ("P4", {"q": 5, "e": 6}, True),
    ("P2", {"m": 5, "s": 1}, True),
    ("P6", {"k": 5}, True),
    ("P5", {"m": 5}, True),
    ("P6", {"k": 6}, False),
    ("P4", {"q": 625, "e": 2}, False),
], ids=["P4-5^6", "P2-m5", "P6-k5", "P5-m5", "P6-k6", "P4-625^2"])
def test_work_guard(monkeypatch, family, field_params, admitted):
    # an admitted scan gets as far as building its field
    def build(*args):
        raise FieldBuilt

    monkeypatch.setattr(scan_mod, "field_for_family", build)
    scan = scan_necessity if family in NECESSITY_CLAUSE else scan_sufficiency
    with pytest.raises(FieldBuilt if admitted else ValueError,
                       match=None if admitted else "work estimate"):
        scan(family, field_params)


def test_scan_runs_on_calling_thread(monkeypatch):
    import threading

    import permupoly.families as families_mod
    import permupoly.scan as scan_mod

    threads = set()

    def recording(fn):
        def wrapper(*args):
            threads.add(threading.get_ident())
            return fn(*args)
        return wrapper

    monkeypatch.setattr(scan_mod, "is_permutation",
                        recording(scan_mod.is_permutation))
    monkeypatch.setattr(families_mod, "make_family",
                        recording(families_mod.make_family))
    scan_necessity("P6", {"k": 3})
    monkeypatch.setattr(scan_mod, "SAMPLE_THRESHOLD", 50)
    scan_necessity("P6", {"k": 2})
    assert threads == {threading.get_ident()}


# sha256 of report_json (duration_ms zeroed) and of the CSV report, pinned
# from the implementation before the scan loop was folded into one; the
# third column holds the scan constants each case sets
PINNED_SCANS = [
    ("P1", {"m": 2, "k": 3}, {},
     "10f7b824f1afa3dd260c186dbcc60b26af2c41e17da86040d439f8761ca16b64",
     "992c367c1d6067e9ff502ca29a52eafc1d9bdf5afd41921c8f94751cf2f9de59"),
    ("P2", {"m": 3, "s": 6}, {},
     "d3b9603694b085416d97718072cc33c7a522738426a7f83a33703119bb7aa96d",
     "010d68c9e6f08296d6830363c81acc4b1d153f353cbc73d57abd8b6edccf9354"),
    ("P3", {"m": 2}, {},
     "a824d1ee4723ee83bcb4d08650d0269c4be4dfde353609ac400877845700c2b2",
     "0922c49b26cc04416fb944f9e7bb88f861f9103608aeaeeb41cc8b6cfe90eb04"),
    ("P4", {"q": 5, "e": 2}, {},
     "49cb98420d203678720f635ba7aa05c90b65242f832d7e5b55453bc2574f3f39",
     "135d2794a1392f80369999fd2aa22654f5e18d16a700b8c465ef915cfd9da924"),
    ("P4", {"q": 3, "e": 3}, {},
     "c739678f5296a0805bbe1d596f3d01f1239182ee6d2a6bbddc71c2b6e9a9d76d",
     "1aa171a431f3e4c0afadf5352e5d1f7e36deb339cfb7e8b860d8847b3f59efae"),
    ("P5", {"m": 3}, {},
     "b2e9534e1935a41dbbae311c889400fa25d041b0fd0e8091735af2af13ad7772",
     "3392a8343f7e639cfbc81301c517279461e62fe88258221337fe4166bb72bad4"),
    ("P6", {"k": 3}, {},
     "08446c1f4e94c48b6691f45485bdf7a4a28e8c091274148bda5439eaba7c7926",
     "edda08b9064c36b00c395cb4b5ca5bd960a3a743c5ee0cd96cf976bded1738b4"),
    ("P6", {"k": 3}, {"SAMPLE_THRESHOLD": 100},
     "6a92570bc9dbb0b31ea9fb77f9b76da909fc43adbcd4778a73eeeb7f295f73fe",
     "ee3b98de098b2a4c58a43582c412a633c0171e32def0e6b3d7e7c6ddb4894df9"),
]


# scans: how many scans run over one field; the last report is pinned, so
# the [...-3] cases read the terms, clauses and base powers that the first
# two scans left in the field's memos
@pytest.mark.parametrize("scans", [1, 3])
@pytest.mark.parametrize("family, field_params, constants, json_sha, csv_sha",
                         PINNED_SCANS, ids=["P1", "P2", "P3", "P4-5^2", "P4-3^3",
                                           "P5", "P6", "P6-sampled"])
def test_pinned_report_bytes(monkeypatch, tmp_path, scans, family, field_params,
                             constants, json_sha, csv_sha):
    set_scan_constants(monkeypatch, constants)
    scan = scan_necessity if family in NECESSITY_CLAUSE else scan_sufficiency
    ctx = field_for_family(family, field_params)
    for _ in range(scans):
        rep = scan(family, field_params, ctx=ctx)
    rep.duration_ms = 0.0
    path = tmp_path / "r.csv"
    write_report(rep, str(path), fmt="csv")
    assert hashlib.sha256(report_json(rep).encode()).hexdigest() == json_sha
    assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha
