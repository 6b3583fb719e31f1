import hashlib
import json

import pytest

from permupoly import (load_report, scan_necessity, scan_sufficiency,
                       write_report)
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
    with pytest.raises(ValueError, match="necessity"):
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


def test_worker_independence(gf256):
    reports = [scan_necessity("P6", {"k": 2}, workers=w) for w in (1, 2, 5)]
    dicts = [strip_timing(r) for r in reports]
    assert dicts[0] == dicts[1] == dicts[2]
    rows = [r.rows for r in reports]
    assert rows[0] == rows[1] == rows[2]


def test_threads_env(monkeypatch):
    monkeypatch.setenv("PERMUPOLY_THREADS", "3")
    rep = scan_necessity("P6", {"k": 2})
    ref = scan_necessity("P6", {"k": 2}, workers=1)
    assert strip_timing(rep) == strip_timing(ref)


def test_report_roundtrip(tmp_path):
    rep = scan_necessity("P6", {"k": 2})
    path = tmp_path / "r.json"
    write_report(rep, str(path))
    loaded = load_report(str(path))
    a, b = rep.to_dict(), loaded.to_dict()
    assert a == b


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


def test_row_cap():
    rep = scan_necessity("P6", {"k": 2}, row_cap=10)
    assert len(rep.rows) == 10 and rep.rows_truncated


def test_sampled_necessity_deterministic():
    # force the stride path with a tiny threshold
    full = scan_necessity("P6", {"k": 2}, sample_threshold=50)
    assert full.sampled
    again = [scan_necessity("P6", {"k": 2}, sample_threshold=50, workers=w)
             for w in (1, 3)]
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


def test_slices_build_only_their_tuples(monkeypatch):
    # each worker slice constructs its own range and nothing before it
    import permupoly.families as families_mod

    real, calls = families_mod.make_family, []

    def counting(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(families_mod, "make_family", counting)
    scan_necessity("P6", {"k": 3}, workers=3)
    assert len(calls) == 63 * 64


# sha256 of report_json (duration_ms zeroed) and of the CSV report, pinned
# from the implementation before the scan loop was folded into one
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
    ("P6", {"k": 3}, {"sample_threshold": 100},
     "6a92570bc9dbb0b31ea9fb77f9b76da909fc43adbcd4778a73eeeb7f295f73fe",
     "ee3b98de098b2a4c58a43582c412a633c0171e32def0e6b3d7e7c6ddb4894df9"),
]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("family, field_params, kwargs, json_sha, csv_sha",
                         PINNED_SCANS, ids=["P1", "P2", "P3", "P4-5^2", "P4-3^3",
                                           "P5", "P6", "P6-sampled"])
def test_pinned_report_bytes(tmp_path, workers, family, field_params, kwargs,
                             json_sha, csv_sha):
    scan = scan_necessity if family in ("P5", "P6") else scan_sufficiency
    rep = scan(family, field_params, workers=workers, **kwargs)
    rep.duration_ms = 0.0
    path = tmp_path / "r.csv"
    write_report(rep, str(path), fmt="csv")
    assert hashlib.sha256(report_json(rep).encode()).hexdigest() == json_sha
    assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha
