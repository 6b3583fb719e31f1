"""The benchmark's own tests, on small fields so they run in seconds:

    python3 -m pytest -q perfbench/check_tracer.py

(The file name keeps them out of the repository's default test run.)
"""

import dataclasses

import pytest

import run
from tracer import Tracer
from workloads import SCAN_PLAN, CheckChar2, CheckOddp, ScanChar2

pp = run.import_program()


def small(kind, seed=3):
    if kind == "scan":
        return ScanChar2(seed, pp.is_irreducible, plan=SCAN_PLAN[:1])
    if kind == "char2":
        return CheckChar2(seed, pp.is_irreducible, k=4)
    return CheckOddp(seed, pp.is_irreducible, e=4)


def seams(api):
    owners = (api, pp.field.FieldCtx, pp.families, pp.scan, pp.perm)
    return owners, [dict(vars(o)) for o in owners]


@pytest.mark.parametrize("kind", ["scan", "char2", "oddp"])
def test_traced_run_matches_untraced(kind):
    wl = small(kind)
    log, metrics, details, _ = run.traced(wl, pp, run.make_api(pp))
    assert log.failures == []
    by_phase = {"untraced": [], "traced": []}
    for rec in log.ops:
        by_phase[rec["phase"]].append(rec["result"])
    assert by_phase["traced"] == by_phase["untraced"]
    assert len(by_phase["traced"]) == details["ops"]
    value = {k: v for k, (v, _) in metrics.items()}
    if kind == "scan":
        assert value["scan.tuples_evaluated"] == 3968
        assert value["families.constructed"] == 4096
        assert value["families.useful_ratio"] == 3968 / 4096
        assert value["perm.checks"] == 3968
        assert value["scan.self_s"] > 0 and value["families.iter_self_s"] > 0
    else:
        assert value["perm.checks"] == details["ops"]
        assert value["families.constructed"] == 0
        assert value["poly.parse_s"] > 0
    assert value["field.build_s"] > 0 and value["field.vec_calls"] > 0
    assert value["perm.self_s"] > 0 and value["poly.evaluate_all_self_s"] > 0


def test_tracer_restores_every_attribute():
    api = run.make_api(pp)
    owners, before = seams(api)
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(*owners):
            assert pp.scan.is_permutation is not before[3]["is_permutation"]
            assert pp.field.FieldCtx.pow is not before[1]["pow"]
            ctx = api.build_field(2, 4)
            ctx.pow(ctx.generator, 3)
            1 / 0
    _, after = seams(api)
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[k] is old[k] for k in old)
    assert tracer.calls[tracer.names.index("field.pow")] == 1


@pytest.mark.parametrize("fault, failed", [("raise", 8), ("verdict", 8), ("witness", 5)])
def test_injected_faults_count_as_failures(fault, failed):
    api = run.make_api(pp)
    real = api.is_permutation

    def faulty(ctx, f):
        if fault == "raise":
            raise RuntimeError("injected")
        rep = real(ctx, f)
        if fault == "verdict":
            return dataclasses.replace(rep, permutation=not rep.permutation)
        if rep.permutation:
            return rep
        return dataclasses.replace(rep, witness=(0, rep.witness[1]))

    api.is_permutation = faulty
    log, metrics, _, _ = run.end_to_end(small("char2"), pp, api, seconds=1e-9)
    assert len(log.ops) == len(CheckChar2.block)
    assert log.failed == failed
    assert metrics["ok_ratio"][0] == 1 - failed / len(log.ops)


def test_scan_count_fault_is_caught(monkeypatch):
    real, calls = pp.scan.is_permutation, []

    def flaky(ctx, f):
        calls.append(f)
        rep = real(ctx, f)
        return dataclasses.replace(rep, permutation=False) if len(calls) == 7 else rep

    monkeypatch.setattr(pp.scan, "is_permutation", flaky)
    log, _, _, _ = run.end_to_end(small("scan"), pp, run.make_api(pp), seconds=1e-9)
    assert log.failed == 1 and "counts differ" in log.failures[0]["reason"]


def test_seed_fixes_the_inputs():
    def texts(seed):
        wl = small("char2", seed)
        ctxs, _ = run.setup(run.make_api(pp), wl.fields())
        wl.prepare(ctxs)
        blocks = wl.blocks()
        return wl.field, [op.text for _ in range(2) for op in next(blocks)]

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)
    field, ops = texts(5)
    assert sorted(op.split("^")[0] for op in ops) == sorted(
        ["(x"] * 10 + ["x"] * 6)


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(40))) == (29, 75.0)
    assert run.tail(list(range(11))) == (0, 100 / 11)
    assert run.tail([5, 1, 3]) == (5, 100.0)
