"""Whole-parameter-space scans: sufficiency verification and necessity tests.

A sufficiency scan runs the exhaustive permutation check on every
hypothesis-satisfying tuple and records any non-permutation as a
discrepancy.  A necessity scan (families P5 and P6) enumerates both sides
of the designated condition and fills a 2x2 confusion matrix over
(condition holds, is permutation); it passes when the off-diagonal cells
are exactly zero.

Which parameters a family takes, and which of them are enumerated, comes
from families.SCHEMA; the CSV parameter columns follow INT_PARAMS and
ELEMENT_PARAMS.  One verdict loop serves both modes: `_condition` says
whether a tuple is skipped, and otherwise whether the tested condition
holds, which is the expected permutation verdict.

Scans are deterministic: the parameter space is split into contiguous
index ranges, each range builds only its own tuples and returns a partial
ScanReport, partials are merged in range order, and the result is
independent of the worker count.  PERMUPOLY_THREADS bounds workers.
"""

import csv
import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

from .families import (ELEMENT_PARAMS, INT_PARAMS, NECESSITY_CLAUSE,
                       check_enumeration_guard, field_for_family, iter_family)
from .perm import is_permutation

DISCREPANCY_CAP = 100
ROW_CAP = 1 << 17
SAMPLE_THRESHOLD = 1 << 16


@dataclass
class ScanReport:
    family: str
    mode: str
    field: dict
    field_params: dict
    total: int = 0
    satisfying: int = 0
    pp_true_satisfying: int = 0
    pp_true_violating: int = 0
    confusion: dict = dc_field(default_factory=lambda: dict(tt=0, tf=0, ft=0, ff=0))
    discrepancies: list = dc_field(default_factory=list)
    discrepancy_count: int = 0
    rows: list = dc_field(default_factory=list)
    rows_truncated: bool = False
    sampled: bool = False
    duration_ms: float = 0.0
    command: str | None = None

    @property
    def passed(self):
        if self.mode == "necessity":
            return self.confusion["tf"] == 0 and self.confusion["ft"] == 0
        return self.discrepancy_count == 0

    def to_dict(self):
        return {
            "family": self.family,
            "mode": self.mode,
            "field": self.field,
            "params": self.field_params,
            "totals": {
                "tuples": self.total,
                "satisfying": self.satisfying,
                "pp_true_among_satisfying": self.pp_true_satisfying,
                "pp_true_among_violating": self.pp_true_violating,
            },
            "confusion": dict(self.confusion),
            "discrepancies": list(self.discrepancies),
            "discrepancy_count": self.discrepancy_count,
            "sampled": self.sampled,
            "passed": self.passed,
            "duration_ms": self.duration_ms,
            "command": self.command,
        }

    @staticmethod
    def from_dict(d):
        t = d["totals"]
        rep = ScanReport(
            family=d["family"], mode=d["mode"], field=d["field"],
            field_params=d["params"], total=t["tuples"],
            satisfying=t["satisfying"],
            pp_true_satisfying=t["pp_true_among_satisfying"],
            pp_true_violating=t["pp_true_among_violating"],
            confusion=dict(d["confusion"]),
            discrepancies=list(d["discrepancies"]),
            discrepancy_count=d["discrepancy_count"],
            sampled=d["sampled"], duration_ms=d["duration_ms"],
            command=d.get("command"),
        )
        return rep


def _workers(workers):
    if workers is None:
        workers = int(os.environ.get("PERMUPOLY_THREADS", "1"))
    return max(1, int(workers))


def _slices(total, workers):
    width = (total + workers - 1) // workers if total else 1
    out = []
    lo = 0
    while lo < total:
        hi = min(lo + width, total)
        out.append((lo, hi))
        lo = hi
    return out or [(0, 0)]


def _discrepancy(ctx, params, expected, observed, witness):
    d = {"params": params.to_dict(), "expected": expected, "observed": observed}
    if witness is not None:
        d["witness"] = [ctx.format_element(witness[0]),
                        ctx.format_element(witness[1])]
    return d


def _row(params, satisfied, condition, is_pp):
    row = params.to_dict()
    row["satisfied"] = satisfied
    if condition is not None:
        row["condition"] = condition
    row["is_pp"] = is_pp
    return row


def _condition(checklist, cond_name):
    """None to skip the tuple, else whether the tested condition holds.

    The tested condition is the clause cond_name (necessity scans) or, with
    cond_name None, every gating clause (sufficiency scans).  A tuple is
    skipped when a gating clause other than the condition fails, so False
    means the other hypotheses hold and the condition does not.
    """
    if not all(e.ok for e in checklist.entries
               if e.gating and e.name != cond_name):
        return None
    return cond_name is None or checklist.entry(cond_name).ok


def _scan(family, field_params, mode, modulus, ctx, workers, row_cap,
          sample_threshold):
    domain = check_enumeration_guard(family, field_params)
    if mode == "necessity" and family not in NECESSITY_CLAUSE:
        raise ValueError(f"necessity scans exist only for "
                         f"{sorted(NECESSITY_CLAUSE)}; got {family}")
    if ctx is None:
        ctx = field_for_family(family, field_params, modulus)
    cond_name = NECESSITY_CLAUSE[family] if mode == "necessity" else None
    workers = _workers(workers)
    start = time.perf_counter()
    slices = _slices(domain, workers)

    def tuples(lo, hi):
        return iter_family(family, field_params, ctx, start=lo, stop=hi)

    # Sampling pre-pass: necessity scans evaluate the condition-violating
    # side exhaustively up to the threshold; above it, a deterministic
    # stride sample is taken over global violating ordinals.
    stride = 1
    viol_prefix = [0] * len(slices)
    if mode == "necessity" and domain > sample_threshold:
        viol_counts = [sum(_condition(checklist, cond_name) is False
                           for _, _, checklist in tuples(lo, hi))
                       for lo, hi in slices]
        total_viol = sum(viol_counts)
        if total_viol > sample_threshold:
            stride = -(-total_viol // sample_threshold)  # ceil
        viol_prefix = list(itertools.accumulate(viol_counts, initial=0))

    def run_slice(idx):
        part = ScanReport(family, mode, {}, {})
        viol_ordinal = viol_prefix[idx]
        for params, poly, checklist in tuples(*slices[idx]):
            cond = _condition(checklist, cond_name)
            if cond is None:
                continue
            if not cond:
                take = (viol_ordinal % stride) == 0
                viol_ordinal += 1
                if not take:
                    continue
            part.total += 1
            rep = is_permutation(ctx, poly)
            part.satisfying += cond
            if rep.permutation:
                if cond:
                    part.pp_true_satisfying += 1
                else:
                    part.pp_true_violating += 1
            if rep.permutation != cond:
                expected = "permutation" if cond else "not-permutation"
                part.discrepancies.append(_discrepancy(
                    ctx, params, expected, rep.verdict,
                    rep.witness if cond else None))
            part.rows.append(_row(params, checklist.satisfied(),
                                  None if cond_name is None else cond,
                                  rep.permutation))
        return part

    if workers == 1 or len(slices) == 1:
        parts = [run_slice(i) for i in range(len(slices))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_slice, range(len(slices))))

    report = ScanReport(
        family=family, mode=mode,
        field={"p": ctx.p, "n": ctx.n, "modulus": hex(ctx.modulus_code)},
        field_params=dict(field_params),
        sampled=stride > 1,
    )
    for part in parts:
        report.total += part.total
        report.satisfying += part.satisfying
        report.pp_true_satisfying += part.pp_true_satisfying
        report.pp_true_violating += part.pp_true_violating
        report.discrepancies.extend(part.discrepancies)
        report.rows.extend(part.rows)
    if mode == "sufficiency":
        report.total = domain   # every tuple counts, evaluated or not
    else:
        tt, ft = report.pp_true_satisfying, report.pp_true_violating
        report.confusion = dict(tt=tt, tf=report.satisfying - tt, ft=ft,
                                ff=report.total - report.satisfying - ft)
    report.discrepancy_count = len(report.discrepancies)
    del report.discrepancies[DISCREPANCY_CAP:]
    report.rows_truncated = len(report.rows) > row_cap
    del report.rows[row_cap:]
    report.duration_ms = (time.perf_counter() - start) * 1e3
    return report


def scan_sufficiency(family, field_params, modulus=None, ctx=None,
                     workers=None, row_cap=ROW_CAP):
    """Check that every hypothesis-satisfying tuple yields a permutation."""
    return _scan(family, field_params, "sufficiency", modulus, ctx, workers,
                 row_cap, SAMPLE_THRESHOLD)


def scan_necessity(family, field_params, modulus=None, ctx=None,
                   workers=None, row_cap=ROW_CAP,
                   sample_threshold=SAMPLE_THRESHOLD):
    """Confusion-matrix test of the designated condition (P5, P6 only)."""
    return _scan(family, field_params, "necessity", modulus, ctx, workers,
                 row_cap, sample_threshold)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_CSV_PARAM_COLS = INT_PARAMS + ELEMENT_PARAMS


def report_json(report):
    return json.dumps(report.to_dict(), indent=2) + "\n"


def write_report(report, path, fmt="json"):
    """Deterministic report file; json round-trips through load_report,
    csv flattens one evaluated tuple per row."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    elif fmt == "csv":
        cols = ["family"] + [c for c in _CSV_PARAM_COLS
                             if any(c in row for row in report.rows)]
        cols += ["satisfied"]
        if report.mode == "necessity":
            cols += ["condition"]
        cols += ["is_pp"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
            w.writeheader()
            for row in report.rows:
                w.writerow(row)
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return ScanReport.from_dict(json.load(fh))
