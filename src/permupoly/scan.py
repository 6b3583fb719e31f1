"""Whole-parameter-space scans: sufficiency verification and necessity tests.

A sufficiency scan runs the exhaustive permutation check on every
hypothesis-satisfying tuple and records any non-permutation as a
discrepancy.  A necessity scan (families P5 and P6) enumerates both sides
of the designated condition and fills a 2x2 confusion matrix over
(condition holds, is permutation); it passes when the off-diagonal cells
are exactly zero.

A family's parameters, enumerated axes and necessity clause come from its
record in families.FAMILIES; the CSV parameter columns follow INT_PARAMS
and ELEMENT_PARAMS.  Each evaluated tuple leaves a row of plain values,
kept only up to the row cap, and its elements are formatted only when the
report is written as CSV.  One verdict loop serves both modes:
`_condition` says whether a tuple is skipped, and otherwise whether the
tested condition holds, which is the expected permutation verdict.

Scans are deterministic: one sequential pass on the calling thread walks
the parameter space in enumeration order and tallies straight into the
report.  A necessity scan whose family record states more
condition-violating tuples than the sample threshold keeps every
stride-th of them by a running ordinal; every necessity scan checks its
count of them against the record.
"""

import csv
import json
import operator
import time
from dataclasses import dataclass, field as dc_field

from .families import (ELEMENT_PARAMS, FAMILIES, INT_PARAMS, NECESSITY_CLAUSE,
                       family_field_shape, field_for_family, iter_family)
from .field import check_order
from .perm import is_permutation

DISCREPANCY_CAP = 100
ROW_CAP = 1 << 17
SAMPLE_THRESHOLD = 1 << 16
# Largest scan_work a scan may have; above it the scan is refused before its
# field is built.  Over GF(2^10), P1 m=2 k=5, P2 m=5, P5 m=5 and P6 k=5
# estimate about 1.07e9, and P4 5^6 4.9e8; P6 k=6 (6.9e10) and P4 625^2
# (1.5e11, hours of work) are refused.
WORK_GUARD = 1 << 31


def scan_work(tuples, q):
    """A scan's work estimate, in field elements: each tuple is built once
    and may be decided by a check over all q elements, so tuples * (1 + q)."""
    return tuples * (1 + q)


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
    ctx: object = dc_field(default=None, repr=False, compare=False)

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


def _discrepancy(ctx, params, expected, observed, witness):
    d = {"params": params.to_dict(), "expected": expected, "observed": observed}
    if witness is not None:
        d["witness"] = [ctx.format_element(witness[0]),
                        ctx.format_element(witness[1])]
    return d


# a row is a tuple: the values of _CSV_PARAM_COLS (None where unset), then
# satisfied, condition (None in sufficiency scans) and is_pp
_CSV_PARAM_COLS = INT_PARAMS + ELEMENT_PARAMS
_ROW_VALUES = operator.itemgetter(*_CSV_PARAM_COLS)
_FIRST_ELEMENT_COL = len(INT_PARAMS)


def _condition(checklist, cond_name):
    """None to skip the tuple, else whether the tested condition holds.

    The tested condition is the clause cond_name (necessity scans) or, with
    cond_name None, every gating clause (sufficiency scans).  A tuple is
    skipped when a gating clause other than the condition fails, so False
    means the other hypotheses hold and the condition does not.  Either way
    the verdict is also whether every gating clause holds.
    """
    held = True
    for e in checklist.entries:
        if e.name == cond_name:
            held = e.ok
        elif e.gating and not e.ok:
            return None
    return held


def _scan(family, field_params, mode, modulus, ctx, row_cap, sample_threshold):
    q = check_order(*family_field_shape(family, field_params))
    domain = FAMILIES[family].domain_size(field_params, q)   # the enumeration guard
    cond_name = FAMILIES[family].necessity if mode == "necessity" else None
    if mode == "necessity" and cond_name is None:
        raise ValueError(f"necessity scans exist only for "
                         f"{sorted(NECESSITY_CLAUSE)}; got {family}")
    work = scan_work(domain, q)
    if work > WORK_GUARD:
        raise ValueError(f"scan work estimate {work:.3g} ({domain} tuples, each "
                         f"built and checked on {q} elements) is above the "
                         f"guard of {WORK_GUARD:.3g}")
    if ctx is None:
        ctx = field_for_family(family, field_params, modulus)
    start = time.perf_counter()

    # Necessity scans evaluate the condition-violating side exhaustively up
    # to the threshold; above it, every stride-th violating ordinal.
    stride = 1
    if cond_name is not None:
        violating = FAMILIES[family].violating(field_params, q)
        stride = max(1, -(-violating // sample_threshold))  # ceil

    report = ScanReport(
        family=family, mode=mode,
        field={"p": ctx.p, "n": ctx.n, "modulus": hex(ctx.modulus_code)},
        field_params=dict(field_params),
        sampled=stride > 1, ctx=ctx,
    )
    rows = report.rows
    viol_ordinal = 0
    for params, poly, checklist in iter_family(family, field_params, ctx):
        cond = _condition(checklist, cond_name)
        if cond is None:
            continue
        if not cond:
            take = (viol_ordinal % stride) == 0
            viol_ordinal += 1
            if not take:
                continue
        report.total += 1
        rep = is_permutation(ctx, poly)
        report.satisfying += cond
        if rep.permutation:
            if cond:
                report.pp_true_satisfying += 1
            else:
                report.pp_true_violating += 1
        if rep.permutation != cond:
            report.discrepancy_count += 1
            if len(report.discrepancies) < DISCREPANCY_CAP:
                expected = "permutation" if cond else "not-permutation"
                report.discrepancies.append(_discrepancy(
                    ctx, params, expected, rep.verdict,
                    rep.witness if cond else None))
        # one row past the cap tells that rows were dropped
        if len(rows) <= row_cap:
            rows.append((*_ROW_VALUES(vars(params)), cond,
                         None if cond_name is None else cond, rep.permutation))

    if mode == "sufficiency":
        report.total = domain   # every tuple counts, evaluated or not
    else:
        if viol_ordinal != violating:
            raise AssertionError(
                f"{family} {field_params} necessity scan met {viol_ordinal} "
                f"condition-violating tuples; its record states {violating}")
        tt, ft = report.pp_true_satisfying, report.pp_true_violating
        report.confusion = dict(tt=tt, tf=report.satisfying - tt, ft=ft,
                                ff=report.total - report.satisfying - ft)
    report.rows_truncated = len(rows) > row_cap
    del rows[row_cap:]
    report.duration_ms = (time.perf_counter() - start) * 1e3
    return report


def scan_sufficiency(family, field_params, modulus=None, ctx=None,
                     row_cap=ROW_CAP):
    """Check that every hypothesis-satisfying tuple yields a permutation."""
    return _scan(family, field_params, "sufficiency", modulus, ctx, row_cap,
                 SAMPLE_THRESHOLD)


def scan_necessity(family, field_params, modulus=None, ctx=None,
                   row_cap=ROW_CAP, sample_threshold=SAMPLE_THRESHOLD):
    """Confusion-matrix test of the designated condition (P5, P6 only)."""
    return _scan(family, field_params, "necessity", modulus, ctx, row_cap,
                 sample_threshold)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def report_json(report):
    return json.dumps(report.to_dict(), indent=2) + "\n"


def write_report(report, path, fmt="json"):
    """Deterministic report file; json holds the report's to_dict, csv
    flattens one evaluated tuple per row."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    elif fmt == "csv":
        _write_csv(report, path)
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _write_csv(report, path):
    """One line per row: the family, the parameter columns some row sets,
    with elements formatted in the report's field, then the verdicts."""
    rows = report.rows
    used = [i for i in range(len(_CSV_PARAM_COLS))
            if any(row[i] is not None for row in rows)]
    ints = [i for i in used if i < _FIRST_ELEMENT_COL]
    elems = [i for i in used if i >= _FIRST_ELEMENT_COL]
    verdicts = {"satisfied": -3, "condition": -2, "is_pp": -1}
    if report.mode != "necessity":
        del verdicts["condition"]
    fmt = report.ctx.format_element if elems else None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["family", *(_CSV_PARAM_COLS[i] for i in used), *verdicts])
        for row in rows:
            w.writerow([report.family, *(row[i] for i in ints),
                        *(None if row[i] is None else fmt(row[i]) for i in elems),
                        *(row[i] for i in verdicts.values())])
