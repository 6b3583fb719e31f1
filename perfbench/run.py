"""permupoly benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload scan-char2 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Per-run details
(environment, every operation, failures, spans) go to .perfbench_out/.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50
TAIL_BEYOND = 10


def import_program():
    """The permupoly package of this checkout, never an installed copy."""
    pkg = ROOT / "src" / "permupoly"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no permupoly sources under {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import permupoly
    if Path(permupoly.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported permupoly from {permupoly.__file__}, not {pkg}")
    return permupoly


def make_api(pp):
    """The entry points the operations call; the tracer swaps these."""
    return types.SimpleNamespace(
        build_field=pp.build_field, evaluate_all=pp.evaluate_all,
        parse_poly=pp.parse_poly, is_permutation=pp.is_permutation,
        scan_sufficiency=pp.scan_sufficiency, scan_necessity=pp.scan_necessity,
        evaluate=pp.evaluate, lemma1_check=pp.lemma1_check,
        SparsePoly=pp.SparsePoly, identity=pp.CompositePoly.identity())


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def setup(api, fields):
    """Build every field and evaluate x on it, which also finishes any lazy
    table conversion; returns ({field: ctx}, seconds)."""
    t0 = time.perf_counter()
    ctxs = {}
    for p, n, modulus in fields:
        ctx = api.build_field(p, n, modulus)
        api.evaluate_all(ctx, api.identity)
        ctxs[(p, n, modulus)] = ctx
    return ctxs, time.perf_counter() - t0


def timed_setup(api, fields):
    """Median of repeated set-ups: at least SETUP_MIN_REPS, until SETUP_MIN_S."""
    times, ctxs, start = [], None, time.perf_counter()
    while (len(times) < SETUP_MIN_REPS
           or (time.perf_counter() - start < SETUP_MIN_S
               and len(times) < SETUP_MAX_REPS)):
        ctxs = None     # free the previous fields first, as a new process would
        ctxs, seconds = setup(api, fields)
        times.append(seconds)
    return ctxs, statistics.median(times), len(times)


def run_op(wl, api, ctxs, op):
    """One timed operation: (result or the exception it raised, seconds)."""
    t0 = time.perf_counter()
    try:
        result = wl.run(api, ctxs, op)
    except Exception as exc:  # counted as a failed operation, run goes on
        result = exc
    return result, time.perf_counter() - t0


def check(wl, api, ctxs, op, result):
    """Why result is wrong, or None; runs outside the timed operation."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    try:
        return wl.verify(api, ctxs, op, result)
    except Exception as exc:  # an oracle crash is a failed check too
        return f"oracle raised {type(exc).__name__}: {exc}"


class Log:
    """Per-operation records and failures of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.ops = []
        self.failures = []

    def add(self, phase, op, result, seconds, reason):
        failed = isinstance(result, Exception)
        self.ops.append({"phase": phase, "kind": op.kind, "seconds": seconds,
                         "text": op.text[:120],
                         "result": repr(result) if failed else self.wl.summary(result)})
        if reason:
            self.failures.append({"op": len(self.ops) - 1, "phase": phase,
                                  "kind": op.kind, "text": op.text[:120],
                                  "reason": reason})

    @property
    def failed(self):
        return len({f["op"] for f in self.failures})


class SeamLatency:
    """Time and count of the is_permutation calls a scan makes, taken at the
    permupoly.scan binding (two clock reads per call)."""

    def __init__(self, scan_mod):
        self.scan_mod = scan_mod
        self.seconds = 0.0
        self.calls = 0

    def __enter__(self):
        inner = self.original = vars(self.scan_mod)["is_permutation"]
        clock = time.perf_counter

        def probe(ctx, f):
            t0 = clock()
            rep = inner(ctx, f)
            self.seconds += clock() - t0
            self.calls += 1
            return rep

        self.scan_mod.is_permutation = probe
        return self

    def __exit__(self, *exc):
        self.scan_mod.is_permutation = self.original

    def mean_since_last(self):
        """Mean check latency since the previous call."""
        mean = self.seconds / self.calls if self.calls else 0.0
        self.seconds, self.calls = 0.0, 0
        return mean


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the largest value if there are too few samples."""
    s = sorted(values)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        k = len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(wl, pp, api, seconds):
    """Whole blocks of operations until `seconds` of operation time."""
    ctxs, setup_s, setup_reps = timed_setup(api, wl.fields())
    wl.prepare(ctxs)
    log, busy, polys, latencies = Log(wl), 0.0, 0, []
    with contextlib.ExitStack() as stack:
        if wl.latency_from_seam:
            probe = stack.enter_context(SeamLatency(pp.scan))
        for block in wl.blocks():
            for op in block:
                result, op_s = run_op(wl, api, ctxs, op)
                busy += op_s
                # one sample per scan, the mean of its checks: host speed drift
                # moves a mean smoothly, where a median of 10^5 checks jumps
                latencies.append(probe.mean_since_last() if wl.latency_from_seam
                                 else op_s)
                if not isinstance(result, Exception):
                    polys += wl.polys(op, result)
                log.add("timed", op, result, op_s, check(wl, api, ctxs, op, result))
                result = None       # let the next operation start from a clean heap
            if busy >= seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(log.ops)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "polys_per_s": (polys / busy, "1/s"),
        "check_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "check_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (1 - log.failed / attempted, "ratio"),
    }
    details = {"setup_reps": setup_reps, "busy_s": busy, "polys": polys,
               "check_samples": len(latencies), "check_tail_percentile": tail_pct,
               "fail_ratio": log.failed / attempted}
    note = (f"check_tail_ms is p{tail_pct:.2f} of {len(latencies)} samples; "
            f"fail_ratio {log.failed}/{attempted}")
    return log, metrics, details, note


def traced(wl, pp, api, spans_path=None):
    """Run the first wl.trace_blocks blocks untraced and traced; the traced
    copy gives the per-layer metrics and must match the untraced verdicts."""
    from tracer import Tracer

    ctxs, _ = setup(api, wl.fields())
    wl.prepare(ctxs)
    blocks = wl.blocks()
    ops = [op for _ in range(wl.trace_blocks) for op in next(blocks)]
    tracer = Tracer()
    targets = (api, pp.field.FieldCtx, pp.families, pp.scan, pp.perm)
    with tracer.installed(*targets):
        traced_ctxs, _ = setup(api, wl.fields())
    # each operation runs once untraced and once traced, in alternating order
    log, walls = Log(wl), {"untraced": 0.0, "traced": 0.0}
    for i, op in enumerate(ops):
        results = {}
        for phase in (("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")):
            if phase == "traced":
                tracer.op_id = i
                with tracer.installed(*targets):
                    result, op_s = run_op(wl, api, traced_ctxs, op)
            else:
                result, op_s = run_op(wl, api, ctxs, op)
            walls[phase] += op_s
            results[phase] = result
            reason = check(wl, api, ctxs, op, result)
            other = results.get("traced" if phase == "untraced" else "untraced")
            if (not reason and other is not None and not isinstance(other, Exception)
                    and wl.summary(result) != wl.summary(other)):
                reason = "traced and untraced results differ"
            log.add(phase, op, result, op_s, reason)
    overhead = walls["traced"] / walls["untraced"] - 1
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    details = {"ops": len(ops), "untraced_s": walls["untraced"],
               "traced_s": walls["traced"], "spans": len(tracer.span_name)}
    if spans_path is not None:
        tracer.save_spans(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    note = (f"tracing overhead {overhead:+.1%} on {len(ops)} operations "
            f"({walls['untraced']:.2f} s untraced, {walls['traced']:.2f} s traced)")
    return log, metrics, details, note


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "permupoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"seed": seed, "commit": git_commit(),
            "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu}


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    os.environ.pop("PERMUPOLY_THREADS", None)     # scans use one worker
    pp = import_program()
    api = make_api(pp)
    wl = WORKLOADS[args.workload](args.seed, pp.is_irreducible)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        log, metrics, details, note = traced(wl, pp, api, OUT_DIR / f"{stem}-spans.npz")
    else:
        log, metrics, details, note = end_to_end(wl, pp, api, args.seconds)

    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "details": details, "ops": log.ops, "failures": log.failures}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for f in log.failures[:20]:
        print(f"FAILED op {f['op']} ({f['phase']} {f['kind']}): {f['reason']}",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload}: {note}")
    print(json.dumps({"correct": not log.failures, "attempted": len(log.ops),
                      "failed": log.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
