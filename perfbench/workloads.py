"""Seeded inputs, timed operations and oracles for each benchmark workload.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  Operations come in blocks of fixed make-up
and a run stops only at a block boundary, so the mix of operations is the
same in every run however many blocks fit.  The seed picks every input; the
program only sees the generated moduli, parameters and polynomial texts.
Every result is checked against an oracle that does not use the vectorised
evaluation path (see `verify`).
"""

import math
import random
from dataclasses import dataclass

# Counts the paper's claims fix for the acceptance scans, for any modulus.
# P1 m=2 k=3: every one of the 62*64 tuples with b outside F_2 permutes.
# P6 k=4 and P5 m=4: the designated condition matches the verdict exactly.
SCAN_PLAN = (
    ("P1", {"m": 2, "k": 3}, "sufficiency",
     {"total": 4096, "satisfying": 3968, "pp_true_satisfying": 3968,
      "discrepancy_count": 0}),
    ("P6", {"k": 4}, "necessity",
     {"total": 32640, "tt": 1920, "tf": 0, "ft": 0, "ff": 30720}),
    ("P5", {"m": 4}, "necessity",
     {"total": 57600, "tt": 3840, "tf": 0, "ft": 0, "ff": 53760}),
)


@dataclass(frozen=True)
class Op:
    kind: str
    field: tuple            # (p, n, modulus code)
    text: str = ""          # polynomial text, for checks
    spec: tuple = ()        # workload-specific facts the oracle needs


def _digits(code, p, length):
    out = []
    for _ in range(length):
        code, r = divmod(code, p)
        out.append(r)
    return tuple(out)


def irreducible_codes(p, n, is_irreducible):
    """Packed codes of every monic irreducible of degree n over GF(p)."""
    base = p ** n
    return [base + t for t in range(base)
            if is_irreducible(_digits(base + t, p, n + 1), p)]


def random_irreducible(rng, p, n, is_irreducible):
    base = p ** n
    while True:
        code = base + rng.randrange(base)
        if is_irreducible(_digits(code, p, n + 1), p):
            return code


def _exponent_with_gcd(rng, qm1, g):
    while True:
        e = rng.randrange(2, qm1)
        if math.gcd(e, qm1) == g:
            return e


class ScanChar2:
    """P1 over GF(2^6), then the P6 k=4 and P5 m=4 necessity scans over
    GF(2^8), each on a seeded modulus passed as modulus=."""

    name = "scan-char2"
    latency_from_seam = True        # each scan gives one latency sample
    trace_blocks = 1

    def __init__(self, seed, is_irreducible, plan=SCAN_PLAN):
        rng = random.Random(f"{self.name}:{seed}")
        self.plan = plan
        self.moduli = {}
        for n in sorted({self._degree(fam, fp) for fam, fp, _, _ in plan}):
            self.moduli[n] = rng.choice(irreducible_codes(2, n, is_irreducible))

    @staticmethod
    def _degree(family, fp):
        return fp["m"] * fp["k"] if family == "P1" else 2 * fp.get("m", fp.get("k"))

    def fields(self):
        return [(2, n, mod) for n, mod in sorted(self.moduli.items())]

    def prepare(self, ctxs):
        pass

    def blocks(self):
        """One block is one pass over the plan."""
        block = []
        for family, fp, mode, expected in self.plan:
            n = self._degree(family, fp)
            block.append(Op(mode, (2, n, self.moduli[n]), spec=(family, fp, expected)))
        while True:
            yield block

    def run(self, api, ctxs, op):
        family, fp, _ = op.spec
        scan = api.scan_sufficiency if op.kind == "sufficiency" else api.scan_necessity
        return scan(family, fp, modulus=op.field[2])

    @staticmethod
    def polys(op, report):
        """Tuples handed to is_permutation."""
        return report.satisfying if op.kind == "sufficiency" else report.total

    @staticmethod
    def summary(report):
        return ("scan", report.total, report.satisfying, report.pp_true_satisfying,
                report.pp_true_violating, tuple(sorted(report.confusion.items())),
                report.discrepancy_count, report.sampled)

    def verify(self, api, ctxs, op, report):
        _, _, expected = op.spec
        got = {"total": report.total, "satisfying": report.satisfying,
               "pp_true_satisfying": report.pp_true_satisfying,
               "discrepancy_count": report.discrepancy_count, **report.confusion}
        wrong = {k: (got[k], v) for k, v in expected.items() if got[k] != v}
        if wrong:
            return f"counts differ from the paper's (got, want): {wrong}"
        if report.sampled:
            return "necessity scan fell back to sampling"
        if not report.passed:
            return "scan reports FAIL"
        return None


class _CheckWorkload:
    """Shared loop for the check-pp workloads: parse_poly, then is_permutation,
    on one prebuilt field; kinds come in shuffled blocks of fixed make-up."""

    latency_from_seam = False
    trace_blocks = 2
    block = ()

    def fields(self):
        return [self.field]

    def blocks(self):
        while True:
            kinds = list(self.block)
            self.rng.shuffle(kinds)
            yield [self.make(kind) for kind in kinds]

    def run(self, api, ctxs, op):
        ctx = ctxs[op.field]
        f = api.parse_poly(ctx, op.text)
        return f, api.is_permutation(ctx, f)

    @staticmethod
    def polys(op, result):
        return 1

    @staticmethod
    def summary(result):
        _, rep = result
        return ("check", rep.permutation, rep.witness, rep.image_size)

    def prepare(self, ctxs):
        pass

    def make(self, kind):
        if not kind.startswith("mono"):
            return self.make_form(kind)
        e = _exponent_with_gcd(self.rng, self.q - 1, int(kind[4:]))
        return Op(kind, self.field, f"x^{e}", (e,))

    def expected(self, api, ctx, op):
        """(permutes, pinned witness or None), from an oracle outside the
        vectorised path."""
        if not op.kind.startswith("mono"):
            return self.form_permutes(api, ctx, op), None
        e, = op.spec
        g = math.gcd(e, self.q - 1)
        return g == 1, (1, ctx.gen_pow((self.q - 1) // g))

    def verify(self, api, ctxs, op, result):
        ctx = ctxs[op.field]
        f, rep = result
        want_pp, want_witness = self.expected(api, ctx, op)
        if rep.permutation != want_pp:
            return f"verdict {rep.permutation}, oracle says {want_pp}"
        if rep.permutation:
            if rep.witness is not None or rep.image_size != ctx.q:
                return "permutation reported with a witness or a short image"
            return None
        if rep.witness is None or rep.image_size >= ctx.q:
            return "non-permutation reported without a witness"
        x1, x2 = rep.witness
        if x1 == x2 or api.evaluate(ctx, f, x1) != api.evaluate(ctx, f, x2):
            return f"witness {rep.witness} fails scalar re-evaluation"
        if want_witness is not None and rep.witness != want_witness:
            return f"witness {rep.witness}, pinned witness {want_witness}"
        return None


class CheckChar2(_CheckWorkload):
    """check-pp over GF(2^(2k)), k = 10 by default: P6-form polynomials on
    both sides of b in GF(2^k)*, and monomials with gcd(e, q-1) = 3 or 15."""

    name = "check-char2"
    block = ("p6_pp", "p6_pp", "p6_pp", "p6_np", "p6_np",
             "mono3", "mono3", "mono15")

    def __init__(self, seed, is_irreducible, k=10):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.k = k
        n = 2 * k
        self.q = 1 << n
        self.field = (2, n, random_irreducible(self.rng, 2, n, is_irreducible))
        self.exponent = (1 << (2 * k - 1)) - (1 << (k - 1))
        self.sub_step = (self.q - 1) // ((1 << k) - 1)   # GF(2^k)* = <g^sub_step>

    def prepare(self, ctxs):
        ctx = ctxs[self.field]
        while True:
            d = self.rng.randrange(self.q - 1)
            if ctx.relative_trace(1, ctx.gen_pow(d)) == 1:
                self.delta_log = d
                return

    def make_form(self, kind):
        if kind == "p6_pp":
            b = self.sub_step * self.rng.randrange((1 << self.k) - 1)
        else:
            b = self.rng.randrange(self.q - 1)
            while b % self.sub_step == 0:
                b = self.rng.randrange(self.q - 1)
        text = f"(x^2 + x + g^{self.delta_log})^{self.exponent} + g^{b}*x"
        return Op(kind, self.field, text, (b,))

    def form_permutes(self, api, ctx, op):
        # the paper's necessity statement: permutes iff b in GF(2^k)*
        b_log, = op.spec
        return b_log % self.sub_step == 0


class CheckOddp(_CheckWorkload):
    """check-pp over GF(5^e), e = 8 by default: P4-form x^r (x^4 + a) for
    both r on both sides of the norm clause, and monomials with
    gcd(e, q-1) = 3.  The P4 verdicts come from lemma1_check."""

    name = "check-oddp"
    block = ("p4_1_pp", "p4_1_np", "p4_big_pp", "p4_big_np", "mono3", "mono3")

    def __init__(self, seed, is_irreducible, e=8):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.q = 5 ** e
        self.field = (5, e, random_irreducible(self.rng, 5, e, is_irreducible))
        self.r_big = sum(5 ** i for i in range(2, e)) + 1
        self.d = (self.q - 1) // 4
        # norm(g^A) = g^(A (q-1)/4) is 1 = (-1)^e exactly when 4 | A
        self.pool = {}
        for r_name, r in (("1", 1), ("big", self.r_big)):
            self.pool[f"p4_{r_name}_pp"] = (r, 4 * self.rng.randrange(self.d) + 1
                                            + self.rng.randrange(3))
            self.pool[f"p4_{r_name}_np"] = (r, 4 * self.rng.randrange(self.d))
        self._lemma1 = {}

    def make_form(self, kind):
        r, a_log = self.pool[kind]
        return Op(kind, self.field, f"x^{r + 4} + g^{a_log}*x^{r}", (r, a_log))

    def form_permutes(self, api, ctx, op):
        # x^r h(x^((q-1)/d)) with h(y) = y + a; each distinct input once
        if op.spec not in self._lemma1:
            r, a_log = op.spec
            h = api.SparsePoly.make(ctx, [(1, 1), (0, ctx.gen_pow(a_log))])
            self._lemma1[op.spec] = api.lemma1_check(ctx, r, self.d, h).ok
        return self._lemma1[op.spec]


WORKLOADS = {cls.name: cls for cls in (ScanChar2, CheckChar2, CheckOddp)}
