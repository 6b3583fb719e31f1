"""The six built-in permutation-polynomial families P1..P6.

Each family is a constructor from parameters to a concrete CompositePoly
over its prescribed field, together with a checklist that evaluates every
hypothesis clause separately.  Clauses marked gating define the
"satisfying" side of parameter enumeration; a few clauses are reported
only (see the detail strings), and P5/P6 designate one clause as the
condition tested by necessity scans.

Fields per family:
  P1 over GF(2^(m*k)):   (b*x + delta)^(2^m+1) + x^(2^m) + c*x
  P2 over GF(2^(2m)):    (x^(2^m) + x + delta)^(-s) + b*x
  P3 over GF(2^(2m)):    x^(2^(m+1)) + bprime*x^2 + b*x
  P4 over GF(q^e):       x^r (x^(q-1) + a), stored expanded
  P5 over GF(2^(2m)):    (x^(2^m) + x + delta)^(2^(2m-1)+2^(m-1)) + b*x
  P6 over GF(2^(2k)):    (x^2 + x + delta)^(2^(2k-1)-2^(k-1)) + b*x
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .field import build_field
from .poly import CompositePoly, SparsePoly, evaluate, evaluate_all

# clause tested by scan_necessity, per family
NECESSITY_CLAUSE = {
    "P5": "b^(2^m)+b = b^(2^m+1)",
    "P6": "b in F_(2^k)\\{0}",
}

ENUMERATION_GUARD = 1 << 26


@dataclass(frozen=True)
class ChecklistEntry:
    name: str
    ok: bool
    detail: str = ""
    gating: bool = True


@dataclass(frozen=True)
class HypothesisChecklist:
    entries: tuple

    def all_true(self):
        """Every clause as stated, including reported-only ones."""
        return all(e.ok for e in self.entries)

    def satisfied(self):
        """Every gating clause; this drives parameter enumeration."""
        return all(e.ok for e in self.entries if e.gating)

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_list(self):
        return [{"name": e.name, "ok": e.ok, "detail": e.detail,
                 "gating": e.gating} for e in self.entries]


INT_PARAMS = ("m", "k", "e", "q", "s", "r")
ELEMENT_PARAMS = ("b", "c", "bprime", "delta", "a")

# family -> (field parameters, enumerated parameters, optional parameters).
# Field parameters fix the ambient field; the enumerated ones are the axes
# of iter_family, outermost first.
SCHEMA = {
    "P1": (("m", "k"), ("b", "delta"), ("c",)),
    "P2": (("m", "s"), ("b", "delta"), ()),
    "P3": (("m",), ("bprime", "b"), ()),
    "P4": (("q", "e"), ("r", "a"), ()),
    "P5": (("m",), ("b", "delta"), ()),
    "P6": (("k",), ("b", "delta"), ()),
}
FAMILY_IDS = tuple(SCHEMA)


@dataclass(frozen=True)
class FamilyParams:
    family: str
    ctx: object
    m: int | None = None
    k: int | None = None
    e: int | None = None
    q: int | None = None
    s: int | None = None
    r: int | None = None
    b: int | None = None
    c: int | None = None
    bprime: int | None = None
    delta: int | None = None
    a: int | None = None

    def given(self, names):
        """{name: value} for the names in `names` that are set."""
        return {n: getattr(self, n) for n in names if getattr(self, n) is not None}

    def to_dict(self):
        fmt = self.ctx.format_element
        out = {"family": self.family}
        out.update(self.given(INT_PARAMS))
        out.update({k: fmt(v) for k, v in self.given(ELEMENT_PARAMS).items()})
        return out


def _prime_power(q):
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    p = None
    for d in range(2, q + 1):
        if q % d == 0:
            p = d
            break
    j = 0
    while q > 1:
        if q % p != 0:
            raise ValueError(f"q={q} is not a prime power")
        q //= p
        j += 1
    return p, j


def family_field_shape(family, fp):
    """(p, n) of the ambient field from the integer field parameters."""
    if family == "P1":
        return 2, fp["m"] * fp["k"]
    if family in ("P2", "P3", "P5"):
        return 2, 2 * fp["m"]
    if family == "P6":
        return 2, 2 * fp["k"]
    if family == "P4":
        p, j = _prime_power(fp["q"])
        return p, j * fp["e"]
    raise ValueError(f"unknown family {family!r}")


def field_for_family(family, field_params, modulus=None):
    p, n = family_field_shape(family, field_params)
    return build_field(p, n, modulus)


def validate_params(params):
    fam = params.family
    if fam not in SCHEMA:
        raise ValueError(f"unknown family {fam!r}")
    field, enumerated, optional = SCHEMA[fam]
    required = field + enumerated
    for name in INT_PARAMS + ELEMENT_PARAMS:
        v = getattr(params, name)
        if v is None:
            if name in required:
                raise ValueError(f"{fam} requires parameter {name}")
        elif name not in required and name not in optional:
            raise ValueError(f"{fam} does not take parameter {name}")
    for name in required:
        v = getattr(params, name)
        if name in INT_PARAMS and (not isinstance(v, int) or v < 1):
            raise ValueError(f"{fam} parameter {name} must be a positive integer")
    ctx = params.ctx
    ints = params.given(INT_PARAMS)
    p, n = family_field_shape(fam, ints)
    if (ctx.p, ctx.n) != (p, n):
        raise ValueError(f"{fam} with {ints} lives in GF({p}^{n}), not {ctx!r}")
    for name, v in params.given(ELEMENT_PARAMS).items():
        if not isinstance(v, int) or not 0 <= v < ctx.q:
            raise ValueError(f"element parameter {name}={v!r} is not in {ctx!r}")
    return params


def _p1_c_exponent(m, q):
    """Exponent of b in P1's coefficient c = b^(1-2^(2m)), reduced mod q-1."""
    return (1 - (1 << (2 * m))) % (q - 1)


def _p4_exponents(q, e):
    """P4's allowed r: 1 and q^(e-1)+...+q^2+1 (the same value when e <= 2)."""
    r_big = sum(q ** i for i in range(2, e)) + 1
    return (1, r_big) if r_big != 1 else (1,)


def _fmt(ctx, x):
    return ctx.format_element(x)


def _entry_member(ctx, name, value, m, exclude, gating=True):
    """Membership clause: value in GF(p^m) minus an excluded set."""
    ok = ctx.in_subfield(m, value) and value not in exclude
    return ChecklistEntry(name, ok, f"value {_fmt(ctx, value)}", gating)


def make_family(params):
    """Build the family polynomial and its hypothesis checklist.

    Violating parameters still construct (the checklist records what
    fails), so scans can probe both sides of every clause.
    """
    validate_params(params)
    fam, ctx = params.family, params.ctx
    x = SparsePoly(((1, 1),))

    if fam == "P1":
        m, k, b, delta = params.m, params.k, params.b, params.delta
        n = m * k
        exp_c = _p1_c_exponent(m, ctx.q)
        derived_c = ctx.pow(b, exp_c)
        c = params.c if params.c is not None else derived_c
        inner = SparsePoly.make(ctx, [(1, b), (0, delta)])
        poly = CompositePoly.make([
            (1, inner, (1 << m) + 1),
            (1, x, 1 << m),
            (c, x, 1),
        ])
        gcd_val = math.gcd((1 << m) + 1, (1 << n) - 1)
        checklist = HypothesisChecklist((
            ChecklistEntry("2 does not divide k", k % 2 == 1, f"k={k}"),
            ChecklistEntry("b not in F_2", b not in (0, 1), f"b={_fmt(ctx, b)}"),
            ChecklistEntry("c = b^(1-2^(2m))", c == derived_c,
                           f"c={_fmt(ctx, c)}, b^{exp_c}={_fmt(ctx, derived_c)}"),
            ChecklistEntry("c not in F_2", c not in (0, 1),
                           "reported only; the unique-preimage argument uses "
                           "just c = b^(1-2^(2m))", gating=False),
            ChecklistEntry("gcd(2^m+1, 2^n-1) = 1", gcd_val == 1,
                           f"recomputed gcd = {gcd_val}", gating=False),
        ))
        return poly, checklist

    if fam == "P2":
        m, s, b, delta = params.m, params.s, params.b, params.delta
        inner = SparsePoly.make(ctx, [(1 << m, 1), (1, 1), (0, delta)])
        poly = CompositePoly.make([(1, inner, -s), (b, x, 1)])
        mod = (1 << (2 * m)) - 1
        residue = (((1 << m) + 2) * (-s)) % mod
        target = (1 << m) - 1
        checklist = HypothesisChecklist((
            ChecklistEntry("2 does not divide m", m % 2 == 1, f"m={m}"),
            _entry_member(ctx, "delta in F_(2^m)", delta, m, ()),
            _entry_member(ctx, "b in F_(2^m)\\F_2", b, m, (0, 1)),
            ChecklistEntry("(2^m+2)(-s) = 2^m-1 (mod 2^(2m)-1)",
                           residue == target,
                           f"residue {residue}, target {target}; reported only, "
                           "the permutation verdict is checked by brute force",
                           gating=False),
        ))
        return poly, checklist

    if fam == "P3":
        m, bprime, b = params.m, params.bprime, params.b
        circle_exp = (1 << m) + 1
        cond = ctx.mul(ctx.pow(b, 2 * ((1 << m) - 1)), ctx.pow(bprime, 3))
        poly = CompositePoly.monomials(
            ctx, [(1 << (m + 1), 1), (2, bprime), (1, b)])
        checklist = HypothesisChecklist((
            ChecklistEntry("bprime in unit circle",
                           bprime != 0 and ctx.pow(bprime, circle_exp) == 1,
                           f"bprime={_fmt(ctx, bprime)}"),
            ChecklistEntry("b not in F_(2^m)", not ctx.in_subfield(m, b),
                           f"b={_fmt(ctx, b)}"),
            ChecklistEntry("b^(2(2^m-1)) * bprime^3 = 1", cond == 1,
                           f"product {_fmt(ctx, cond)}"),
        ))
        return poly, checklist

    if fam == "P4":
        q, e, r, a = params.q, params.e, params.r, params.a
        rs = _p4_exponents(q, e)
        norm_exp = (ctx.q - 1) // (q - 1)
        norm = ctx.pow(a, norm_exp)
        minus_one = ctx.neg(1)
        target = 1 if e % 2 == 0 else minus_one
        gcd_val = math.gcd(e - 1, q - 1)
        poly = CompositePoly.monomials(ctx, [(r + q - 1, 1), (r, a)])
        checklist = HypothesisChecklist((
            ChecklistEntry("r in {1, q^(e-1)+...+q^2+1}", r in rs,
                           f"r={r}, allowed {{1, {rs[-1]}}}"),
            ChecklistEntry("a != 0", a != 0, f"a={_fmt(ctx, a)}"),
            ChecklistEntry("norm(a) != (-1)^e", norm != target,
                           f"a^{norm_exp}={_fmt(ctx, norm)}, "
                           f"(-1)^{e}={_fmt(ctx, target)}"),
            ChecklistEntry("gcd(e-1, q-1) = 1", gcd_val == 1,
                           f"gcd = {gcd_val}"),
        ))
        return poly, checklist

    if fam == "P5":
        m, b, delta = params.m, params.b, params.delta
        inner = SparsePoly.make(ctx, [(1 << m, 1), (1, 1), (0, delta)])
        exp = (1 << (2 * m - 1)) + (1 << (m - 1))
        poly = CompositePoly.make([(1, inner, exp), (b, x, 1)])
        tr = ctx.relative_trace(m, delta)
        lhs = ctx.add(ctx.frobenius(b, m), b)
        rhs = ctx.mul(ctx.frobenius(b, m), b)
        checklist = HypothesisChecklist((
            ChecklistEntry("Tr_m^(2m)(delta) != 0", tr != 0,
                           f"trace {_fmt(ctx, tr)}"),
            ChecklistEntry("b not in F_(2^m)", not ctx.in_subfield(m, b),
                           f"b={_fmt(ctx, b)}"),
            ChecklistEntry(NECESSITY_CLAUSE["P5"], lhs == rhs,
                           f"b^(2^m)+b={_fmt(ctx, lhs)}, "
                           f"b^(2^m+1)={_fmt(ctx, rhs)}; this is the form the "
                           "derivation reaches (an alternate statement reads "
                           "b+b^m, which differs)"),
        ))
        return poly, checklist

    # P6
    k, b, delta = params.k, params.b, params.delta
    n = 2 * k
    inner = SparsePoly.make(ctx, [(2, 1), (1, 1), (0, delta)])
    exp = (1 << (2 * k - 1)) - (1 << (k - 1))
    poly = CompositePoly.make([(1, inner, exp), (b, x, 1)])
    tr = ctx.relative_trace(1, delta)
    checklist = HypothesisChecklist((
        ChecklistEntry("k > 1", k > 1, f"k={k}"),
        ChecklistEntry("Tr_1^n(delta) = 1", tr == 1,
                       f"trace {_fmt(ctx, tr)}"),
        ChecklistEntry(NECESSITY_CLAUSE["P6"],
                       b != 0 and ctx.in_subfield(k, b),
                       f"b={_fmt(ctx, b)}"),
    ))
    return poly, checklist


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _domains(family, fp, elems):
    """Values of each enumerated parameter in SCHEMA order, drawn from the
    field's elements `elems` (canonical order, zero first)."""
    if family == "P4":
        return [_p4_exponents(fp["q"], fp["e"]), elems[1:]]
    if family == "P6":
        return [elems[1:], elems]
    return [elems, elems]


def check_enumeration_guard(family, field_params):
    """Size of the parameter domain, computed before any field is built."""
    p, n = family_field_shape(family, field_params)
    size = math.prod(map(len, _domains(family, field_params, range(p ** n))))
    if size > ENUMERATION_GUARD:
        raise ValueError(f"parameter space has {size} combinations, "
                         f"above the guard of {ENUMERATION_GUARD}")
    return size


def iter_family(family, field_params, ctx=None, modulus=None, start=0,
                stop=None):
    """Yield (params, poly, checklist) over the parameter domain, or over
    its tuples start..stop-1 in enumeration order; tuples outside that
    range are never constructed."""
    check_enumeration_guard(family, field_params)
    if ctx is None:
        ctx = field_for_family(family, field_params, modulus)
    base = FamilyParams(family=family, ctx=ctx, **field_params)
    names = SCHEMA[family][1]
    if family == "P1":
        exp_c = _p1_c_exponent(field_params["m"], ctx.q)
    combos = itertools.product(
        *_domains(family, field_params, ctx.elements_in_order()))
    for combo in itertools.islice(combos, start, stop):
        values = dict(zip(names, combo))
        if family == "P1":
            values["c"] = ctx.pow(values["b"], exp_c)
        params = replace(base, **values)
        poly, checklist = make_family(params)
        yield params, poly, checklist


def enumerate_params(family, field_params, filt="satisfying", ctx=None,
                     modulus=None):
    """Deterministic stream of parameter tuples matching the filter.

    filt is one of "satisfying" (all gating hypotheses hold), "violating",
    or "all".
    """
    if filt not in ("satisfying", "violating", "all"):
        raise ValueError(f"unknown filter {filt!r}")
    for params, _, checklist in iter_family(family, field_params, ctx, modulus):
        keep = (filt == "all"
                or (filt == "satisfying") == checklist.satisfied())
        if keep:
            yield params


# ---------------------------------------------------------------------------
# proof-internal identities, mechanized at desk scale
# ---------------------------------------------------------------------------

def _brute_preimages(ctx, poly, d):
    values = evaluate_all(ctx, poly)
    return [x for x in range(ctx.q) if int(values[x]) == d]


def proof_identity_check(family, params, d=None):
    """Verify the solution-structure identities inside each construction.

    P1: the substitution y = b*x + delta turns g(x) = d into a bijective
        power equation; its unique solution must map back to the unique
        brute-force preimage of d.
    P2: g(x) = d is solved by x = (d+1)/b, except when the inner base
        vanishes at d/b, in which case the solution is x = d/b and the
        other candidate fails; never both.
    P3: every root of the cubic constraining the circle component of a
        would-be kernel element hits a contradiction, so the kernel is
        trivial (cross-checked by direct enumeration).
    """
    poly, checklist = make_family(params)
    ctx = params.ctx

    if family == "P1":
        if not checklist.satisfied():
            raise ValueError("P1 identity check needs satisfying parameters")
        if d is None:
            raise ValueError("P1 identity check needs a target value d")
        m = params.m
        b, delta = params.b, params.delta
        c = (params.c if params.c is not None
             else ctx.pow(b, _p1_c_exponent(m, ctx.q)))
        e = (1 << m) + 1
        if math.gcd(e, ctx.q - 1) != 1:
            raise ValueError("2^m+1 is not invertible mod q-1")
        e_inv = pow(e, -1, ctx.q - 1)
        b_pm = ctx.pow(b, 1 << m)
        rhs = ctx.add(
            ctx.add(ctx.div(c, ctx.mul(b_pm, b)),
                    ctx.div(ctx.frobenius(delta, m), b_pm)),
            ctx.add(ctx.div(ctx.mul(c, delta), b), d))
        z = ctx.pow(rhs, e_inv)
        y = ctx.add(z, ctx.inv(b_pm))
        x_sol = ctx.div(ctx.add(y, delta), b)
        return (evaluate(ctx, poly, x_sol) == d
                and _brute_preimages(ctx, poly, d) == [x_sol])

    if family == "P2":
        for e in checklist.entries:
            if not e.ok:
                raise ValueError(f"P2 identity check needs all hypotheses "
                                 f"including the exponent congruence; "
                                 f"failing: {e.name}")
        if d is None:
            raise ValueError("P2 identity check needs a target value d")
        m, b, delta = params.m, params.b, params.delta
        inner = SparsePoly.make(ctx, [(1 << m, 1), (1, 1), (0, delta)])
        # whether the inner base vanishes at d/b
        w = ctx.add(ctx.add(ctx.div(ctx.frobenius(d, m), ctx.frobenius(b, m)),
                            ctx.div(d, b)), delta)
        x_zero = ctx.div(d, b)
        x_main = ctx.div(ctx.add(d, 1), b)
        sols = _brute_preimages(ctx, poly, d)
        if w == 0:
            # the other candidate makes the inner base vanish as well, so its
            # image is d+1, not d
            return (sols == sorted({x_zero})
                    and evaluate(ctx, inner, x_main) == 0
                    and evaluate(ctx, poly, x_main) == ctx.add(d, 1))
        return (sols == sorted({x_main})
                and evaluate(ctx, poly, x_zero) != d)

    if family == "P3":
        if not checklist.satisfied():
            raise ValueError("P3 identity check needs satisfying parameters")
        m, bprime, b = params.m, params.bprime, params.b
        b_exp = ctx.pow(b, (1 << m) - 1)
        cubic = CompositePoly.monomials(ctx, [
            (3, 1),
            (2, ctx.mul(bprime, b_exp)),
            (1, ctx.frobenius(bprime, m)),
            (0, b_exp),
        ])
        cubic_vals = evaluate_all(ctx, cubic)
        roots = {t for t in range(ctx.q) if int(cubic_vals[t]) == 0}
        double_root = ctx.pow(bprime, 1 << (m - 1))
        third_root = ctx.mul(b_exp, bprime)
        roots_named = roots <= {double_root, third_root}
        both_are_roots = (int(cubic_vals[double_root]) == 0
                          and int(cubic_vals[third_root]) == 0)
        # double root: lambda^4 would equal bprime^(2^m) = 1/bprime, the
        # excluded case where the subfield coefficient vanishes
        excluded_case = ctx.pow(double_root, 2) == ctx.inv(bprime)
        # third root: 1 + bprime*lambda^4 = 0, forcing b*lambda = 0
        forces_zero = ctx.add(1, ctx.mul(bprime, ctx.pow(third_root, 2))) == 0
        kernel = _brute_preimages(ctx, poly, 0)
        return (roots_named and both_are_roots and excluded_case
                and forces_zero and kernel == [0])

    raise ValueError(f"no proof identity check for family {family!r}")


def kernel_is_trivial(ctx, poly):
    """PP criterion for additive polynomials: only 0 maps to 0."""
    values = evaluate_all(ctx, poly)
    zeros = np.count_nonzero(np.asarray(values) == 0)
    return zeros == 1 and int(values[0]) == 0
