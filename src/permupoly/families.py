"""The six built-in permutation-polynomial families P1..P6.

Each family is a constructor from parameters to a concrete CompositePoly
over its prescribed field, together with a checklist that evaluates every
hypothesis clause separately.  Clauses marked gating define the
"satisfying" side of parameter enumeration; a few clauses are reported
only (see the detail strings), and P5/P6 designate one clause as the
condition tested by necessity scans.  Tuples that agree on the parameters
a term or clause depends on share it, through a per-field memo (see _part).

Fields per family:
  P1 over GF(2^(m*k)):   (b*x + delta)^(2^m+1) + x^(2^m) + c*x
  P2 over GF(2^(2m)):    (x^(2^m) + x + delta)^(-s) + b*x
  P3 over GF(2^(2m)):    x^(2^(m+1)) + bprime*x^2 + b*x
  P4 over GF(q^e):       x^r (x^(q-1) + a), stored expanded
  P5 over GF(2^(2m)):    (x^(2^m) + x + delta)^(2^(2m-1)+2^(m-1)) + b*x
  P6 over GF(2^(2k)):    (x^2 + x + delta)^(2^(2k-1)-2^(k-1)) + b*x
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .field import _prime_factors, build_field, check_order
from .poly import X_TERMS, CompositePoly, SparsePoly, evaluate, evaluate_all

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
        d = vars(self)
        return {n: d[n] for n in names if d[n] is not None}

    def to_dict(self):
        d, fmt = vars(self), self.ctx.format_element
        out = {"family": self.family}
        for n in INT_PARAMS:
            if d[n] is not None:
                out[n] = d[n]
        for n in ELEMENT_PARAMS:
            if d[n] is not None:
                out[n] = fmt(d[n])
        return out


def _prime_power(q, e):
    """(p, j) with q = p^j, once q^e, P4's field order, is within the bound."""
    check_order(q, e)
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"q={q} is not a prime power")
    p, j = primes[0], 0
    while q > 1:
        q //= p
        j += 1
    return p, j


def family_field_shape(family, fp):
    """(p, n) of the ambient field from the integer parameters fp, each of
    which must be a positive int."""
    if family not in SCHEMA:
        raise ValueError(f"unknown family {family!r}")
    for name, v in fp.items():
        if not isinstance(v, int) or v < 1:
            raise ValueError(
                f"{family} parameter {name} must be a positive integer")
    if family == "P1":
        return 2, fp["m"] * fp["k"]
    if family in ("P2", "P3", "P5"):
        return 2, 2 * fp["m"]
    if family == "P6":
        return 2, 2 * fp["k"]
    p, j = _prime_power(fp["q"], fp["e"])
    return p, j * fp["e"]


def field_for_family(family, field_params, modulus=None):
    p, n = family_field_shape(family, field_params)
    return build_field(p, n, modulus)


# family -> ((name, required), ...) in INT_PARAMS + ELEMENT_PARAMS order, over
# the names it requires (True) and those it does not take (False); its
# optional names are absent
_ROLES = {fam: tuple((name, name in field + enum)
                     for name in INT_PARAMS + ELEMENT_PARAMS if name not in opt)
          for fam, (field, enum, opt) in SCHEMA.items()}

_INT_VALUES = operator.itemgetter(*INT_PARAMS)


@functools.lru_cache(maxsize=64, typed=True)
def _memo_field_shape(family, *ints):
    """family_field_shape on the INT_PARAMS values ints (None where unset);
    typed, so 2.0 or True never reuses the shape of 2 or 1."""
    return family_field_shape(
        family, {n: v for n, v in zip(INT_PARAMS, ints) if v is not None})


def validate_params(params):
    d = vars(params)
    fam = d["family"]
    if fam not in SCHEMA:
        raise ValueError(f"unknown family {fam!r}")
    for name, required in _ROLES[fam]:
        if (d[name] is None) == required:
            raise ValueError(f"{fam} requires parameter {name}" if required
                             else f"{fam} does not take parameter {name}")
    ctx = d["ctx"]
    try:
        p, n = _memo_field_shape(fam, *_INT_VALUES(d))
    except TypeError:       # an unhashable value, which family_field_shape rejects
        p, n = family_field_shape(fam, params.given(INT_PARAMS))
    if (ctx.p, ctx.n) != (p, n):
        raise ValueError(f"{fam} with {params.given(INT_PARAMS)} lives in "
                         f"GF({p}^{n}), not {ctx!r}")
    q = ctx.q
    for name in ELEMENT_PARAMS:
        v = d[name]
        if v is not None and (not isinstance(v, int) or not 0 <= v < q):
            raise ValueError(f"element parameter {name}={v!r} is not in {ctx!r}")
    return params


def _p1_c_exponent(m, q):
    """Exponent of b in P1's coefficient c = b^(1-2^(2m)), reduced mod q-1."""
    return (1 - (1 << (2 * m))) % (q - 1)


def _p4_exponents(q, e):
    """P4's allowed r: 1 and q^(e-1)+...+q^2+1 (the same value when e <= 2)."""
    r_big = sum(q ** i for i in range(2, e)) + 1
    return (1, r_big) if r_big != 1 else (1,)


_X = SparsePoly(X_TERMS)


def _inner(*pairs):
    """The SparsePoly of (exponent, coefficient) pairs given with distinct
    ascending exponents, as SparsePoly.make builds it: zero terms dropped."""
    return SparsePoly(tuple(t for t in pairs if t[1]))


def _b_term(b):
    """The composite terms of b*x, as CompositePoly.make keeps them."""
    return ((b, _X, 1),) if b else ()


def _entry_member(ctx, name, value, m, exclude, gating=True):
    """Membership clause: value in GF(p^m) minus an excluded set."""
    ok = ctx.in_subfield(m, value) and value not in exclude
    return ChecklistEntry(name, ok, f"value {ctx.format_element(value)}", gating)


# ---------------------------------------------------------------------------
# construction: each family's terms and clauses, built from the parameters
# they depend on and shared between tuples through a per-field memo
# ---------------------------------------------------------------------------

# Entries that make_family keeps per field (FieldCtx._parts).  A scan over
# GF(2^8) needs about 512, one per b and one per delta; a larger domain
# stores its first values and builds the rest each time.
PART_MEMO_ENTRIES = 1 << 13


def _part(ctx, build, *args):
    """build(ctx, *args), from the field's memo.  A builder reads only its
    arguments and the field, and returns immutable values (ints, tuples,
    SparsePoly, ChecklistEntry), so every tuple that reads an entry can
    share it.  A miss is stored while the memo holds fewer than
    PART_MEMO_ENTRIES entries."""
    memo, key = ctx._parts, (build, args)
    v = memo.get(key)
    if v is None:
        v = build(ctx, *args)
        if len(memo) < PART_MEMO_ENTRIES:
            memo[key] = v
    return v


# Integer parameters are formatted with :d in details, so a bool that
# validates as 0 or 1 reads the same as the int it shares a memo key with.

def _p1_b(ctx, m, k, b, c):
    """Everything in P1 but the inner base b*x + delta: its exponent, the
    x^(2^m) and c*x terms, and all five clauses."""
    exp_c = _p1_c_exponent(m, ctx.q)
    derived_c = ctx.pow(b, exp_c)
    if c is None:
        c = derived_c
    gcd_val = math.gcd((1 << m) + 1, (1 << (m * k)) - 1)
    tail = ((1, _X, 1 << m),) + (((c, _X, 1),) if c else ())
    return (1 << m) + 1, tail, (
        ChecklistEntry("2 does not divide k", k % 2 == 1, f"k={k:d}"),
        ChecklistEntry("b not in F_2", b not in (0, 1), f"b={ctx.format_element(b)}"),
        ChecklistEntry("c = b^(1-2^(2m))", c == derived_c,
                       f"c={ctx.format_element(c)}, "
                       f"b^{exp_c}={ctx.format_element(derived_c)}"),
        ChecklistEntry("c not in F_2", c not in (0, 1),
                       "reported only; the unique-preimage argument uses "
                       "just c = b^(1-2^(2m))", gating=False),
        ChecklistEntry("gcd(2^m+1, 2^n-1) = 1", gcd_val == 1,
                       f"recomputed gcd = {gcd_val}", gating=False),
    )


def _make_p1(ctx, d):
    b = d["b"]
    e, tail, entries = _part(ctx, _p1_b, d["m"], d["k"], b, d["c"])
    inner = _inner((0, d["delta"]), (1, b))
    return CompositePoly(((1, inner, e),) + tail), HypothesisChecklist(entries)


# P2's parts take its field parameters as one value, the pair ms = (m, s)

def _p2_delta(ctx, ms, delta):
    m, s = ms
    inner = _inner((0, delta), (1, 1), (1 << m, 1))
    return ((1, inner, -s),), (
        ChecklistEntry("2 does not divide m", m % 2 == 1, f"m={m:d}"),
        _entry_member(ctx, "delta in F_(2^m)", delta, m, ()),
    )


def _p2_b(ctx, ms, b):
    m, s = ms
    mod = (1 << (2 * m)) - 1
    residue = (((1 << m) + 2) * (-s)) % mod
    target = (1 << m) - 1
    return _b_term(b), (
        _entry_member(ctx, "b in F_(2^m)\\F_2", b, m, (0, 1)),
        ChecklistEntry("(2^m+2)(-s) = 2^m-1 (mod 2^(2m)-1)",
                       residue == target,
                       f"residue {residue}, target {target}; reported only, "
                       "the permutation verdict is checked by brute force",
                       gating=False),
    )


def _p3_bprime(ctx, m, bprime):
    return ctx.pow(bprime, 3), ChecklistEntry(
        "bprime in unit circle",
        bprime != 0 and ctx.pow(bprime, (1 << m) + 1) == 1,
        f"bprime={ctx.format_element(bprime)}")


def _p3_b(ctx, m, b):
    return ctx.pow(b, 2 * ((1 << m) - 1)), ChecklistEntry(
        "b not in F_(2^m)", not ctx.in_subfield(m, b), f"b={ctx.format_element(b)}")


def _make_p3(ctx, d):
    m, bprime, b = d["m"], d["bprime"], d["b"]
    bprime_cube, bprime_entry = _part(ctx, _p3_bprime, m, bprime)
    b_power, b_entry = _part(ctx, _p3_b, m, b)
    cond = ctx.mul(b_power, bprime_cube)
    poly = CompositePoly.make(
        ((b, _X, 1), (bprime, _X, 2), (1, _X, 1 << (m + 1))))
    return poly, HypothesisChecklist((
        bprime_entry, b_entry,
        ChecklistEntry("b^(2(2^m-1)) * bprime^3 = 1", cond == 1,
                       f"product {ctx.format_element(cond)}"),
    ))


def _p4_r(ctx, q, e, r):
    rs = _p4_exponents(q, e)
    return (ChecklistEntry("r in {1, q^(e-1)+...+q^2+1}", r in rs,
                           f"r={r:d}, allowed {{1, {rs[-1]}}}"),)


def _p4_a(ctx, q, e, a):
    norm_exp = (ctx.q - 1) // (q - 1)
    norm = ctx.pow(a, norm_exp)
    target = 1 if e % 2 == 0 else ctx.neg(1)
    gcd_val = math.gcd(e - 1, q - 1)
    return (
        ChecklistEntry("a != 0", a != 0, f"a={ctx.format_element(a)}"),
        ChecklistEntry("norm(a) != (-1)^e", norm != target,
                       f"a^{norm_exp}={ctx.format_element(norm)}, "
                       f"(-1)^{e:d}={ctx.format_element(target)}"),
        ChecklistEntry("gcd(e-1, q-1) = 1", gcd_val == 1, f"gcd = {gcd_val}"),
    )


def _make_p4(ctx, d):
    q, e, r, a = d["q"], d["e"], d["r"], d["a"]
    poly = CompositePoly.make(((a, _X, r), (1, _X, r + q - 1)))
    return poly, HypothesisChecklist(
        _part(ctx, _p4_r, q, e, r) + _part(ctx, _p4_a, q, e, a))


def _p5_delta(ctx, m, delta):
    inner = _inner((0, delta), (1, 1), (1 << m, 1))
    exp = (1 << (2 * m - 1)) + (1 << (m - 1))
    tr = ctx.relative_trace(m, delta)
    return ((1, inner, exp),), (
        ChecklistEntry("Tr_m^(2m)(delta) != 0", tr != 0,
                       f"trace {ctx.format_element(tr)}"),
    )


def _p5_b(ctx, m, b):
    b_pm = ctx.frobenius(b, m)
    lhs = ctx.add(b_pm, b)
    rhs = ctx.mul(b_pm, b)
    return _b_term(b), (
        ChecklistEntry("b not in F_(2^m)", b_pm != b, f"b={ctx.format_element(b)}"),
        ChecklistEntry(NECESSITY_CLAUSE["P5"], lhs == rhs,
                       f"b^(2^m)+b={ctx.format_element(lhs)}, "
                       f"b^(2^m+1)={ctx.format_element(rhs)}; this is the form the "
                       "derivation reaches (an alternate statement reads "
                       "b+b^m, which differs)"),
    )


def _p6_delta(ctx, k, delta):
    inner = _inner((0, delta), (1, 1), (2, 1))
    exp = (1 << (2 * k - 1)) - (1 << (k - 1))
    tr = ctx.relative_trace(1, delta)
    return ((1, inner, exp),), (
        ChecklistEntry("k > 1", k > 1, f"k={k:d}"),
        ChecklistEntry("Tr_1^n(delta) = 1", tr == 1, f"trace {ctx.format_element(tr)}"),
    )


def _p6_b(ctx, k, b):
    return _b_term(b), (
        ChecklistEntry(NECESSITY_CLAUSE["P6"],
                       b != 0 and ctx.in_subfield(k, b), f"b={ctx.format_element(b)}"),
    )


def _make_b_delta(delta_part, b_part, *field_names):
    """Maker for a family whose poly is (delta part's term) + b*x and whose
    clauses are the delta part's, then the b part's.  Each part takes the
    value of the field parameters, then its own element: one value for one
    name, else the tuple of them."""
    field_value = operator.itemgetter(*field_names)

    def make(ctx, d):
        f = field_value(d)
        head, delta_entries = _part(ctx, delta_part, f, d["delta"])
        tail, b_entries = _part(ctx, b_part, f, d["b"])
        return (CompositePoly(head + tail),
                HypothesisChecklist(delta_entries + b_entries))
    return make


_MAKERS = {
    "P1": _make_p1,
    "P2": _make_b_delta(_p2_delta, _p2_b, "m", "s"),
    "P3": _make_p3,
    "P4": _make_p4,
    "P5": _make_b_delta(_p5_delta, _p5_b, "m"),
    "P6": _make_b_delta(_p6_delta, _p6_b, "k"),
}


def make_family(params):
    """Build the family polynomial and its hypothesis checklist.

    Violating parameters still construct (the checklist records what
    fails), so scans can probe both sides of every clause.  The parameters
    are validated first, on every call; then each term and clause comes
    from the field's memo (see _part).
    """
    validate_params(params)
    d = vars(params)
    return _MAKERS[d["family"]](d["ctx"], d)


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
    """Size of the parameter domain, computed before any field is built,
    from q = p^n and the count of P4's allowed r (1 when e <= 2, else 2);
    a field above the size bound is refused before q is computed."""
    q = check_order(*family_field_shape(family, field_params))
    if family == "P4":
        size = (1 if field_params["e"] <= 2 else 2) * (q - 1)
    else:
        size = (q - 1 if family == "P6" else q) * q
    if size > ENUMERATION_GUARD:
        raise ValueError(f"parameter space has {size} combinations, "
                         f"above the guard of {ENUMERATION_GUARD}")
    return size


def iter_family(family, field_params, ctx=None, modulus=None):
    """Yield (params, poly, checklist) over the parameter domain in
    enumeration order."""
    check_enumeration_guard(family, field_params)
    if ctx is None:
        ctx = field_for_family(family, field_params, modulus)
    outer, inner = SCHEMA[family][1]
    outer_values, inner_values = _domains(family, field_params,
                                          ctx.elements_in_order())
    if family == "P1":
        exp_c = _p1_c_exponent(field_params["m"], ctx.q)
    # each tuple is FamilyParams(**row), built without the frozen __init__'s
    # one setattr per field
    row, new = dict(vars(FamilyParams(family, ctx, **field_params))), object.__new__
    for u in outer_values:
        row[outer] = u
        if family == "P1":          # P1's outer parameter is b
            row["c"] = ctx.pow(u, exp_c)
        for v in inner_values:
            row[inner] = v
            params = new(FamilyParams)
            vars(params).update(row)
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
    return np.flatnonzero(evaluate_all(ctx, poly) == d).tolist()


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
        roots = set(np.flatnonzero(cubic_vals == 0).tolist())
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
