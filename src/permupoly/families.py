"""The six built-in permutation-polynomial families P1..P6.

Each family is one Family record in FAMILIES, which every function reads.
Its maker is a constructor from parameters to a concrete CompositePoly
over its prescribed field, together with a checklist that evaluates every
hypothesis clause separately.  Clauses marked gating define the
"satisfying" side of parameter enumeration; a few clauses are reported
only (see the detail strings), and P5/P6 designate one clause as the
condition tested by necessity scans.  A FamilyParams is validated when it
is built; iter_family builds its first tuple that way and the rest from
the same axes.  Tuples that agree on the parameters a term or clause
depends on share it, through a per-field memo (see _part).
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .field import _prime_factors, build_field, check_order
from .poly import X_TERMS, CompositePoly, SparsePoly, evaluate, evaluate_all

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

    def __post_init__(self):
        validate_params(self)

    def given(self, names):
        """{name: value} for the names in `names` that are set."""
        d = vars(self)
        return {n: d[n] for n in names if d[n] is not None}

    def to_dict(self):
        fmt = self.ctx.format_element
        elements = {n: fmt(v) for n, v in self.given(ELEMENT_PARAMS).items()}
        return {"family": self.family, **self.given(INT_PARAMS), **elements}


@dataclass(frozen=True)
class Family:
    """One family's facts.  Its field parameters fix GF(p^n), (p, n) =
    shape(fp).  Its enumerated ones are iter_family's axes, outermost first:
    axes[i](fp, elems) draws one from the elements in canonical order, and
    domain_size counts it on range(q).  make(ctx, d) builds the polynomial
    and checklist; derive(ctx, fp, u), if set, gives {name: value} for the
    optional parameters (P1's c) that go with the outer value u."""
    field: tuple
    enumerated: tuple
    axes: tuple
    shape: object
    make: object
    optional: tuple = ()
    derive: object = None
    necessity: str | None = None    # the clause a necessity scan tests
    # violating(fp, q): tuples that a necessity scan finds on the violating
    # side (every other gating clause holds, the condition fails)
    violating: object = None
    proof: object = None            # see proof_identity_check
    proof_needs: str = "satisfying parameters"
    proof_strict: bool = False
    proof_takes_d: bool = True

    @functools.cached_property
    def roles(self):
        """The role check every FamilyParams runs when it is built (see
        validate_params): (name, required) over the names not optional."""
        required = self.field + self.enumerated
        return tuple((name, name in required)
                     for name in INT_PARAMS + ELEMENT_PARAMS
                     if name not in self.optional)

    def domain_size(self, fp, q):
        """Tuples in the domain over GF(q), refused above ENUMERATION_GUARD."""
        size = math.prod(len(values(fp, range(q))) for values in self.axes)
        if size > ENUMERATION_GUARD:
            raise ValueError(f"parameter space has {size} combinations, "
                             f"above the guard of {ENUMERATION_GUARD}")
        return size


class _Table(dict):
    """FAMILIES: a read of an unknown id raises the one error for it."""
    def __missing__(self, family):
        raise ValueError(f"unknown family {family!r}")


def _prime_power(fp):
    """P4's field shape (p, j*e) for q = p^j, once q^e is within the bound."""
    q, e = fp["q"], fp["e"]
    check_order(q, e)
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"q={q} is not a prime power")
    p, j = primes[0], 0
    while q > 1:
        q //= p
        j += 1
    return p, j * e


def family_field_shape(family, fp):
    """(p, n) of the ambient field from the integer parameters fp, each of
    which must be a positive int."""
    fam = FAMILIES[family]
    for name, v in fp.items():
        if not isinstance(v, int) or v < 1:
            raise ValueError(
                f"{family} parameter {name} must be a positive integer")
    return fam.shape(fp)


def field_for_family(family, field_params, modulus=None):
    p, n = family_field_shape(family, field_params)
    return build_field(p, n, modulus)


def validate_params(params):
    d = vars(params)
    fam = d["family"]
    for name, required in FAMILIES[fam].roles:
        if (d[name] is None) == required:
            raise ValueError(f"{fam} requires parameter {name}" if required
                             else f"{fam} does not take parameter {name}")
    ctx = d["ctx"]
    p, n = family_field_shape(fam, params.given(INT_PARAMS))
    if (ctx.p, ctx.n) != (p, n):
        raise ValueError(f"{fam} with {params.given(INT_PARAMS)} lives in "
                         f"GF({p}^{n}), not {ctx!r}")
    q = ctx.q
    for name in ELEMENT_PARAMS:
        v = d[name]
        if v is not None and (not isinstance(v, int) or not 0 <= v < q):
            raise ValueError(f"element parameter {name}={v!r} is not in {ctx!r}")


def _p1_c_exponent(m, q):
    """Exponent of b in P1's coefficient c = b^(1-2^(2m)), reduced mod q-1."""
    return (1 - (1 << (2 * m))) % (q - 1)


def _p4_exponents(q, e):
    """P4's allowed r: 1 and q^(e-1)+...+q^2+1 (the same value when e <= 2)."""
    r_big = sum(q ** i for i in range(2, e)) + 1
    return (1, r_big) if r_big != 1 else (1,)


def _elements(fp, elems):
    return elems


def _nonzero(fp, elems):
    return elems[1:]


_X = SparsePoly(X_TERMS)


def _inner(*pairs):
    """The SparsePoly of (exponent, coefficient) pairs given with distinct
    ascending exponents, as SparsePoly.make builds it: zero terms dropped."""
    return SparsePoly(tuple(t for t in pairs if t[1]))


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


def _p1_derived_c(ctx, fp, b):
    """The c = b^(1-2^(2m)) that iter_family sets with b."""
    return {"c": ctx.pow(b, _p1_c_exponent(fp["m"], ctx.q))}


def _p2_delta(ctx, ms, delta):
    m = ms[0]
    return (
        ChecklistEntry("2 does not divide m", m % 2 == 1, f"m={m:d}"),
        ChecklistEntry("delta in F_(2^m)", ctx.in_subfield(m, delta),
                       f"value {ctx.format_element(delta)}"),
    )


def _p2_b(ctx, ms, b):
    m, s = ms
    mod = (1 << (2 * m)) - 1
    residue = (((1 << m) + 2) * (-s)) % mod
    target = (1 << m) - 1
    return (
        ChecklistEntry("b in F_(2^m)\\F_2", ctx.in_subfield(m, b) and b not in (0, 1),
                       f"value {ctx.format_element(b)}"),
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
    tr = ctx.relative_trace(m, delta)
    return (ChecklistEntry("Tr_m^(2m)(delta) != 0", tr != 0,
                           f"trace {ctx.format_element(tr)}"),)


def _p5_b(ctx, m, b):
    b_pm = ctx.frobenius(b, m)
    lhs = ctx.add(b_pm, b)
    rhs = ctx.mul(b_pm, b)
    return (
        ChecklistEntry("b not in F_(2^m)", b_pm != b, f"b={ctx.format_element(b)}"),
        ChecklistEntry(NECESSITY_CLAUSE["P5"], lhs == rhs,
                       f"b^(2^m)+b={ctx.format_element(lhs)}, "
                       f"b^(2^m+1)={ctx.format_element(rhs)}; this is the form the "
                       "derivation reaches (an alternate statement reads "
                       "b+b^m, which differs)"),
    )


def _p6_delta(ctx, k, delta):
    tr = ctx.relative_trace(1, delta)
    return (
        ChecklistEntry("k > 1", k > 1, f"k={k:d}"),
        ChecklistEntry("Tr_1^n(delta) = 1", tr == 1, f"trace {ctx.format_element(tr)}"),
    )


def _p6_b(ctx, k, b):
    return (ChecklistEntry(NECESSITY_CLAUSE["P6"], b != 0 and ctx.in_subfield(k, b),
                           f"b={ctx.format_element(b)}"),)


def make_family(params):
    """Build the family polynomial and its hypothesis checklist.

    Violating parameters still construct (the checklist records what
    fails), so scans can probe both sides of every clause.  params was
    validated when it was built; each term and clause comes from the
    field's memo (see _part).
    """
    return FAMILIES[params.family].make(params.ctx, vars(params))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def check_enumeration_guard(family, field_params):
    """Size of the parameter domain, computed before any field is built; a
    field above the size bound is refused before q is computed."""
    q = check_order(*family_field_shape(family, field_params))
    return FAMILIES[family].domain_size(field_params, q)


def iter_family(family, field_params, ctx=None, modulus=None):
    """Yield (params, poly, checklist) over the parameter domain in
    enumeration order."""
    check_enumeration_guard(family, field_params)
    if ctx is None:
        ctx = field_for_family(family, field_params, modulus)
    fam = FAMILIES[family]
    outer, inner = fam.enumerated
    outer_axis, inner_axis = fam.axes
    elems = ctx.elements_in_order()
    inner_values = inner_axis(field_params, elems)
    row = {"family": family, "ctx": ctx,
           **dict.fromkeys(INT_PARAMS + ELEMENT_PARAMS), **field_params}
    # Only the first tuple is built by the validating constructor: it fixes
    # the names set and the field shape, and every later value comes from the
    # axes or ctx.pow (P1's c), so it is in range by construction.  The rest
    # skip the check and the frozen __init__'s one setattr per field.
    new, params = object.__new__, None
    for u in outer_axis(field_params, elems):
        row[outer] = u
        if fam.derive:
            row.update(fam.derive(ctx, field_params, u))
        for v in inner_values:
            row[inner] = v
            if params is None:
                params = FamilyParams(**row)
            else:
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


def _p1_identity(ctx, params, poly, d):
    m = params.m
    b, delta = params.b, params.delta
    c = (params.c if params.c is not None
         else ctx.pow(b, _p1_c_exponent(m, ctx.q)))
    # invertible: k is odd (a gating clause), so gcd(2^m+1, 2^(mk)-1) = 1
    e_inv = pow((1 << m) + 1, -1, ctx.q - 1)
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


def _p2_identity(ctx, params, poly, d):
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


def _p3_identity(ctx, params, poly, d):
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

    `family` must name params.family.  Its record's proof(ctx, params, poly,
    d) runs once every gating clause (every clause, if proof_strict) holds,
    else proof_needs is formatted with the failing clause's name.
    """
    if family != params.family:
        raise ValueError(f"family {family!r} is not params.family {params.family!r}")
    poly, checklist = make_family(params)
    fam = FAMILIES[family]
    if fam.proof is None:
        raise ValueError(f"no proof identity check for family {family!r}")
    for e in checklist.entries:
        if not e.ok and (e.gating or fam.proof_strict):
            raise ValueError(f"{family} identity check needs "
                             + fam.proof_needs.format(e.name))
    if fam.proof_takes_d and d is None:
        raise ValueError(f"{family} identity check needs a target value d")
    return fam.proof(params.ctx, params, poly, d)


def kernel_is_trivial(ctx, poly):
    """PP criterion for additive polynomials: only 0 maps to 0."""
    values = evaluate_all(ctx, poly)
    zeros = np.count_nonzero(np.asarray(values) == 0)
    return zeros == 1 and int(values[0]) == 0


def _b_delta_family(field, l_exp, h_exp, delta_clauses, b_clauses,
                    b_values=_elements, **facts):
    """Record of a family g(x) = (x^l + x + delta)^h + b*x over GF(2^(2t)),
    t its first field parameter, with l = l_exp(f) and h = h_exp(f) for the
    value f of the field parameters (one value for one name, else the tuple
    of them).  delta_clauses(ctx, f, delta) and b_clauses(ctx, f, b) build
    the clauses on delta and on b."""
    field_value = operator.itemgetter(*field)

    def delta_part(ctx, f, delta):
        inner = _inner((0, delta), (1, 1), (l_exp(f), 1))
        return ((1, inner, h_exp(f)),), delta_clauses(ctx, f, delta)

    def make(ctx, d):
        f, b = field_value(d), d["b"]
        head, delta_entries = _part(ctx, delta_part, f, d["delta"])
        b_x = ((b, _X, 1),) if b else ()     # as CompositePoly.make keeps it
        return (CompositePoly(head + b_x),
                HypothesisChecklist(delta_entries + _part(ctx, b_clauses, f, b)))
    return Family(field, ("b", "delta"), (b_values, _elements),
                  lambda fp: (2, 2 * fp[field[0]]), make, **facts)


FAMILIES = _Table({
    # (b*x + delta)^(2^m+1) + x^(2^m) + c*x over GF(2^(m*k))
    "P1": Family(("m", "k"), ("b", "delta"), (_elements, _elements),
                 lambda fp: (2, fp["m"] * fp["k"]), _make_p1,
                 optional=("c",), derive=_p1_derived_c, proof=_p1_identity),
    "P2": _b_delta_family(
        ("m", "s"), lambda ms: 1 << ms[0], lambda ms: -ms[1], _p2_delta, _p2_b,
        proof=_p2_identity, proof_strict=True, proof_needs="all hypotheses "
        "including the exponent congruence; failing: {}"),
    # x^(2^(m+1)) + bprime*x^2 + b*x over GF(2^(2m))
    "P3": Family(("m",), ("bprime", "b"), (_elements, _elements),
                 lambda fp: (2, 2 * fp["m"]), _make_p3,
                 proof=_p3_identity, proof_takes_d=False),
    # x^r (x^(q-1) + a), stored expanded, over GF(q^e)
    "P4": Family(("q", "e"), ("r", "a"),
                 (lambda fp, elems: _p4_exponents(fp["q"], fp["e"]), _nonzero),
                 _prime_power, _make_p4),
    "P5": _b_delta_family(
        ("m",), lambda m: 1 << m, lambda m: (1 << (2 * m - 1)) + (1 << (m - 1)),
        _p5_delta, _p5_b, necessity="b^(2^m)+b = b^(2^m+1)",
        # q-2^m deltas of nonzero relative trace; q-2^(m+1) b outside
        # F_(2^m), as 2^m of those q-2^m have b+1 on the unit circle
        violating=lambda fp, q: (q - (1 << fp["m"])) * (q - (2 << fp["m"]))),
    "P6": _b_delta_family(
        ("k",), lambda k: 2, lambda k: (1 << (2 * k - 1)) - (1 << (k - 1)),
        _p6_delta, _p6_b, b_values=_nonzero, necessity="b in F_(2^k)\\{0}",
        # q/2 deltas of trace 1 times q-2^k b outside F_(2^k); k = 1 fails k > 1
        violating=lambda fp, q: (
            (q - (1 << fp["k"])) * q // 2 if fp["k"] > 1 else 0)),
})
FAMILY_IDS = tuple(FAMILIES)
# clause tested by scan_necessity, per family that has one
NECESSITY_CLAUSE = {fid: fam.necessity for fid, fam in FAMILIES.items()
                    if fam.necessity is not None}
