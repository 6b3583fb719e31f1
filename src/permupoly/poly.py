"""Composite polynomial expressions: sums of c * (inner polynomial)^e.

This is the shape shared by all the built-in families, e.g.
"(x^8 + x + g^3)^57 + g^1*x".  Pointwise evaluation is the primary
semantics; negative outer exponents follow the field convention
(exponents mod q-1 for nonzero bases, 0^e = 0 for e != 0, 0^0 = 1).
"""

from dataclasses import dataclass

import numpy as np

from .field import KERNEL_BLOCK, MAX_EXPONENT, read_exponent

REDUCE_FIELD_BOUND = 1 << 12
# Bytes of composite powers T^e that evaluate_all keeps per field: 2^17
# int32 codes, or 512 entries at q = 2^8.  That holds all 256 bases of a
# q = 2^8 scan.  Only whole-field arrays are stored, so a field above
# KERNEL_BLOCK, evaluated in slices, stores nothing.
POWER_MEMO_BYTES = 1 << 19

# the identity inner polynomial x
X_TERMS = ((1, 1),)


class PolyParseError(ValueError):
    """Syntax or range error in polynomial text, with a character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class SparsePoly:
    """Monomial sum: ((exponent, coefficient), ...), exponents strictly
    increasing, coefficients nonzero.  The empty tuple is the zero poly."""

    terms: tuple

    @staticmethod
    def make(ctx, pairs):
        acc = {}
        for e, c in pairs:
            if e < 0:
                raise ValueError("inner polynomial exponents must be non-negative")
            acc[e] = ctx.add(acc.get(e, 0), c)
        terms = tuple((e, c) for e, c in sorted(acc.items()) if c != 0)
        return SparsePoly(terms)

    def degree(self):
        return self.terms[-1][0] if self.terms else -1

    def is_x(self):
        return self.terms == X_TERMS


# the inner polynomial x, shared by every term on x alone
_X = SparsePoly(X_TERMS)


@dataclass(frozen=True)
class CompositePoly:
    """Terms (coeff, base SparsePoly, outer exponent); outer exponents may
    be negative.  A lone (1, x, 1) term is the identity polynomial."""

    terms: tuple

    @staticmethod
    def make(terms):
        return CompositePoly(tuple((c, b, e) for c, b, e in terms if c != 0))

    @staticmethod
    def monomials(ctx, pairs):
        """Composite form of a plain monomial sum c*x^e."""
        merged = {}
        for e, c in pairs:
            merged[e] = ctx.add(merged.get(e, 0), c)
        return CompositePoly.make((c, _X, e) for e, c in sorted(merged.items()))

    @staticmethod
    def identity():
        return CompositePoly(((1, _X, 1),))

    def plus_x(self):
        """f(x) + x, used by the complete-permutation check."""
        return CompositePoly(self.terms + ((1, _X, 1),))


def eval_sparse(ctx, sp, x):
    """sp(x) from the log tables: a term c * x^e is one exp-table read at
    log c + e * log x (mod q-1), and the terms sum by XOR for p = 2.  At
    x = 0 only the constant term survives (0^0 = 1, 0^e = 0)."""
    char2 = ctx.p == 2
    acc = 0
    if x == 0:
        for e, c in sp.terms:
            if e == 0:
                acc = acc ^ c if char2 else ctx.add(acc, c)
        return acc
    E, L, qm1 = ctx._exp, ctx._log, ctx._qm1
    lx = L[x]
    for e, c in sp.terms:
        if c:
            t = E[(L[c] + lx * e) % qm1]
            acc = acc ^ t if char2 else ctx.add(acc, t)
    return acc


def evaluate(ctx, f, x):
    """f(x) for a CompositePoly (or SparsePoly) under the exponent
    convention, with the scalar ops inlined as in eval_sparse: a term
    c * T^e is one exp-table read for T != 0, c for T = 0 and e = 0, and
    0 otherwise; e may be negative."""
    if isinstance(f, SparsePoly):
        return eval_sparse(ctx, f, x)
    E, L, qm1 = ctx._exp, ctx._log, ctx._qm1
    char2 = ctx.p == 2
    acc = 0
    for c, base, e in f.terms:
        if not c:
            continue
        t = eval_sparse(ctx, base, x)
        if t:
            t = E[(L[c] + L[t] * e) % qm1]
        elif e == 0:
            t = c
        else:
            continue
        acc = acc ^ t if char2 else ctx.add(acc, t)
    return acc


def _sum_terms(ctx, terms, X, lo, runs, out):
    """Sum of the (c, base, e) terms c * base(x)^e at the points X, which
    sit at positions lo.. of canonical order (see FieldCtx.monomial_vec,
    which keeps its progressions in runs), written into the int32 array
    out and returned.  Every add writes into out, and a sum of one term is
    copied there.  A term calls only the kernels it needs: e = 0 is the
    constant c (0^0 = 1), and the constants fold into one scalar added
    last; c * x^e is one monomial_vec gather and x itself is X, while a
    composite base is raised through the memo (_base_power) and skips the
    scale for c = 1."""
    acc, const = None, 0
    for c, base, e in terms:
        if c == 0:
            continue
        if e == 0:
            const = ctx.add(const, c)
            continue
        if base.terms == X_TERMS:
            v = X if c == 1 and e == 1 else ctx.monomial_vec(c, e, lo, lo + len(X), runs)
        else:
            v = _base_power(ctx, base, e, X, lo, runs)
            if c != 1:
                v = ctx.scale_vec(c, v)
        acc = v if acc is None else ctx.add_vec(acc, v, out)
    if acc is None:
        out.fill(const)
    elif const:
        ctx.add_vec(acc, const, out)
    elif acc is not out:
        out[...] = acc
    return out


def _x_terms(sp):
    """The monomials of a SparsePoly as (c, x, e) terms."""
    return tuple((c, _X, e) for e, c in sp.terms)


def _base_power(ctx, base, e, X, lo, runs):
    """T^e for a composite base T = base(x) and e != 0, at the points X of
    one canonical slice, from the field's memo.  A miss is evaluated, and
    stored read-only when it covers the whole field and the memo stays
    within POWER_MEMO_BYTES; every entry holds q codes, so the slices of a
    larger field are never stored.  Scans cycle through their bases, so
    store-until-full keeps hitting where LRU eviction would miss every
    time."""
    memo, key = ctx._powers, (base.terms, e)
    v = memo.get(key)
    if v is None:
        T = _sum_terms(ctx, _x_terms(base), X, lo, runs, np.empty(len(X), dtype=np.int32))
        v = T if e == 1 else ctx.pow_vec(T, e)
        if len(v) == ctx.q and (len(memo) + 1) * v.nbytes <= POWER_MEMO_BYTES:
            v.flags.writeable = False
            memo[key] = v
    return v


def evaluate_all(ctx, f):
    """Values of f on every field element in canonical order: f(0) at
    position 0 and f(g^i) at position i + 1, so f(a) is at log(a) + 1 for
    a != 0.  The result is a fresh writable int32 array, filled one
    KERNEL_BLOCK slice at a time, so every other array the evaluation
    makes is the size of a slice.
    """
    P = ctx._P
    q = ctx.q
    terms = _x_terms(f) if isinstance(f, SparsePoly) else f.terms
    values, runs, lo = np.empty(q, dtype=np.int32), {}, 0
    while lo < q:                       # not range(): a one-slice field pays for no range per call
        hi = lo + KERNEL_BLOCK          # past q in the last slice, where slicing stops at q
        _sum_terms(ctx, terms, P[lo:hi], lo, runs, values[lo:hi])
        lo = hi
    return values


def reduce_mod_field(ctx, f):
    """The unique polynomial of degree < q agreeing with f on all of GF(q).

    Recovered from the value table through the multiplicative group:
    c_0 = f(0), c_{q-1} = -sum_a f(a), and for 0 < j < q-1
    c_j = -sum_{a != 0} f(a) a^{-j}.
    """
    q = ctx.q
    if q > REDUCE_FIELD_BOUND:
        raise ValueError(
            f"reduce_mod_field is limited to q <= {REDUCE_FIELD_BOUND} "
            f"(got q={q}); use pointwise evaluation instead")
    values = evaluate_all(ctx, f)
    pairs = []
    if values[0] != 0:
        pairs.append((0, int(values[0])))
    if q > 1:
        E, L = ctx._E, ctx._L
        qm1 = q - 1
        # values at g^i are values[i + 1]; zeros masked out
        nz = np.nonzero(values[1:])[0]
        logv = L[values[nz + 1]]
        for j in range(1, qm1):
            cj = ctx.neg(ctx.field_sum_vec(E[(logv - j * nz) % qm1]))
            if cj:
                pairs.append((j, cj))
        c_top = ctx.neg(ctx.field_sum_vec(values))
        if c_top:
            pairs.append((qm1, c_top))
    return SparsePoly(tuple(pairs))


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------
#   poly  := term (('+' | '-') term)*
#   term  := coeff '*'? | coeff? '*'? ('x' | '(' base ')') ('^' int)?
#   base  := poly, with terms on 'x' only and exponents >= 0
#   coeff := 'g' ('^' int)? | element literal (FieldCtx.parse_element)
#   int   := '-'? decimal digits
# Whitespace between tokens is insignificant; '#' is not a comment here
# (files strip comments per line).


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def peek(self):
        """The next character after any whitespace, or "" at the end."""
        self.take_while(str.isspace)
        return self.text[self.i:self.i + 1]

    def take(self):
        c = self.peek()
        self.i += 1
        return c

    def take_while(self, accept):
        """Advance past the characters accept takes; the text passed over."""
        start = self.i
        while self.i < len(self.text) and accept(self.text[self.i]):
            self.i += 1
        return self.text[start:self.i]

    def error(self, msg):
        raise PolyParseError(msg, self.i)


def _power(cur, signed):
    """The exponent after a '^', or 1 when no '^' follows: decimal digits,
    after a '-' when signed, at most MAX_EXPONENT in size."""
    if cur.peek() != "^":
        return 1
    cur.take()
    negative = signed and cur.peek() == "-"
    if negative:
        cur.take()
    if not cur.peek().isdecimal():
        cur.error("expected an integer")
    value = read_exponent(cur.take_while(str.isdecimal))
    if value is None:
        cur.error("exponent overflow")
    return -value if negative else value


def _parse_coeff(cur, ctx):
    """A coefficient, or None when none starts here: g, g^k, or an element
    literal for ctx.parse_element, which is decimal digits, or 0x/0b and the
    alphanumerics after it."""
    c = cur.peek()
    if c == "g":
        cur.take()
        return ctx.gen_pow(_power(cur, signed=True)) if cur.peek() == "^" else ctx.generator
    if not c.isdecimal():
        return None
    start = cur.i
    if cur.text.startswith(("0x", "0X", "0b", "0B"), start):
        cur.i += 2
        cur.take_while(str.isalnum)
    else:
        cur.take_while(str.isdecimal)
    try:
        return ctx.parse_element(cur.text[start:cur.i])
    except ValueError as exc:
        raise PolyParseError(str(exc), start) from None


def _parse_term(cur, ctx, inner):
    """(c, base, e) for one term; a bare constant c is (c, x, 0).  A term of
    a base (inner) is a monomial on x with e >= 0, or a constant."""
    coeff = _parse_coeff(cur, ctx)
    if cur.peek() == "*":
        cur.take()
    nxt = cur.peek()
    if nxt == "x":
        cur.take()
        base = _X
    elif nxt == "(" and not inner:
        cur.take()
        base = SparsePoly.make(ctx, ((e, c) for c, _, e in _parse_sum(cur, ctx, inner=True)))
        if cur.peek() != ")":
            cur.error("expected ')'")
        cur.take()
    elif coeff is not None:
        return coeff, _X, 0
    else:
        cur.error("nested composite bases are not supported" if nxt == "("
                  else "expected a term")
    return 1 if coeff is None else coeff, base, _power(cur, signed=not inner)


def _parse_sum(cur, ctx, inner):
    """The terms of a signed sum, each (c, base, e) with its sign applied."""
    terms, negate = [], False
    while True:
        c, base, e = _parse_term(cur, ctx, inner)
        terms.append((ctx.neg(c) if negate else c, base, e))
        if cur.peek() not in ("+", "-"):
            return terms
        negate = cur.take() == "-"


def parse_poly(ctx, text):
    """Parse polynomial text into a CompositePoly."""
    cur = _Cursor(text)
    terms = _parse_sum(cur, ctx, inner=False)
    if cur.peek():
        cur.error(f"unexpected {cur.peek()!r}")
    return CompositePoly.make(terms)


def _term_text(ctx, c, body, e):
    """Text of the term c * body^e, body "x" or a bracketed base; c * x^0
    is the bare constant c."""
    if e == 0 and body == "x":
        return ctx.format_element(c)
    if e != 1:
        body = f"{body}^{e}"
    return body if c == 1 else f"{ctx.format_element(c)}*{body}"


def to_text(ctx, f):
    """Canonical text form; parse_poly(ctx, to_text(ctx, f)) == f."""
    if isinstance(f, SparsePoly):
        return " + ".join(_term_text(ctx, c, "x", e) for e, c in reversed(f.terms)) or "0"
    return " + ".join(
        _term_text(ctx, c, "x" if base.is_x() else f"({to_text(ctx, base)})", e)
        for c, base, e in f.terms) or "0"


def load_poly_file(ctx, path):
    """One polynomial per line; '#' starts a comment; blank lines skipped."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                out.append(parse_poly(ctx, line))
    return out
