"""Composite polynomial expressions: sums of c * (inner polynomial)^e.

This is the shape shared by all the built-in families, e.g.
"(x^8 + x + g^3)^57 + g^1*x".  Pointwise evaluation is the primary
semantics; negative outer exponents follow the field convention
(exponents mod q-1 for nonzero bases, 0^e = 0 for e != 0, 0^0 = 1).
"""

from dataclasses import dataclass

import numpy as np

MAX_EXPONENT = 1 << 62
REDUCE_FIELD_BOUND = 1 << 12

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
    reduced: bool = False

    @staticmethod
    def make(ctx, pairs, reduced=False):
        acc = {}
        for e, c in pairs:
            if e < 0:
                raise ValueError("inner polynomial exponents must be non-negative")
            acc[e] = ctx.add(acc.get(e, 0), c)
        terms = tuple((e, c) for e, c in sorted(acc.items()) if c != 0)
        return SparsePoly(terms, reduced)

    def degree(self):
        return self.terms[-1][0] if self.terms else -1

    def is_x(self):
        return self.terms == X_TERMS


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
        x = SparsePoly(X_TERMS)
        merged = {}
        for e, c in pairs:
            merged[e] = ctx.add(merged.get(e, 0), c)
        return CompositePoly.make((c, x, e) for e, c in sorted(merged.items()))

    @staticmethod
    def identity():
        return CompositePoly(((1, SparsePoly(X_TERMS), 1),))

    def plus_x(self):
        """f(x) + x, used by the complete-permutation check."""
        return CompositePoly(self.terms + ((1, SparsePoly(X_TERMS), 1),))


def eval_sparse(ctx, sp, x):
    acc = 0
    for e, c in sp.terms:
        acc = ctx.add(acc, ctx.mul(c, ctx.pow(x, e)))
    return acc


def evaluate(ctx, f, x):
    """f(x) for a CompositePoly (or SparsePoly) under the exponent convention."""
    if isinstance(f, SparsePoly):
        return eval_sparse(ctx, f, x)
    acc = 0
    for c, base, e in f.terms:
        t = eval_sparse(ctx, base, x)
        acc = ctx.add(acc, ctx.mul(c, ctx.pow(t, e)))
    return acc


def eval_sparse_all(ctx, sp, X):
    acc = np.zeros_like(X)
    for e, c in sp.terms:
        acc = ctx.add_vec(acc, ctx.scale_vec(c, ctx.pow_vec(X, e)))
    return acc


def evaluate_all(ctx, f):
    """Values of f on every field element, as an array indexed by element code.

    Falls back to scalar evaluation when the field has no log tables.
    """
    if not ctx.has_tables:
        return np.array([evaluate(ctx, f, x) for x in range(ctx.q)], dtype=np.int64)
    X = np.arange(ctx.q, dtype=np.int64)
    if isinstance(f, SparsePoly):
        return eval_sparse_all(ctx, f, X)
    acc = np.zeros_like(X)
    for c, base, e in f.terms:
        t = eval_sparse_all(ctx, base, X)
        acc = ctx.add_vec(acc, ctx.scale_vec(c, ctx.pow_vec(t, e)))
    return acc


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
        E, L = ctx._vec_tables()
        qm1 = q - 1
        # values at g^i in exponent order, with zeros masked out
        vg = values[E]
        nz = np.nonzero(vg)[0]
        logv = L[vg[nz]]
        for j in range(1, qm1):
            cj = ctx.neg(ctx.field_sum_vec(E[(logv - j * nz) % qm1]))
            if cj:
                pairs.append((j, cj))
        c_top = ctx.neg(ctx.field_sum_vec(values))
        if c_top:
            pairs.append((qm1, c_top))
    return SparsePoly(tuple(pairs), reduced=True)


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------
#   poly   := term (('+' | '-') term)*
#   term   := coeff | coeff '*'? factor ('^' int)? | factor ('^' int)?
#   factor := 'x' | '(' poly ')'
# Coefficients use the element syntax (0, 1, g^k, 0x.., 0b..); whitespace is
# insignificant; '#' is not a comment here (files strip comments per line).


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self):
        c = self.peek()
        self.i += 1
        return c

    def error(self, msg):
        raise PolyParseError(msg, self.i)


def _parse_int(cur, allow_sign):
    cur.skip_ws()
    start = cur.i
    if allow_sign and cur.peek() == "-":
        cur.take()
    cur.skip_ws()
    digits = ""
    while cur.i < len(cur.text) and cur.text[cur.i].isdigit():
        digits += cur.text[cur.i]
        cur.i += 1
    if not digits:
        cur.error("expected an integer")
    value = int(cur.text[start:cur.i].replace(" ", ""))
    if abs(value) > MAX_EXPONENT:
        cur.error("exponent overflow")
    return value


def _parse_coeff(cur, ctx):
    cur.skip_ws()
    c = cur.peek()
    if c == "g":
        cur.take()
        if cur.peek() == "^":
            cur.take()
            return ctx.gen_pow(_parse_int(cur, allow_sign=True))
        return ctx.generator
    if c.isdigit():
        start = cur.i
        text = cur.text
        if text[cur.i] == "0" and cur.i + 1 < len(text) and text[cur.i + 1] in "xXbB":
            cur.i += 2
            while cur.i < len(text) and (text[cur.i].isalnum()):
                cur.i += 1
        else:
            while cur.i < len(text) and text[cur.i].isdigit():
                cur.i += 1
        literal = text[start:cur.i]
        if literal == "0":
            return 0
        if literal == "1":
            return 1
        if literal.lower().startswith(("0x", "0b")):
            try:
                return ctx.parse_element(literal)
            except ValueError as exc:
                cur.i = start
                cur.error(str(exc))
        cur.i = start
        cur.error(f"bad coefficient {literal!r}: elements are 0, 1, g^k, 0x.., 0b..")
    return None


def _parse_inner(cur, ctx):
    """Monomial sum inside parentheses; nesting is not supported."""
    pairs = []
    sign = 1
    while True:
        coeff = _parse_coeff(cur, ctx)
        exp = 0
        if cur.peek() == "*":
            cur.take()
        if cur.peek() == "x":
            cur.take()
            exp = 1
            if cur.peek() == "^":
                cur.take()
                exp = _parse_int(cur, allow_sign=False)
            if coeff is None:
                coeff = 1
        elif coeff is None:
            if cur.peek() == "(":
                cur.error("nested composite bases are not supported")
            cur.error("expected a monomial")
        if sign < 0:
            coeff = ctx.neg(coeff)
        pairs.append((exp, coeff))
        nxt = cur.peek()
        if nxt == "+":
            cur.take()
            sign = 1
        elif nxt == "-":
            cur.take()
            sign = -1
        else:
            return SparsePoly.make(ctx, pairs)


def _parse_term(cur, ctx):
    coeff = _parse_coeff(cur, ctx)
    if cur.peek() == "*":
        cur.take()
    nxt = cur.peek()
    if nxt == "x":
        cur.take()
        exp = 1
        if cur.peek() == "^":
            cur.take()
            exp = _parse_int(cur, allow_sign=True)
        base = SparsePoly(X_TERMS)
    elif nxt == "(":
        cur.take()
        base = _parse_inner(cur, ctx)
        if cur.peek() != ")":
            cur.error("expected ')'")
        cur.take()
        exp = 1
        if cur.peek() == "^":
            cur.take()
            exp = _parse_int(cur, allow_sign=True)
    elif coeff is not None:
        # bare constant: c * x^0
        return (coeff, SparsePoly(X_TERMS), 0)
    else:
        cur.error("expected a term")
    return (1 if coeff is None else coeff, base, exp)


def parse_poly(ctx, text):
    """Parse polynomial text into a CompositePoly."""
    cur = _Cursor(text)
    if cur.peek() == "":
        cur.error("empty polynomial")
    terms = []
    sign = 1
    while True:
        c, base, e = _parse_term(cur, ctx)
        if sign < 0:
            c = ctx.neg(c)
        if c != 0:
            terms.append((c, base, e))
        nxt = cur.peek()
        if nxt == "+":
            cur.take()
            sign = 1
        elif nxt == "-":
            cur.take()
            sign = -1
        elif nxt == "":
            return CompositePoly(tuple(terms))
        else:
            cur.error(f"unexpected {nxt!r}")


def _sparse_text(ctx, sp):
    if not sp.terms:
        return "0"
    parts = []
    for e, c in reversed(sp.terms):
        if e == 0:
            parts.append(ctx.format_element(c))
        else:
            xs = "x" if e == 1 else f"x^{e}"
            parts.append(xs if c == 1 else f"{ctx.format_element(c)}*{xs}")
    return " + ".join(parts)


def to_text(ctx, f):
    """Canonical text form; parse_poly(ctx, to_text(ctx, f)) == f."""
    if isinstance(f, SparsePoly):
        return _sparse_text(ctx, f)
    if not f.terms:
        return "0"
    parts = []
    for c, base, e in f.terms:
        if base.is_x():
            body = "x"
        else:
            body = f"({_sparse_text(ctx, base)})"
        if e == 0:
            parts.append(ctx.format_element(c))
            continue
        if e != 1:
            body = f"{body}^{e}"
        parts.append(body if c == 1 else f"{ctx.format_element(c)}*{body}")
    return " + ".join(parts)


def load_poly_file(ctx, path):
    """One polynomial per line; '#' starts a comment; blank lines skipped."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                out.append(parse_poly(ctx, line))
    return out
