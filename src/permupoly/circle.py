"""Unit-circle machinery of GF(2^(2m)) and the characteristic-2 quadratic solver.

The unit circle is the norm-one subgroup {x : x^(2^m+1) = 1}, of order
2^m + 1.  Every nonzero x factors uniquely as u * lambda with u in the
subfield GF(2^m)* and lambda on the circle.
"""

from dataclasses import dataclass

from .perm import mu_d_roots


def _require_even(ctx):
    if ctx.p != 2 or ctx.n % 2 != 0:
        raise ValueError(f"unit circle needs GF(2^(2m)); got {ctx!r}")
    return ctx.n // 2


@dataclass(frozen=True)
class CircleDecomposition:
    u: int          # subfield part, in GF(2^m)*
    lam: int        # circle part, lam^(2^m+1) == 1

    def to_dict(self, ctx=None):
        fmt = ctx.format_element if ctx else str
        return {"u": fmt(self.u), "lambda": fmt(self.lam)}


def unit_circle(ctx):
    """All 2^m + 1 elements of norm one: the (2^m+1)-th roots of unity
    g^((2^m-1)i), listed by i."""
    return mu_d_roots(ctx, (1 << _require_even(ctx)) + 1)


def decompose(ctx, x):
    """The unique (u, lambda) with x = u*lambda, u in GF(2^m)*, lambda^(2^m+1)=1.

    u is the subfield square root of the norm x^(2^m+1) (squaring is an
    automorphism, so the root is x^(2^m+1) raised to 2^(m-1)).
    """
    m = _require_even(ctx)
    if x == 0:
        raise ValueError("0 has no unit-circle decomposition")
    norm = ctx.pow(x, (1 << m) + 1)
    u = ctx.pow(norm, 1 << (m - 1))
    lam = ctx.mul(x, ctx.inv(u))
    if ctx.frobenius(u, m) != u or ctx.pow(lam, (1 << m) + 1) != 1 \
            or ctx.mul(u, lam) != x:
        raise AssertionError("unit-circle decomposition failed verification")
    return CircleDecomposition(u, lam)


def sqrt_char2(ctx, v):
    """Square root in GF(2^k): v^(2^(k-1)), since squaring is bijective."""
    if ctx.p != 2:
        raise ValueError("sqrt_char2 needs characteristic 2")
    return ctx.pow(v, 1 << (ctx.n - 1))


def half_trace(ctx, c):
    """For odd k, a solution y of y^2 + y = c when Tr(c) = 0, the solver's
    reference: y = sum of c^(2^(2i)) for i in [0, (k-1)/2]."""
    acc = 0
    for i in range((ctx.n - 1) // 2 + 1):
        acc = ctx.add(acc, ctx.frobenius(c, 2 * i))
    return acc


def _eliminate(pivots, v):
    """Reduce v by the pivots (leading bit -> (column value, preimage)) while
    its leading bit has one: (remainder, XOR of the preimages used)."""
    pre = 0
    while v and v.bit_length() - 1 in pivots:
        pv, ppre = pivots[v.bit_length() - 1]
        v ^= pv
        pre ^= ppre
    return v, pre


def _artin_schreier_solver(ctx):
    """A GF(2)-linear particular-solution map for y^2 + y = c, for every k.

    Gaussian elimination over the columns of y -> y^2 + y on the
    polynomial basis; its kernel is {0, 1}, so the pivots span the
    trace-zero hyperplane.  Cached on the context.
    """
    if ctx._as_solver is None:
        pivots = {}
        for i in range(ctx.n):
            y = 1 << i
            v, pre = _eliminate(pivots, ctx.add(ctx.mul(y, y), y))
            if v:
                pivots[v.bit_length() - 1] = (v, pre ^ y)
        ctx._as_solver = pivots
    return ctx._as_solver


def _solve_y2_plus_y(ctx, c):
    """A root of y^2 + y = c, or None when the trace obstruction holds."""
    if ctx.relative_trace(1, c) != 0:
        return None
    rest, y = _eliminate(_artin_schreier_solver(ctx), c)
    return None if rest else y


def solve_quadratic(ctx, u, v):
    """Roots of x^2 + u*x + v over GF(2^k), u != 0.

    Empty iff Tr(v / u^2) = 1; otherwise both roots (x = u*y with
    y^2 + y = v/u^2), re-verified by substitution before return.
    """
    if ctx.p != 2:
        raise ValueError("solve_quadratic needs characteristic 2")
    if u == 0:
        raise ValueError("u = 0 is degenerate (single root sqrt(v); "
                         "use the linear path)")
    c = ctx.mul(v, ctx.pow(ctx.inv(u), 2))
    y = _solve_y2_plus_y(ctx, c)
    if y is None:
        return []
    roots = sorted({ctx.mul(u, y), ctx.add(ctx.mul(u, y), u)})
    for r in roots:
        if ctx.add(ctx.add(ctx.mul(r, r), ctx.mul(u, r)), v) != 0:
            raise AssertionError("quadratic root failed substitution check")
    return roots
