import pytest

from permupoly import (build_field, decompose, half_trace, solve_quadratic,
                       sqrt_char2, unit_circle)
from permupoly.circle import _solve_y2_plus_y


def test_unit_circle_sizes(gf16, gf256):
    u16 = unit_circle(gf16)
    assert len(u16) == 5 and 1 in u16
    assert all(gf16.pow(x, 5) == 1 for x in u16)
    assert len(unit_circle(gf256)) == 17


def test_unit_circle_requires_even_degree(gf8, gf625):
    with pytest.raises(ValueError):
        unit_circle(gf8)
    with pytest.raises(ValueError):
        unit_circle(gf625)


def _circle_by_filter(ctx):
    # the definition: every nonzero x with x^(2^m+1) = 1, in element order
    e = (1 << (ctx.n // 2)) + 1
    return [x for x in ctx.elements_in_order() if x != 0 and ctx.pow(x, e) == 1]


def test_unit_circle_equals_root_group(gf16, gf64, gf256):
    for ctx in (gf16, gf64, gf256, build_field(2, 10)):
        assert unit_circle(ctx) == _circle_by_filter(ctx)


def test_decompose_trivial(gf16):
    d = decompose(gf16, 1)
    assert (d.u, d.lam) == (1, 1)
    for u in gf16.subfield_elements(2)[1:]:
        d = decompose(gf16, u)
        assert (d.u, d.lam) == (u, 1)
    with pytest.raises(ValueError):
        decompose(gf16, 0)


def test_decompose_g7_matches_exhaustive_oracle(gf16):
    # oracle: unique factorisation over the cross product
    x = gf16.gen_pow(7)
    found = [(u, lam)
             for u in gf16.subfield_elements(2)[1:]
             for lam in unit_circle(gf16)
             if gf16.mul(u, lam) == x]
    assert len(found) == 1
    d = decompose(gf16, x)
    assert (d.u, d.lam) == found[0]
    assert (d.u, d.lam) == (gf16.gen_pow(10), gf16.gen_pow(12))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_decomposition_unique_exhaustive(m):
    ctx = build_field(2, 2 * m)
    subfield = ctx.subfield_elements(m)[1:]
    circle = unit_circle(ctx)
    products = {}
    for u in subfield:
        for lam in circle:
            products.setdefault(ctx.mul(u, lam), []).append((u, lam))
    # every nonzero element appears exactly once in the cross product
    assert len(products) == ctx.q - 1
    assert all(len(v) == 1 for v in products.values())
    for x, [(u, lam)] in products.items():
        d = decompose(ctx, x)
        assert (d.u, d.lam) == (u, lam)


def test_solve_quadratic_trivial(gf16):
    assert solve_quadratic(gf16, 1, 0) == [0, 1]


def test_solve_quadratic_obstruction(gf4):
    g = gf4.generator
    assert gf4.relative_trace(1, g) == 1
    assert solve_quadratic(gf4, 1, g) == []
    # oracle: no element satisfies x^2 + x + g = 0
    assert all(gf4.add(gf4.add(gf4.mul(x, x), x), g) != 0 for x in range(4))


def test_solve_quadratic_root_sum(gf8, gf16):
    for ctx in (gf8, gf16):
        for u in range(1, ctx.q):
            for v in range(ctx.q):
                roots = solve_quadratic(ctx, u, v)
                if roots:
                    r1, r2 = roots
                    assert r1 != r2
                    assert ctx.add(r1, r2) == u
                    assert ctx.mul(r1, r2) == v


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_solve_quadratic_matches_exhaustive_search(k):
    ctx = build_field(2, k)
    for u in range(1, ctx.q):
        for v in range(ctx.q):
            oracle = sorted(
                x for x in range(ctx.q)
                if ctx.add(ctx.add(ctx.mul(x, x), ctx.mul(u, x)), v) == 0)
            assert solve_quadratic(ctx, u, v) == oracle


def test_solve_quadratic_u_zero(gf16):
    with pytest.raises(ValueError):
        solve_quadratic(gf16, 0, 5)
    # the separate linear path: a unique square root
    for v in range(16):
        r = sqrt_char2(gf16, v)
        assert gf16.mul(r, r) == v


def test_half_trace_odd_degree(gf8):
    # for odd k the half trace solves y^2 + y = c whenever Tr(c) = 0
    for c in range(8):
        if gf8.relative_trace(1, c) == 0:
            y = half_trace(gf8, c)
            assert gf8.add(gf8.mul(y, y), y) == c


@pytest.mark.parametrize("k", [7, 9])
def test_solver_matches_half_trace_odd_degree(k):
    # the solver's particular root differs from the closed form by a root of
    # y^2 + y = 0, that is by 0 or 1
    ctx = build_field(2, k)
    for c in range(ctx.q):
        if ctx.relative_trace(1, c) == 0:
            y = half_trace(ctx, c)
            assert _solve_y2_plus_y(ctx, c) in (y, ctx.add(y, 1)), c
