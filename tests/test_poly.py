import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permupoly import (CompositePoly, PolyParseError, SparsePoly, build_field,
                       evaluate, evaluate_all, parse_poly, reduce_mod_field,
                       to_text)
from permupoly import poly
from permupoly.poly import MAX_EXPONENT, X_TERMS, load_poly_file


def test_parse_identity(gf64):
    f = parse_poly(gf64, "x")
    assert len(f.terms) == 1
    for a in range(64):
        assert evaluate(gf64, f, a) == a


def test_parse_example_shapes(gf64):
    two = parse_poly(gf64, "(x^8 + x + g^3)^57 + g^1*x")
    assert len(two.terms) == 2
    base = two.terms[0][1]
    assert [e for e, _ in base.terms] == [0, 1, 8]
    assert two.terms[0][2] == 57

    three = parse_poly(gf64, "(g^1*x + g^3)^5 + x^4 + g^48*x")
    assert len(three.terms) == 3
    assert three.terms[0][2] == 5
    assert three.terms[1][2] == 4


def test_round_trip_structural_and_pointwise(gf64):
    texts = [
        "x",
        "(g^1*x + g^3)^5 + x^4 + g^48*x",
        "(x^8 + x + g^3)^57 + g^1*x",
        "(x^8 + x + 1)^-6 + g^1*x",
        "g^7",
        "x^62 + g^3*x^2 + 1",
    ]
    for text in texts:
        f = parse_poly(gf64, text)
        again = parse_poly(gf64, to_text(gf64, f))
        assert again == f
        for a in range(64):
            assert evaluate(gf64, f, a) == evaluate(gf64, again, a)


def test_zero_with_negative_exponent_convention(gf64):
    # at a root of the inner base, the whole bracket term contributes 0
    delta = gf64.subfield_elements(3)[4]
    inner = SparsePoly.make(gf64, [(8, 1), (1, 1), (0, delta)])
    b = gf64.subfield_elements(3)[2]
    x = SparsePoly(((1, 1),))
    f = CompositePoly.make([(1, inner, -6), (b, x, 1)])
    roots = [a for a in range(64) if evaluate(gf64, inner, a) == 0]
    assert roots  # delta is in the image of a^8 + a
    for a in roots:
        assert evaluate(gf64, f, a) == gf64.mul(b, a)


def test_inner_base_lands_in_subfield(gf64):
    # t = x^8 + x + delta satisfies t^8 = t whenever delta does
    for delta in gf64.subfield_elements(3):
        inner = SparsePoly.make(gf64, [(8, 1), (1, 1), (0, delta)])
        for a in range(64):
            t = evaluate(gf64, inner, a)
            assert gf64.frobenius(t, 3) == t


def test_evaluate_all_matches_scalar(gf64, gf625):
    f1 = parse_poly(gf64, "(x^8 + x + g^3)^57 + g^1*x")
    vals = evaluate_all(gf64, f1)
    for a in range(64):
        assert int(vals[a]) == evaluate(gf64, f1, a)
    f2 = parse_poly(gf625, "x^155 + g^7*x^151")
    vals2 = evaluate_all(gf625, f2)
    for a in range(625):
        assert int(vals2[a]) == evaluate(gf625, f2, a)
    with pytest.raises(ValueError, match="unknown evaluation order 'exp'"):
        evaluate_all(gf64, f1, "exp")


@pytest.mark.parametrize("p,n", [(2, 6), (5, 4)])
def test_tables_read_only_and_values_fresh(p, n):
    ctx = build_field(p, n)
    tables = [ctx._P, ctx._E, ctx._L] + ([ctx._T] if p != 2 else [])
    assert ctx._P[0] == 0 and np.shares_memory(ctx._E, ctx._P)
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
    with pytest.raises(TypeError):
        ctx._exp[0] = 0
    fs = [CompositePoly.identity(), SparsePoly(X_TERMS), parse_poly(ctx, "x + 1"),
          parse_poly(ctx, "g^3")]
    for order in ("code", "canonical"):
        for f in fs:
            values = evaluate_all(ctx, f, order)
            assert values.flags.writeable
            assert not any(np.shares_memory(values, t) for t in tables)
            values[0] = values[1]


def test_reduce_fermat(gf16):
    r = reduce_mod_field(gf16, parse_poly(gf16, "x^16"))
    assert r.terms == ((1, 1),)
    assert r.reduced


def test_reduce_zero(gf16):
    assert reduce_mod_field(gf16, parse_poly(gf16, "0")).terms == ()


def test_reduce_example6_pointwise(gf256):
    delta = next(d for d in range(256) if gf256.relative_trace(1, d) == 1)
    b = gf256.subfield_elements(4)[3]
    text = f"(x^2 + x + {gf256.format_element(delta)})^120 + " \
           f"{gf256.format_element(b)}*x"
    f = parse_poly(gf256, text)
    r = reduce_mod_field(gf256, f)
    assert r.degree() < 256
    for a in range(256):
        assert evaluate(gf256, r, a) == evaluate(gf256, f, a)


def test_reduce_random_pointwise(gf64, gf625):
    rng = random.Random(31337)
    for ctx in (gf64, gf625, build_field(3, 4), build_field(5, 3)):
        for _ in range(5):
            terms = [(rng.randrange(200), rng.randrange(1, ctx.q))
                     for _ in range(3)]
            inner = SparsePoly.make(
                ctx, [(rng.randrange(5), rng.randrange(ctx.q)) for _ in range(2)])
            f = CompositePoly.make(
                [(c, SparsePoly(((1, 1),)), e) for e, c in terms]
                + [(1, inner, rng.randrange(-50, 50))])
            r = reduce_mod_field(ctx, f)
            for a in range(ctx.q):
                assert evaluate(ctx, r, a) == evaluate(ctx, f, a)


def test_reduce_guard():
    big = build_field(2, 13)
    with pytest.raises(ValueError, match="pointwise"):
        reduce_mod_field(big, parse_poly(big, "x^2"))


def test_parse_errors(gf4):
    cases = ["", "x +", "(x", "g^", "x^^2", "((x))", "0x7*x", "y", "x^999999999999999999999"]
    for text in cases:
        with pytest.raises((PolyParseError, ValueError)):
            parse_poly(gf4, text)
    try:
        parse_poly(gf4, "x + *")
    except PolyParseError as exc:
        assert isinstance(exc.position, int) and 3 <= exc.position <= 5
        assert "position" in str(exc)
    # a digit that is not decimal ends the exponent, so the text is refused
    # at that digit rather than by int()
    for text in ["x^2\u00b2", "g^3\u00b2*x"]:
        with pytest.raises(PolyParseError) as info:
            parse_poly(gf4, text)
        assert info.value.position == 3
    # past int()'s digit limit an exponent is an overflow, not an int() error
    with pytest.raises(PolyParseError, match="exponent overflow"):
        parse_poly(gf4, "x^" + "1" * 5000)


def test_odd_characteristic_minus(gf625):
    f = parse_poly(gf625, "x^5 - x")
    for a in range(625):
        assert evaluate(gf625, f, a) == gf625.sub(gf625.pow(a, 5), a)


def test_poly_file(tmp_path, gf64):
    path = tmp_path / "polys.txt"
    path.write_text("# comment line\nx\n(x^8 + x + g^3)^57 + g^1*x  # trailing\n\n")
    polys = load_poly_file(gf64, str(path))
    assert len(polys) == 2
    assert polys[0] == parse_poly(gf64, "x")


def random_base(ctx, rng):
    """x, a nonzero constant, the zero polynomial, x - a (zero at a), or a
    sparse sum whose exponents may pass q."""
    kind = rng.choice(("x", "constant", "zero", "root", "sparse"))
    if kind == "x":
        return SparsePoly(X_TERMS)
    if kind == "constant":
        return SparsePoly.make(ctx, [(0, rng.randrange(1, ctx.q))])
    if kind == "zero":
        return SparsePoly(())
    if kind == "root":
        return SparsePoly.make(ctx, [(1, 1), (0, ctx.neg(rng.randrange(ctx.q)))])
    return SparsePoly.make(ctx, [(rng.randrange(3 * ctx.q), rng.randrange(1, ctx.q))
                                 for _ in range(rng.randint(1, 4))])


def random_exponent(ctx, rng):
    qm1 = ctx.q - 1
    return rng.choice((0, 1, -1, -rng.randrange(2, 3 * ctx.q), rng.randrange(2, ctx.q),
                       qm1 * rng.randrange(1, 4), rng.randrange(ctx.q, 1 << 62)))


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 4), (7, 2)])
def test_evaluate_all_differential(p, n):
    """evaluate_all in code and in canonical order against scalar evaluate
    on random composite polynomials covering e in {0, 1, negative, large},
    c in {1, other}, and bases that are x, constant, zero, vanishing
    somewhere, or sparse."""
    ctx = build_field(p, n)
    rng = random.Random(f"differential:{p}^{n}")
    points = {"code": range(ctx.q), "canonical": ctx.elements_in_order()}
    for _ in range(40):
        terms = tuple((rng.choice((1, 1, rng.randrange(ctx.q))), random_base(ctx, rng),
                       random_exponent(ctx, rng)) for _ in range(rng.randint(1, 4)))
        f = CompositePoly(terms)
        sp = random_base(ctx, rng)
        for order, xs in points.items():
            assert evaluate_all(ctx, f, order).tolist() == \
                [evaluate(ctx, f, a) for a in xs], (order, to_text(ctx, f))
            assert evaluate_all(ctx, sp, order).tolist() == [evaluate(ctx, sp, a) for a in xs]


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 4)])
def test_power_memo_matches_scalar_and_unmemoised(p, n, monkeypatch):
    """Composite terms over three shared bases, with varied c and e (0, 1,
    negative, multiples of q-1), evaluated interleaved in both orders: each
    result equals scalar evaluate and the result with the memo bound at 0,
    writing into a result leaves later ones unchanged, and the memo holds
    read-only entries within its bound, also when the bound fills."""
    ctx0 = build_field(p, n)
    rng = random.Random(f"memo:{p}^{n}")
    bases = []
    while len(bases) < 3:
        base = random_base(ctx0, rng)
        if not base.is_x() and base not in bases:
            bases.append(base)
    qm1 = ctx0.q - 1
    exponents = (0, 1, -1, -rng.randrange(2, 3 * ctx0.q), rng.randrange(2, ctx0.q),
                 qm1, 2 * qm1, rng.randrange(ctx0.q, 1 << 62))
    fs = [CompositePoly(tuple(
        (rng.choice((1, rng.randrange(1, ctx0.q))), rng.choice(bases), rng.choice(exponents))
        for _ in range(rng.randint(1, 3)))) for _ in range(30)]
    canonical = ctx0.elements_in_order()
    expected = []
    for f in fs:
        by_code = [evaluate(ctx0, f, a) for a in range(ctx0.q)]
        expected.append({"code": by_code, "canonical": [by_code[a] for a in canonical]})
    keys = {(order, base.terms, e) for f in fs for _, base, e in f.terms if e != 0
            for order in ("code", "canonical")}
    results = {}
    for bound, stored in ((0, 0), (3 * ctx0.q * 4 + 1, 3),
                          (poly.POWER_MEMO_BYTES, len(keys))):
        monkeypatch.setattr(poly, "POWER_MEMO_BYTES", bound)
        ctx = build_field(p, n)
        for i, f in enumerate(fs):
            for order in rng.sample(("code", "canonical"), 2):
                values = evaluate_all(ctx, f, order)
                got = values.tolist()
                assert got == expected[i][order], (bound, order, to_text(ctx, f))
                results.setdefault((i, order), got)
                assert got == results[i, order]
                values[:] = 0
        assert all(not v.flags.writeable for v in ctx._powers.values())
        assert len(ctx._powers) == stored
        assert sum(v.nbytes for v in ctx._powers.values()) <= bound


def test_power_memo_stores_nothing_at_2_20():
    ctx = build_field(2, 20)
    assert ctx.q * 8 > poly.POWER_MEMO_BYTES
    f = parse_poly(ctx, "(x^2 + x + g^3)^523776 + g^1025*x")
    for order in ("code", "canonical"):
        values = evaluate_all(ctx, f, order)
        assert values.flags.writeable
        for a in (0, 1, int(ctx._E[12345])):
            position = a if order == "code" else (0 if a == 0 else int(ctx._L[a]) + 1)
            assert int(values[position]) == evaluate(ctx, f, a)
    assert ctx._powers == {}


def test_outer_exponent_zero_skips_the_base(monkeypatch):
    ctx = build_field(2, 8)
    calls = []
    real = poly.eval_sparse_all

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(poly, "eval_sparse_all", counted)
    f = parse_poly(ctx, "(x^2 + x + g^3)^0 + x")
    for order, xs in (("code", range(ctx.q)), ("canonical", ctx.elements_in_order())):
        assert evaluate_all(ctx, f, order).tolist() == [evaluate(ctx, f, a) for a in xs]
    assert calls == [] and ctx._powers == {}


def notable_evaluate(ctx, f, x):
    """Reference f(x) without log tables: products by _mul_notable, powers
    by _pow_notable (0^0 = 1, 0^e = 0, e mod q-1 otherwise) and sums by
    base-p digits, so it shares no arithmetic with evaluate."""
    p, n = ctx.p, ctx.n

    def add(a, b):
        out, mult = 0, 1
        for _ in range(n):
            out += ((a % p + b % p) % p) * mult
            a, b, mult = a // p, b // p, mult * p
        return out

    def power(a, e):
        if a == 0:
            return 1 if e == 0 else 0
        return ctx._pow_notable(a, e % (ctx.q - 1))

    def sparse(sp):
        acc = 0
        for e, c in sp.terms:
            acc = add(acc, ctx._mul_notable(c, power(x, e)))
        return acc

    if isinstance(f, SparsePoly):
        return sparse(f)
    acc = 0
    for c, base, e in f.terms:
        acc = add(acc, ctx._mul_notable(c, power(sparse(base), e)))
    return acc


@pytest.mark.parametrize("p,n", [(2, 4), (2, 6), (3, 3), (5, 2), (7, 2)])
def test_evaluate_matches_table_free_reference(p, n):
    """Scalar evaluate against notable_evaluate at every point, x = 0
    included, on composites with zero coefficients (in the outer terms
    and the bases), e = 0, negative and large e, and bases that vanish."""
    ctx = build_field(p, n)
    rng = random.Random(f"scalar:{p}^{n}")
    for _ in range(40):
        terms = tuple((rng.choice((0, 1, rng.randrange(ctx.q))), random_base(ctx, rng),
                       random_exponent(ctx, rng)) for _ in range(rng.randint(1, 4)))
        f = CompositePoly(terms)
        sp = SparsePoly(tuple((e, rng.choice((0, rng.randrange(ctx.q))))
                              for e in sorted(rng.sample(range(3 * ctx.q), 3))))
        zero_c = CompositePoly(((0, SparsePoly(X_TERMS), 0),) + terms)
        for a in range(ctx.q):
            for g in (f, sp, zero_c):
                assert evaluate(ctx, g, a) == notable_evaluate(ctx, g, a), \
                    (a, to_text(ctx, g) if g is not sp else sp.terms)


# ---------------------------------------------------------------------------
# the text grammar: a pinned corpus and hypothesis fuzzing
# ---------------------------------------------------------------------------

@functools.cache
def field_of(name):
    p, n = map(int, name.split("^"))
    return build_field(p, n)


def parsed_text(name, text):
    """to_text of the parse, or None where the text is refused; any error
    other than PolyParseError propagates."""
    ctx = field_of(name)
    try:
        return to_text(ctx, parse_poly(ctx, text))
    except PolyParseError:
        return None


# (field, text, to_text of its parse or None where refused), recorded from
# the parser before its grammar was stated once: whitespace, signs, bare
# constants, trailing '*', element literals, exponent bounds and hostile text
PARSE_CORPUS = [
    ('2^4', 'x', 'x'),
    ('2^4', ' x ', 'x'),
    ('2^4', '\tx\t', 'x'),
    ('2^4', 'x\t+\tg', 'x + g^1'),
    ('2^4', 'x ^ 3', 'x^3'),
    ('2^4', 'x^ - 3', 'x^-3'),
    ('2^4', 'x^- 3', 'x^-3'),
    ('2^4', '( x + 1 ) ^ 2', '(x + 1)^2'),
    ('2^4', 'g ^ 3 * x', 'g^3*x'),
    ('2^4', 'x - x', 'x + x'),
    ('2^4', 'x - g', 'x + g^1'),
    ('2^4', '-x', None),
    ('2^4', 'x + -x', None),
    ('2^4', 'x--x', None),
    ('2^4', '(x - 1)^3', '(x + 1)^3'),
    ('2^4', 'x + (x - g^2)^-1', 'x + (x + g^2)^-1'),
    ('2^4', '0', '0'),
    ('2^4', '1', '1'),
    ('2^4', 'g', 'g^1'),
    ('2^4', 'g^0', '1'),
    ('2^4', 'g^-1', 'g^14'),
    ('2^4', 'g^15', '1'),
    ('2^4', 'g^16', 'g^1'),
    ('2^4', '0x3', 'g^4'),
    ('2^4', '0b11', 'g^4'),
    ('2^4', '0X3', 'g^4'),
    ('2^4', '0B11', 'g^4'),
    ('2^4', '1 + 1', '1 + 1'),
    ('2^4', '0*x', '0'),
    ('2^4', '0 + x', 'x'),
    ('2^4', 'g*x^0', 'g^1'),
    ('2^4', 'x^0', '1'),
    ('2^4', 'g*', 'g^1'),
    ('2^4', 'g^3*', 'g^3'),
    ('2^4', '(x + g*)^2', '(x + g^1)^2'),
    ('2^4', '1*', '1'),
    ('2^4', 'x*', None),
    ('2^4', '*x', 'x'),
    ('2^4', '**x', None),
    ('2^4', 'g**x', None),
    ('2^4', 'g^4611686018427387904', 'g^4'),
    ('2^4', 'g^4611686018427387905', None),
    ('2^4', 'g^-4611686018427387905', None),
    ('2^4', 'x^4611686018427387904', 'x^4611686018427387904'),
    ('2^4', 'x^-4611686018427387904', 'x^-4611686018427387904'),
    ('2^4', 'x^4611686018427387905', None),
    ('2^4', '(x)^-4611686018427387905', None),
    ('2^4', '0x_1', None),
    ('2^4', '0x_1*x', None),
    ('2^4', '0x1_0', None),
    ('2^4', '0xf*x', 'g^12*x'),
    ('2^4', '0x10*x', None),
    ('2^4', '0b1111*x', 'g^12*x'),
    ('2^4', '0b10000', None),
    ('2^4', '0xg', None),
    ('2^4', '0x', None),
    ('2^4', '0b', None),
    ('2^4', '0b2', None),
    ('2^4', 'x^٣', 'x^3'),
    ('2^4', 'g^٣*x', 'g^3*x'),
    ('2^4', 'x^2²', None),
    ('2^4', 'g^3²*x', None),
    ('2^4', '²', None),
    ('2^4', 'x^²', None),
    ('2^4', 'x^-٣', 'x^-3'),
    ('2^4', '', None),
    ('2^4', ' ', None),
    ('2^4', 'x +', None),
    ('2^4', '(x', None),
    ('2^4', 'g^', None),
    ('2^4', 'x^^2', None),
    ('2^4', '((x))', None),
    ('2^4', 'y', None),
    ('2^4', 'x + *', None),
    ('2^4', '1x', 'x'),
    ('2^4', 'gx', 'g^1*x'),
    ('2^4', 'g(x+1)', 'g^1*(x + 1)'),
    ('2^4', '(x)(x)', None),
    ('2^4', 'x x', None),
    ('2^4', 'x#1', None),
    ('2^4', 'x_1', None),
    ('2^4', '(x^-1)', None),
    ('2^4', '(x+1)^-6', '(x + 1)^-6'),
    ('2^4', '(0)', '(0)'),
    ('2^4', '(0)^3', '(0)^3'),
    ('2^4', '()', None),
    ('2^4', '2*x', None),
    ('2^4', '10', None),
    ('2^4', '00', None),
    ('2^4', '01', None),
    ('2^4', 'x^00012', 'x^12'),
    ('2^4', '(x^2 + x^2)', '(0)'),
    ('2^4', '(x + x)^3', '(0)^3'),
    ('2^4', '(g*x + g^2)^5 + x^4 + g^48*x', '(g^1*x + g^2)^5 + x^4 + g^3*x'),
    ('2^4', '(x^8 + x + g^3)^57 + g^1*x', '(x^8 + x + g^3)^57 + g^1*x'),
    ('2^4', 'x^16 + x', 'x^16 + x'),
    ('2^4', '(x^4 + x + g^5)^-1 + g^2*x', '(x^4 + x + g^5)^-1 + g^2*x'),
    ('2^4', 'x)', None),
    ('2^4', '(x))', None),
    ('2^4', 'x^(2)', None),
    ('2^4', 'g^(2)', None),
    ('2^4', 'X', None),
    ('2^4', 'G', None),
    ('2^4', 'x ^', None),
    ('2^4', '(x^4+x+1)^3-g^7*x', '(x^4 + x + 1)^3 + g^7*x'),
    ('2^4', '(+x)', None),
    ('2^4', '(x+)', None),
    ('2^4', 'x+(', None),
    ('2^4', '(-1)', None),
    ('2^2', '0x7*x', None),
    ('2^2', '0x3*x', 'g^2*x'),
    ('2^2', '0x4', None),
    ('2^2', 'g^3', '1'),
    ('2^2', 'g^2*x^2 + g*x', 'g^2*x^2 + g^1*x'),
    ('2^2', '0b11*x^-1', 'g^2*x^-1'),
    ('2^2', '(x^2 + x)^0x2', None),
    ('5^2', 'x^5 - x', 'x^5 + g^12*x'),
    ('5^2', 'g^3*x - 1', 'g^3*x + g^12'),
    ('5^2', '0x4*x', 'g^12*x'),
    ('5^2', '0x18', 'g^13'),
    ('5^2', '0x19', None),
    ('5^2', '-1', None),
    ('5^2', 'x - -x', None),
    ('5^2', 'x - x', 'x + g^12*x'),
    ('5^2', '(x^5 - x)^2 + x', '(x^5 + g^12*x)^2 + x'),
    ('5^2', '(x - 1)^-1', '(x + g^12)^-1'),
    ('5^2', 'g^24', '1'),
    ('5^2', 'x - g^12', 'x + 1'),
    ('5^2', '(x^3 - g*x^2 - 1)^-4 - x', '(x^3 + g^13*x^2 + g^12)^-4 + g^12*x'),
    ('3^3', 'x^3 - g*x + 1', 'x^3 + g^14*x + 1'),
    ('3^3', '(x^2 - 1)^-1', '(x^2 + g^13)^-1'),
    ('3^3', '0b11010*x', 'g^19*x'),
    ('3^3', '0b11011', None),
    ('3^3', 'x^27 - x', 'x^27 + g^13*x'),
    ('3^3', '(x^9 - x^3)^5 - g^13*x', '(x^9 + g^13*x^3)^5 + x'),
    ('3^3', 'g^26', '1'),
    ('3^3', '2', None),
    ('3^3', '(x - x)^3', '(0)^3'),
    ('3^3', 'x - x - x', 'x + g^13*x + g^13*x'),
    ('2^4', '0X2 x+1*(g  *x^52684)\t^-35', 'g^1*x + (g^1*x^52684)^-35'),
    ('2^4', '\t0b100*x  ', 'g^2*x'),
    ('2^4', 'x', 'x'),
    ('2^4', '0X3\t+g^-17', 'g^4 + g^13'),
    ('2^4', '1  *x', 'x'),
    ('2^4', 'g^\t4611686018427387904*x^\t2', 'g^4*x^2'),
    ('2^4', '0Xe( x^2)+(  g^\t-16 *x^15)^16+\tg^٣٥x', 'g^11*(x^2) + (g^14*x^15)^16 + g^5*x'),
    ('2^4', '0*  x ^\t-1+\t(  x^0)', '(1)'),
    ('2^4', '\tg^\t2(  x^15 +0)^596217', 'g^2*(x^15)^596217'),
    ('2^4', 'x', 'x'),
    ('2^4', ' 1^11\t', None),
    ('2^4', '+00Xf1g0b(x', None),
    ('2^4', 'y^3-00g003y#', None),
    ('2^4', 'f-1 ^-2#0xB', None),
    ('2^4', '  (0b1110*  xx)-15', None),
    ('2^4', ' g^16*x +g^2 ^*g^a', None),
    ('2^4', 'f9x^(', None),
    ('2^4', '', None),
    ('2^4', '(0*x ^\t٤٦١٦٨٦٠١٨٤٢٧٣٨٧٩٠٥²)+0b^05', None),
    ('2^4', '\t0B1110*x^²  31', None),
    ('2^4', 'g^  4611686018²273870(5\t* x', None),
    ('2^6', '1\tx', 'x'),
    ('2^6', '  0b10010* x^2', 'g^33*x^2'),
    ('2^6', '  x- (  g^131\tx+\tx\t)', 'x + (g^62*x)'),
    ('2^6', '0b101111*x\t+g^1(0Xb *x^\t0-0Xf+\tx^1)', 'g^40*x + g^1*(x + g^2)'),
    ('2^6', '0  x  ^63', '0'),
    ('2^6', '(    x\t+x-g^-15\tx)  ^2', '(g^48*x)^2'),
    ('2^6', '(g )^131 ', '(g^1)^131'),
    ('2^6', 'x ^2', 'x^2'),
    ('2^6', '\tx +0x1a(0b10100  *x  )^  -1', 'x + g^49*(g^14*x)^-1'),
    ('2^6', '0X2ax^675538+0X18*\tx ^ 64', None),
    ('2^6', 'X#x102af_', None),
    ('2^6', 'f X', None),
    ('2^6', '10B100100x\t^  63', None),
    ('2^6', '0x1d\tx-gx -g^10000000000000000000000000\t', None),
    ('2^6', 'BB(31000', None),
    ('2^6', 'y_##9x^10', None),
    ('2^6', '0b² 0bg\t', None),
    ('2^6', 'g^ 3x^²', None),
    ('2^6', 'g^ 46²16860a1842738704', None),
    ('2^6', 'x^\t²٣10 0', None),
    ('3^3', 'x  ', 'x'),
    ('3^3', 'g^828293*x', 'g^11*x'),
    ('3^3', '0x7  *\t(g^-4611686018427387904*x)\t^  17', 'g^16*(g^22*x)^17'),
    ('3^3', '0b11010*x\t^\t487210+  g^26', 'g^19*x^487210 + 1'),
    ('3^3', 'x^57', 'x^57'),
    ('3^3', ' 0', '0'),
    ('3^3', 'x^  1  - 0x11*  x^\t28', 'x + g^20*x^28'),
    ('3^3', 'g( 0b1000  )^57', 'g^1*(g^22)^57'),
    ('3^3', 'g^  276346x^-  3+1x^-3', 'g^18*x^-3 + x^-3'),
    ('3^3', ' *(1x+\tg^-02)^- 27', '(x + g^24)^-27'),
    ('3^3', ' 0e*x^ 3', None),
    ('3^3', '\t(x\t^03- 1* x+1)^4611686018427387905  ', None),
    ('3^3', 'x^٣X*(-100x2', None),
    ('3^3', '10', None),
    ('3^3', '20x0b_', None),
    ('3^3', 'Bfy9X3 1', None),
    ('3^3', '-٣1*y+0x\t', None),
    ('3^3', 'gx  ^-461168600x18427387904', None),
    ('3^3', 'g^ -3*x^1²789B6  ', None),
    ('3^3', '  0\t*  (0X14\tx^03²g^57+x^57)) 1', None),
    ('3^3', 'g (g^57x+\t0 x^ 53²551)^2B', None),
    ('5^2', 'g*x  ^ 3', 'g^1*x^3'),
    ('5^2', 'x^288095', 'x^288095'),
    ('5^2', '1x^1  ', 'x'),
    ('5^2', 'gx^457262 -0x15*x', 'g^1*x^457262 + g^17*x'),
    ('5^2', '0b10010*  x^\t0', 'g^7'),
    ('5^2', '( 0X9-0B10000*x\t+\tx^2  )^-25', '(x^2 + g^2*x + g^17)^-25'),
    ('5^2', '\t  x^4611686018427387904', 'x^4611686018427387904'),
    ('5^2', '0b10111 x  ^525129+  1*x\t^- 53  ', 'g^20*x^525129 + x^-53'),
    ('5^2', '\t0B1001(0b1  *x) ', 'g^17*x'),
    ('5^2', '0xe+ x^  25 ', 'g^2 + x^25'),
    ('5^2', '0001101yx', None),
    ('5^2', '#', None),
    ('5^2', 'gx-g^25(x+\tx+ g^253955  *x^1)\t^-', None),
    ('5^2', ')xx^', None),
    ('5^2', 'x +0x5x', None),
    ('5^2', '3²\t+(g^-', None),
    ('5^2', 'x^x22', None),
    ('5^2', ' 0b1010a1  * x^2', None),
    ('5^2', 'g^51080²\t(   x^3-   x^\t24 )*', None),
    ('5^2', '  x^-10000000000000000000²000000', None),
    ('5^2', 'x^²1', None),
]

# where this parser deliberately differs from that one: c*(T)^0 prints its
# base, so the text parses back to the same terms (that parser printed the
# bare constant c), and whitespace after an exponent's '-' is any whitespace
# (that parser dropped only spaces there and then failed in int())
PARSE_CHANGED = [
    ('2^4', '(1)^0', '(1)^0'),  # parent: '1'
    ('2^4', '(x+1)^0', '(x + 1)^0'),  # parent: '1'
    ('2^4', 'g*(x^2 + 1)^0 + x', 'g^1*(x^2 + 1)^0 + x'),  # parent: 'g^1 + x'
    ('2^4', 'x^-\t3', 'x^-3'),  # parent: None
    ('2^4', 'g^-\t3*x', 'g^12*x'),  # parent: None
    ('2^4', '(x^2 + g)^-\t1', '(x^2 + g^1)^-1'),  # parent: None
    ('2^6', ' g^\t4611686018427387904*(x ^63)^0\t', 'g^4*(x^63)^0'),  # parent: 'g^4'
]


def test_parse_corpus():
    for corpus in (PARSE_CORPUS, PARSE_CHANGED):
        assert [(f, t, parsed_text(f, t)) for f, t, _ in corpus] == corpus


FUZZ_FIELDS = ("2^4", "2^6", "5^2", "3^3")


@st.composite
def composite_polys(draw):
    name = draw(st.sampled_from(FUZZ_FIELDS))
    ctx = field_of(name)
    q = ctx.q
    element = st.integers(0, q - 1)
    base = st.lists(st.tuples(st.integers(0, 3 * q), element), max_size=4).map(
        lambda pairs: SparsePoly.make(ctx, pairs))
    outer = st.one_of(st.sampled_from((0, 1, -1, q - 1, q, q + 1)),
                      st.integers(-3 * q, 3 * q),
                      st.integers(-MAX_EXPONENT, MAX_EXPONENT))
    terms = draw(st.lists(st.tuples(element, st.one_of(st.just(SparsePoly(X_TERMS)), base),
                                    outer), max_size=4))
    return name, CompositePoly.make(terms)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(composite_polys())
def test_to_text_parses_back(case):
    name, f = case
    ctx = field_of(name)
    assert parse_poly(ctx, to_text(ctx, f)) == f


GRAMMAR_TOKENS = ("x", "g", "^", "-", "+", "*", "(", ")", "0", "1", "7", "0x", "0b",
                  "a", "X", " ", "\t", "\u00b2", "#", "_", "y", "\u0663", "x^", "g^")


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.sampled_from(FUZZ_FIELDS),
       st.one_of(st.text(alphabet="".join(GRAMMAR_TOKENS), max_size=24),
                 st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=16).map("".join)))
def test_any_text_parses_or_raises_parse_error(name, text):
    parsed_text(name, text)
