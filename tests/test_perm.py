import random

import pytest

from permupoly import (SparsePoly, build_field, evaluate, evaluate_all,
                       is_permutation, is_complete_permutation, lemma1_check,
                       lemma1_polynomial, monomial_pp_check, mu_d_roots,
                       parse_poly)
from permupoly import field


def test_identity_is_permutation(gf64):
    rep = is_permutation(gf64, parse_poly(gf64, "x"))
    assert rep.permutation and rep.witness is None and rep.image_size == 64
    assert rep.verdict == "permutation"


def test_x2_plus_x_witness(gf8):
    rep = is_permutation(gf8, parse_poly(gf8, "x^2 + x"))
    assert not rep.permutation
    assert rep.witness == (0, 1)
    assert rep.image_size == 4  # the map is 2-to-1
    f = parse_poly(gf8, "x^2 + x")
    x1, x2 = rep.witness
    assert x1 != x2 and evaluate(gf8, f, x1) == evaluate(gf8, f, x2)


def test_example1_instance(gf64):
    g = gf64.generator
    c = gf64.pow(g, 48)
    text = f"(g^1*x + g^9)^5 + x^4 + {gf64.format_element(c)}*x"
    assert is_permutation(gf64, parse_poly(gf64, text)).permutation


def test_witness_deterministic(gf16):
    f = parse_poly(gf16, "x^2 + g^3*x")
    reps = [is_permutation(gf16, f) for _ in range(3)]
    assert len({r.witness for r in reps}) == 1


def test_complete_permutation(gf4):
    rep = is_complete_permutation(gf4, parse_poly(gf4, "g^1*x"))
    assert rep.permutation and rep.complete
    rep = is_complete_permutation(gf4, parse_poly(gf4, "x"))
    assert rep.permutation and not rep.complete  # f + x = 0 in char 2
    rep = is_complete_permutation(gf4, parse_poly(gf4, "0"))
    assert not rep.permutation and not rep.complete


def test_monomial_examples(gf64):
    assert monomial_pp_check(gf64, 1)
    assert monomial_pp_check(gf64, 5)       # gcd(5, 63) = 1
    assert not monomial_pp_check(gf64, 9)   # gcd(9, 63) = 9
    with pytest.raises(ValueError):
        monomial_pp_check(gf64, 0)


def test_mu_d(gf16, gf625):
    assert mu_d_roots(gf16, 1) == [1]
    mu5 = mu_d_roots(gf16, 5)
    assert len(mu5) == 5 and all(gf16.pow(x, 5) == 1 for x in mu5)
    mu156 = mu_d_roots(gf625, 156)
    oracle = [x for x in range(1, 625) if gf625.pow(x, 156) == 1]
    assert sorted(mu156) == sorted(oracle) and len(mu156) == 156
    with pytest.raises(ValueError):
        mu_d_roots(gf16, 7)


def test_lemma1_monomial_case(gf64):
    h = SparsePoly.make(gf64, [(0, 1)])  # h = 1
    for d in (1, 3, 7, 9, 21, 63):
        for r in (1, 2, 5, 62):
            rep = lemma1_check(gf64, r, d, h)
            import math
            assert rep.ok == (math.gcd(r, 63) == 1)


def test_lemma1_prop4_instances(gf625):
    a_good = gf625.gen_pow(1)       # norm a^156 != 1
    a_bad = gf625.gen_pow(4)        # norm = 1
    for a, expect in ((a_good, True), (a_bad, False)):
        h = SparsePoly.make(gf625, [(1, 1), (0, a)])
        rep = lemma1_check(gf625, 151, 156, h)
        assert rep.ok == expect
        brute = is_permutation(gf625, lemma1_polynomial(gf625, 151, 156, h))
        assert brute.permutation == expect
        if not expect:
            assert brute.witness is not None
    with pytest.raises(ValueError):
        lemma1_check(gf625, 151, 100, SparsePoly.make(gf625, [(0, 1)]))


def test_lemma1_vanishing_h_on_circle(gf16):
    # h = x + 1 vanishes at 1, which lies on every root group
    h = SparsePoly.make(gf16, [(1, 1), (0, 1)])
    rep = lemma1_check(gf16, 1, 5, h)
    assert not rep.circle_ok and not rep.ok
    brute = is_permutation(gf16, lemma1_polynomial(gf16, 1, 5, h))
    assert not brute.permutation


def test_perm_guard():
    big = build_field(2, 25)
    with pytest.raises(ValueError, match="2\\^24"):
        is_permutation(big, parse_poly(big, "x"))


def dict_walk_witness(ctx, values):
    """Reference witness walk: one dict pass over elements_in_order()."""
    seen = {}
    for x in ctx.elements_in_order():
        v = int(values[x])
        if v in seen:
            return (seen[v], x)
        seen[v] = x
    return None


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 4)])
def test_witness_matches_dict_walk(p, n):
    ctx = build_field(p, n)
    rng = random.Random(f"witness:{p}^{n}")
    checked = 0
    while checked < 30:
        pairs = [(rng.randrange(1, ctx.q), rng.randrange(1, ctx.q))
                 for _ in range(rng.randint(1, 3))]
        f = parse_poly(ctx, " + ".join(f"{ctx.format_element(c)}*x^{e}"
                                       for e, c in pairs))
        rep = is_permutation(ctx, f)
        if rep.permutation:
            continue
        assert rep.witness == dict_walk_witness(ctx, evaluate_all(ctx, f))
        checked += 1


def test_witness_past_first_chunk():
    # q - 1 = 3 * 43 * 127: x^3 first repeats at g^((q-1)/3), position 5,462
    ctx = build_field(2, 14)
    f = parse_poly(ctx, "x^3")
    want = (1, ctx.gen_pow((ctx.q - 1) // 3))
    assert is_permutation(ctx, f).witness == want
    assert dict_walk_witness(ctx, evaluate_all(ctx, f)) == want


def test_witness_without_tables(monkeypatch):
    texts = ["x^3", "x^2 + g^5*x", "(x^4 + x + g^7)^33 + g^200*x", "x^6 + g^3*x^2"]
    tabled = build_field(2, 10)
    monkeypatch.setattr(field, "LOG_TABLE_BOUND", 1 << 9)
    bare = build_field(2, 10)
    assert tabled.has_tables and not bare.has_tables
    assert bare.generator == tabled.generator
    for text in texts:
        # same modulus and generator, so one parse serves both fields
        f = parse_poly(tabled, text)
        got = is_permutation(bare, f)
        assert not got.permutation
        assert got.witness == is_permutation(tabled, f).witness
        assert got.witness == dict_walk_witness(bare, evaluate_all(bare, f))
