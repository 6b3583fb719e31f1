import math
import random
import re
import types
from dataclasses import replace

import numpy as np
import pytest

from permupoly import (SparsePoly, build_field, evaluate, evaluate_all,
                       is_permutation, is_complete_permutation, lemma1_check,
                       lemma1_polynomial, monomial_pp_check, mu_d_roots,
                       parse_poly, to_text)
from permupoly import field, perm
from permupoly.cli import main
from permupoly.families import check_enumeration_guard, field_for_family, iter_family


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


@pytest.mark.parametrize("q,e", [(3, 4), (5, 3), (9, 2), (7, 2)])
def test_coset_criterion_matches_image_scan_on_every_p4_tuple(q, e):
    """P4's x^r (x^(q-1) + a) over GF(q^e) is x^r h(x^((Q-1)/d)) with
    h = x + a and d = (Q-1)/(q-1): lemma1_check's scalar verdict on the
    d-th roots of unity against is_permutation's image scan, whose value
    array the odd-p add_vec forms, on every (r, a) tuple."""
    ctx = field_for_family("P4", {"q": q, "e": e})
    d = (ctx.q - 1) // (q - 1)
    verdicts = set()
    for params, poly, _ in iter_family("P4", {"q": q, "e": e}, ctx=ctx):
        h = SparsePoly.make(ctx, [(1, 1), (0, params.a)])
        rep = lemma1_check(ctx, params.r, d, h)
        assert rep.ok == is_permutation(ctx, poly).permutation, (params.r, params.a)
        verdicts.add(rep.ok)
    assert verdicts == {True, False}


def test_lemma1_vanishing_h_on_circle(gf16):
    # h = x + 1 vanishes at 1, which lies on every root group
    h = SparsePoly.make(gf16, [(1, 1), (0, 1)])
    rep = lemma1_check(gf16, 1, 5, h)
    assert not rep.circle_ok and not rep.ok
    brute = is_permutation(gf16, lemma1_polynomial(gf16, 1, 5, h))
    assert not brute.permutation


def test_perm_guard():
    # no field above the bound exists to check
    with pytest.raises(ValueError, match=r"^GF\(2\^25\) is out of scope: "
                                         r"fields are limited to q <= 2\^24$"):
        build_field(2, 25)


def dict_walk_witness(ctx, values):
    """Reference witness walk: one dict pass over elements_in_order()."""
    seen = {}
    for x in ctx.elements_in_order():
        v = int(values[x])
        if v in seen:
            return (seen[v], x)
        seen[v] = x
    return None


def scalar_values(ctx, f):
    """f at every element code, by the scalar evaluator."""
    return [evaluate(ctx, f, x) for x in range(ctx.q)]


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


def _random_poly(ctx, rng):
    """A random sum of 1-3 monomials c*x^e with c != 0 and 0 < e < q."""
    pairs = [(rng.randrange(1, ctx.q), rng.randrange(1, ctx.q))
             for _ in range(rng.randint(1, 3))]
    return parse_poly(ctx, " + ".join(f"{ctx.format_element(c)}*x^{e}"
                                      for e, c in pairs))


def _random_non_pps(ctx, rng, count):
    out = []
    while len(out) < count:
        f = _random_poly(ctx, rng)
        if not is_permutation(ctx, f).permutation:
            out.append(f)
    return out


SCALAR_FIELDS = [(2, 6), (2, 8), (3, 4), (5, 3), (7, 2)]


@pytest.mark.parametrize("p,n", SCALAR_FIELDS)
def test_image_size_and_witness_bound_match_the_scalar_evaluator(p, n):
    """The image size against the set of scalar values, the witness
    against a dict walk over them, and the pigeonhole bound the witness
    search relies on: the first repeat lies at a position of at most the
    image size.  A monomial x^d with gcd(d, q - 1) = g > 1 meets it: it
    first repeats f(1) at g^((q-1)/g), position (q-1)/g + 1, which is its
    image size."""
    ctx = build_field(p, n)
    rng = random.Random(f"image:{p}^{n}")
    fs = [(_random_poly(ctx, rng), False) for _ in range(20)]
    fs += [(parse_poly(ctx, f"x^{d}"), True) for d in range(2, ctx.q - 1)
           if math.gcd(d, ctx.q - 1) > 1]
    order = ctx.elements_in_order()
    witnesses = 0
    for f, monomial in fs:
        values = scalar_values(ctx, f)
        rep = is_permutation(ctx, f)
        assert rep.image_size == len(set(values)), to_text(ctx, f)
        assert rep.witness == dict_walk_witness(ctx, values), to_text(ctx, f)
        if rep.witness is not None:
            witnesses += 1
            position = order.index(rep.witness[1])
            assert position <= rep.image_size, to_text(ctx, f)
            if monomial:
                assert position == rep.image_size, to_text(ctx, f)
    assert witnesses > 20


def hermite_permutes(ctx, f):
    """Hermite's criterion (Lidl-Niederreiter, Lemma 7.3): f permutes GF(q)
    iff sum_x f(x)^t = 0 for 1 <= t <= q - 2 and sum_x f(x)^(q-1) != 0.
    It reads f's values through the scalar evaluator and sums their powers
    with ctx.pow and ctx.add: no scatter, no count and no vector kernel."""
    values = scalar_values(ctx, f)
    for t in range(1, ctx.q):
        total = 0
        for v in values:
            total = ctx.add(total, ctx.pow(v, t))
        if (total != 0) != (t == ctx.q - 1):
            return False
    return True


def _hermite_cases(ctx, rng):
    """Seeded random sums of monomials, which rarely permute, with affine
    compositions c*(x + a)^d + b on each side of gcd(d, q - 1) = 1."""
    fs = [_random_poly(ctx, rng) for _ in range(6)]
    units = [d for d in range(2, ctx.q - 1) if math.gcd(d, ctx.q - 1) == 1]
    others = [d for d in range(2, ctx.q - 1) if math.gcd(d, ctx.q - 1) > 1]
    for ds in (units, units, units, others, others):
        c, a, b = (rng.randrange(1, ctx.q) for _ in range(3))
        fs.append(parse_poly(ctx, f"{ctx.format_element(c)}*(x + {ctx.format_element(a)})"
                                  f"^{rng.choice(ds)} + {ctx.format_element(b)}"))
    return fs


@pytest.mark.parametrize("p,n", SCALAR_FIELDS)
def test_hermite_criterion_matches_is_permutation(p, n):
    ctx = build_field(p, n)
    fs = _hermite_cases(ctx, random.Random(f"hermite:{p}^{n}"))
    verdicts = [hermite_permutes(ctx, f) for f in fs]
    assert verdicts == [is_permutation(ctx, f).permutation for f in fs]
    assert set(verdicts) == {True, False}


def test_hermite_criterion_matches_is_permutation_on_every_p6_tuple():
    ctx = field_for_family("P6", {"k": 2})
    verdicts = set()
    for params, poly, _ in iter_family("P6", {"k": 2}, ctx=ctx):
        pp = hermite_permutes(ctx, poly)
        assert pp == is_permutation(ctx, poly).permutation, (params.b, params.delta)
        verdicts.add(pp)
    assert verdicts == {True, False}


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 4)])
def test_witness_search_chunk_boundaries(monkeypatch, p, n, chunk):
    # small chunks put most witnesses in the numpy search, across many
    # chunk boundaries; x^2 - g^j*x first repeats f(0) = 0 at g^j
    ctx = build_field(p, n)
    rng = random.Random(f"chunks:{p}^{n}")
    fs = _random_non_pps(ctx, rng, 20)
    fs += [parse_poly(ctx, f"x^{d}") for d in range(2, 12)
           if math.gcd(d, ctx.q - 1) > 1]
    fs += [parse_poly(ctx, f"x^2 - g^{j}*x") for j in (1, 10)]
    limits = [len(set(scalar_values(ctx, f))) + 1 for f in fs]
    monkeypatch.setattr(perm, "WITNESS_CHUNK", chunk)
    for f, limit in zip(fs, limits):
        assert perm._first_collision(ctx, evaluate_all(ctx, f, "canonical"), limit) == \
            dict_walk_witness(ctx, evaluate_all(ctx, f))
    assert is_permutation(ctx, fs[-1]).witness == (0, ctx.gen_pow(10))


def digit_add(ctx, A, B):
    """A + B on codes, digit by digit in base p: shares no code with the
    digit-group add."""
    p, w = ctx.p, 1
    A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
    out = np.zeros(len(A), dtype=np.int64)
    for _ in range(ctx.n):
        out += (A // w + B // w) % p * w
        w *= p
    return out


def code_order_monomial(ctx, c, e):
    """c * x^e at every code, by one gather of the exp table at the logs."""
    E, L = ctx._E.astype(np.int64), ctx._L.astype(np.int64)
    out = E[(L[c] + L * e) % (ctx.q - 1)]
    out[0] = 0
    return out


# Both fields are above KERNEL_BLOCK, so each kernel a check calls runs in
# two or three slices.  3 divides neither q - 1, so the monomials that do
# not permute have gcd(e, q - 1) = 2, or 4 over GF(5^7).
@pytest.fixture(scope="module", params=[(5, 7), (3, 11)],
                ids=lambda pn: f"{pn[0]}^{pn[1]}")
def sliced_field(request):
    return build_field(*request.param)


def test_checks_across_kernel_slices(sliced_field):
    """is_permutation and is_complete_permutation against code-order values
    formed by log gathers and digit_add, with the dict walk witness: the
    P4 forms x^r (x^(p-1) + a) for both r and a on each side of the norm
    clause, and monomials.  A P4 form permutes iff gcd(r, p - 1) = 1 and
    norm(a) != (-1)^n; the larger r is even over both fields."""
    ctx = sliced_field
    p, n, q = ctx.p, ctx.n, ctx.q
    assert q > field.KERNEL_BLOCK
    norm_exp, minus_one_n = (q - 1) // (p - 1), ctx.pow(ctx.neg(1), n)
    cases = []
    for r in (1, sum(p ** i for i in range(2, n)) + 1):
        for k in (4, 5, 6, 7):
            a = ctx.gen_pow(k)
            values = digit_add(ctx, code_order_monomial(ctx, 1, r + p - 1),
                               code_order_monomial(ctx, a, r))
            cases.append((f"x^{r + p - 1} + g^{k}*x^{r}", values,
                          math.gcd(r, p - 1) == 1
                          and ctx.pow(a, norm_exp) != minus_one_n))
    assert {pp for _, _, pp in cases[:4]} == {True, False}    # r = 1
    for g in (1, 2, 4):
        if (q - 1) % g == 0:
            e = next(e for e in range(3 * g, q, g) if math.gcd(e, q - 1) == g)
            cases.append((f"x^{e}", code_order_monomial(ctx, 1, e), g == 1))
    assert {pp for _, _, pp in cases} == {True, False}
    X = np.arange(q)
    for text, values, pp in cases:
        f = parse_poly(ctx, text)
        witness = dict_walk_witness(ctx, values.tolist())
        rep = is_permutation(ctx, f)
        assert rep.permutation == (witness is None) == pp, text
        assert rep.witness == witness, text
        assert rep.image_size == len(np.unique(values)), text
        complete = pp and len(np.unique(digit_add(ctx, values, X))) == q
        assert is_complete_permutation(ctx, f) == replace(rep, complete=complete), text


@pytest.mark.parametrize("p,n,text", [
    (2, 14, "x^3"), (2, 14, "g^5*x^15 + g^9"), (3, 9, "x^2"), (3, 9, "g^4*x^6 + 1")])
def test_witness_search_late(p, n, text):
    ctx = build_field(p, n)
    f = parse_poly(ctx, text)
    want = dict_walk_witness(ctx, evaluate_all(ctx, f))
    assert ctx.elements_in_order().index(want[1]) > perm.WITNESS_CHUNK + 1
    assert is_permutation(ctx, f).witness == want


def numpy_with(**fakes):
    """numpy as perm sees it, with the named functions replaced; every
    other module keeps the real ones."""
    return types.SimpleNamespace(**{**vars(np), **fakes})


def test_full_scatter_trips_the_sorted_values(monkeypatch, gf256):
    # a scatter that claims a full image for x^3 must trip the sort
    f = parse_poly(gf256, "x^3")
    monkeypatch.setattr(perm, "np", numpy_with(zeros=np.ones))
    with pytest.raises(AssertionError,
                       match="^sorted values and image scatter disagree$"):
        is_permutation(gf256, f)


def test_sorted_values_trip_the_scatter(monkeypatch, gf256):
    # sorted values that repeat an element of the permutation x^7 must
    # disagree with the scatter's full image
    f = parse_poly(gf256, "x^7")
    assert is_permutation(gf256, f).permutation

    def sort_with_a_repeat(a):
        s = np.sort(a)
        s[1] = s[0]
        return s

    monkeypatch.setattr(perm, "np", numpy_with(sort=sort_with_a_repeat))
    with pytest.raises(AssertionError,
                       match="^sorted values and image scatter disagree$"):
        is_permutation(gf256, f)


def _negative_code(values):
    """A kernel fault: the code q - 1 comes back as -1, which the scatter
    wraps onto q - 1."""
    values = values.copy()
    values[values == len(values) - 1] = -1
    return values


def test_negative_code_trips_the_sorted_values(gf16):
    values = _negative_code(evaluate_all(gf16, parse_poly(gf16, "x^7"), "canonical"))
    with pytest.raises(AssertionError,
                       match="^sorted values and image scatter disagree$"):
        perm._report(gf16, parse_poly(gf16, "x^7"), values)


def test_check_pp_negative_code_is_an_assertion_not_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(perm, "evaluate_all",
                        lambda ctx, f, order: _negative_code(evaluate_all(ctx, f, order)))
    with pytest.raises(AssertionError,
                       match="^sorted values and image scatter disagree$"):
        main(["check-pp", "--field", "2^4", "--poly", "x^7"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("p,n", SCALAR_FIELDS)
def test_unit_exponents_permute_by_both_measures(p, n):
    """x^d and c*(x + a)^d + b with gcd(d, q - 1) = 1 permute the field:
    is_permutation gives a full image, and so does the scalar evaluator."""
    ctx = build_field(p, n)
    rng = random.Random(f"units:{p}^{n}")
    fs = []
    for d in range(1, ctx.q):
        if math.gcd(d, ctx.q - 1) == 1:
            c, a, b = (ctx.format_element(rng.randrange(k, ctx.q)) for k in (1, 0, 0))
            fs += [parse_poly(ctx, f"x^{d}"), parse_poly(ctx, f"{c}*(x + {a})^{d} + {b}")]
    for f in fs:
        rep = is_permutation(ctx, f)
        assert rep.permutation and rep.image_size == ctx.q, to_text(ctx, f)
        assert len(set(scalar_values(ctx, f))) == ctx.q, to_text(ctx, f)


@pytest.mark.parametrize("text", ["x^3", "x^7"])
def test_undercount_trips_the_witness_search(monkeypatch, gf256, text):
    # a count one below the true image bounds the search short of the first
    # repeat of x^3 (position 86 = image size), and leaves the permutation
    # x^7 a search with nothing to find; neither may surface as a TypeError
    f = parse_poly(gf256, text)
    monkeypatch.setattr(perm, "np", numpy_with(count_nonzero=lambda a: np.count_nonzero(a) - 1))
    with pytest.raises(AssertionError,
                       match="^image count and witness search disagree$"):
        is_permutation(gf256, f)


def test_check_pp_undercount_is_an_assertion_not_exit_2(monkeypatch, capsys):
    # a wrong count is a fault in the program, not a bad input: it must
    # not be reported as "error: ..." with exit 2
    monkeypatch.setattr(perm, "np", numpy_with(count_nonzero=lambda a: np.count_nonzero(a) - 1))
    for field_text, text in (("2^8", "x^3"), ("2^4", "x^7")):
        with pytest.raises(AssertionError,
                           match="^image count and witness search disagree$"):
            main(["check-pp", "--field", field_text, "--poly", text])
        assert capsys.readouterr().err == ""


def _two_evaluation_complete(ctx, f):
    rep = is_permutation(ctx, f)
    shift = is_permutation(ctx, f.plus_x())
    return replace(rep, complete=rep.permutation and shift.permutation)


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5)])
def test_complete_check_evaluates_once(monkeypatch, p, n):
    ctx = build_field(p, n)
    rng = random.Random(f"complete:{p}^{n}")
    fs = [parse_poly(ctx, f"g^{rng.randrange(ctx.q - 1)}*x") for _ in range(10)]
    minus_x = f"{ctx.format_element(ctx.neg(1))}*x"
    fs += [parse_poly(ctx, text) for text in ("x", minus_x, "0", "x^3 + g*x")]
    fs += [_random_poly(ctx, rng) for _ in range(30)]
    want = [_two_evaluation_complete(ctx, f) for f in fs]
    assert {w.complete for w in want} == {True, False}
    real, calls = perm.evaluate_all, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(perm, "evaluate_all", counted)
    for f, w in zip(fs, want):
        del calls[:]
        assert is_complete_permutation(ctx, f) == w
        assert len(calls) == 1


def test_bound_messages_follow_the_bounds(monkeypatch, capsys):
    # TABLE_BOUND is stated once, so moving it moves every refusal alike
    monkeypatch.setattr(field, "TABLE_BOUND", 1 << 9)
    refusal = "GF(2^10) is out of scope: fields are limited to q <= 2^9"
    assert build_field(2, 9).has_tables
    assert check_enumeration_guard("P6", {"k": 4}) == 255 * 256
    with pytest.raises(ValueError, match=re.escape(refusal) + "$"):
        build_field(2, 10)
    with pytest.raises(ValueError, match=re.escape(refusal) + "$"):
        check_enumeration_guard("P6", {"k": 5})
    for argv in (["scan", "--family", "P6", "--k", "5"],
                 ["family", "--family", "P6", "--k", "5", "--b", "1", "--delta", "1"],
                 ["field-info", "--field", "2^10"],
                 ["check-pp", "--field", "2^10", "--poly", "x"],
                 ["decompose", "--field", "2^10", "--x", "g"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {refusal}\n"), argv
    monkeypatch.setattr(field, "TABLE_BOUND", 1000)
    assert build_field(3, 6).q == 729
    with pytest.raises(ValueError, match=r"^GF\(2\^10\) .* q <= 1000$"):
        build_field(2, 10)
    # a field built without tables refuses whole-field evaluation up front
    bare = build_field(2, 9, tables=False)
    with pytest.raises(ValueError, match=r"built without log tables$"):
        evaluate_all(bare, parse_poly(bare, "x"))


def test_prime_field_above_old_characteristic_rule():
    # p just above 2^20: a prime field is bounded by its order alone
    ctx = build_field(1048583, 1)
    for e in (2, 3):
        rep = is_permutation(ctx, parse_poly(ctx, f"x^{e}"))
        assert rep.permutation == monomial_pp_check(ctx, e)
