import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permupoly import (ReducibleModulusError, build_field, canonical_modulus,
                       is_irreducible, parse_field_descriptor)
from permupoly import CompositePoly, SparsePoly, evaluate, evaluate_all, field
from permupoly.field import (_code_of, _digits_of, _generator_powers,
                             _prime_factors, _pmod, _progression, _rabin_tuples,
                             _trim, _wrap)
from permupoly.poly import X_TERMS

from conftest import SLICED_FIELDS


def brute_is_irreducible(f, p):
    """Trial-division oracle, independent of the library's gcd-based test."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for t in range(p ** d):
            g = []
            tt = t
            for _ in range(d):
                tt, r = divmod(tt, p)
                g.append(r)
            g.append(1)
            if not _pmod(f, _trim(g), p):
                return False
    return True


def mult_order(ctx, a):
    """Order via chained table-free multiplication."""
    x, k = a, 1
    while x != 1:
        x = ctx._mul_notable(x, a)
        k += 1
        assert k <= ctx.q
    return x == 1 and k


def test_gf2_trivial(gf2):
    assert gf2.q == 2
    assert gf2.generator == 1
    assert gf2.modulus_code == 2  # the polynomial x
    assert gf2.add(1, 1) == 0
    assert gf2.mul(1, 1) == 1


def test_gf64_canonical_and_order(gf64):
    assert mult_order(gf64, gf64.generator) == 63
    assert brute_is_irreducible(gf64.modulus, 2)
    # canonical = smallest packed code among monic irreducibles
    for code in range(1 << 6, gf64.modulus_code):
        digits = [(code >> i) & 1 for i in range(7)]
        if digits[6] == 1:
            assert not brute_is_irreducible(_trim(digits), 2)


def test_gf625_exists(gf625):
    assert gf625.q == 625
    assert mult_order(gf625, gf625.generator) == 624
    assert brute_is_irreducible(gf625.modulus, 5)


@pytest.mark.parametrize("p,n", [(2, 4), (2, 8), (5, 4)])
def test_canonical_modulus_minimal(p, n):
    mod = canonical_modulus(p, n)
    code = _code_of(mod, p)
    for smaller in range(p ** n, code):
        digits = []
        t = smaller
        for _ in range(n + 1):
            t, r = divmod(t, p)
            digits.append(r)
        if digits[n] == 1:
            assert not brute_is_irreducible(_trim(digits), p)


def test_reducible_modulus_rejected():
    # x^4 + 1 = (x+1)^4 over GF(2)
    with pytest.raises(ReducibleModulusError) as exc:
        build_field(2, 4, modulus=0b10001)
    factor = exc.value.factor
    assert factor is not None and 1 <= len(factor) - 1 < 4
    # the named factor really divides
    assert not _pmod((1, 0, 0, 0, 1), factor, 2)


@pytest.mark.parametrize("p,n,code", [(2, 6, 0x1c3), (2, 6, 0xc3), (3, 2, 0x100),
                                      (2, 6, 0x3f), (3, 2, -1)])
def test_out_of_range_modulus_code_rejected(p, n, code):
    # a code outside [p^n, 2 p^n) is not monic of degree n; its high digits
    # must not be dropped to give some other modulus
    with pytest.raises(ValueError, match=f"modulus must be monic of degree {n}"):
        build_field(p, n, modulus=code)


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        build_field(4, 2)
    with pytest.raises(ValueError):
        build_field(9, 1)
    # a p above the size bound is refused before it is tested for primality
    with pytest.raises(ValueError, match="out of scope"):
        build_field(10 ** 24 + 7, 1)
    with pytest.raises(ValueError, match="out of scope"):
        build_field(1048583 * 1048589, 1)
    with pytest.raises(ValueError, match="not prime"):
        build_field(4093 * 4099, 1)        # 16,777,207, below 2^24


def test_bad_modulus_shape():
    with pytest.raises(ValueError):
        build_field(2, 3, modulus=(1, 1))  # degree 1, not 3


def test_pow_conventions(gf64):
    for a in range(1, 64):
        assert gf64.pow(a, 0) == 1
    assert gf64.pow(0, 0) == 1
    assert gf64.pow(0, 7) == 0
    assert gf64.pow(0, -3) == 0
    # exponents mod q-1 = 63
    for b in range(1, 64):
        assert gf64.pow(b, -15) == gf64.pow(b, 48)
    # Fermat
    for a in range(1, 64):
        assert gf64.pow(a, 63) == 1
    for a in range(64):
        assert gf64.pow(a, 64) == a


def test_inv(gf4, gf625):
    assert gf4.inv(1) == 1
    g = gf4.generator
    assert gf4.inv(g) == gf4.pow(g, 2)  # g^3 = 1
    for a in range(1, 625):
        assert gf625.mul(a, gf625.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf625.inv(0)


def test_relative_trace(gf4, gf64, gf256):
    # trace to the field itself is the identity
    for x in range(256):
        assert gf256.relative_trace(8, x) == x
    # GF(4): g + g^2 with g^2 = g + 1 gives 1
    g = gf4.generator
    assert gf4.relative_trace(1, g) == gf4.add(g, gf4.mul(g, g)) == 1
    # absolute trace over GF(256) is balanced
    assert sum(1 for d in range(256) if gf256.relative_trace(1, d) == 1) == 128
    # image lies in the subfield
    for m in (1, 2, 3):
        for x in range(64):
            t = gf64.relative_trace(m, x)
            assert gf64.frobenius(t, m) == t
    with pytest.raises(ValueError):
        gf64.relative_trace(4, 1)


def frobenius_trace(ctx, m, x):
    """Tr onto GF(p^m) as the sum of x^(p^(m*i)), each conjugate by
    table-free square-and-multiply on _mul_notable."""
    acc, y = x, x
    for _ in range(ctx.n // m - 1):
        y = _scalar_pow(ctx, y, ctx.p ** m)
        acc = ctx.add(acc, y)
    return acc


# every m dividing n, on every x
@pytest.mark.parametrize("p,n,ms", [(2, 8, (1, 2, 4, 8)), (2, 6, (1, 2, 3, 6)),
                                    (3, 4, (1, 2, 4)), (5, 4, (1, 2, 4))])
def test_relative_trace_tables_match_frobenius_sum(p, n, ms):
    ctx = build_field(p, n)
    assert ms == tuple(m for m in range(1, n + 1) if n % m == 0)
    for m in ms:
        want = [frobenius_trace(ctx, m, x) for x in range(ctx.q)]
        assert [ctx.relative_trace(m, x) for x in range(ctx.q)] == want


@pytest.mark.parametrize("p,n", [(2, 8), (3, 4), (5, 3)])
def test_field_sum_vec_matches_scalar_fold(p, n):
    ctx = build_field(p, n)
    A = np.array(random.Random(p ** n).choices(range(ctx.q), k=3 * ctx.q))
    for k in (0, 1, 2, len(A)):
        want = 0
        for a in A[:k].tolist():
            want = ctx.add(want, a)
        assert ctx.field_sum_vec(A[:k]) == want


def test_subfield_elements(gf64, gf256):
    assert gf64.subfield_elements(1) == [0, 1]
    sub3 = gf64.subfield_elements(3)
    assert len(sub3) == 8
    assert all(gf64.frobenius(x, 3) == x for x in sub3)
    # closed under multiplication and addition
    for x in sub3:
        for y in sub3:
            assert gf64.mul(x, y) in sub3
            assert gf64.add(x, y) in sub3
    assert len(gf256.subfield_elements(4)) == 16
    with pytest.raises(ValueError):
        gf256.subfield_elements(3)


def test_frobenius(gf16, gf64):
    g = gf16.generator
    for x in range(16):
        assert gf16.frobenius(x, 0) == x
        assert gf16.frobenius(x, 4) == x
    assert gf16.frobenius(g, 2) == gf16.pow(g, 4)
    assert gf64.frobenius(5, -1) == gf64.frobenius(5, 5)


def test_axioms_exhaustive_gf16(gf16):
    q = 16
    for a in range(q):
        for b in range(q):
            assert gf16.add(a, b) == gf16.add(b, a)
            assert gf16.mul(a, b) == gf16.mul(b, a)
            for c in range(q):
                assert gf16.mul(gf16.mul(a, b), c) == gf16.mul(a, gf16.mul(b, c))
                assert gf16.mul(a, gf16.add(b, c)) == \
                    gf16.add(gf16.mul(a, b), gf16.mul(a, c))


def test_axioms_exhaustive_gf256_vectorised(gf256):
    import numpy as np
    q = 256
    B, C = np.meshgrid(np.arange(q, dtype=np.int64),
                       np.arange(q, dtype=np.int64), indexing="ij")
    B, C = B.ravel(), C.ravel()
    bc = gf256.mul_vec(B, C)
    b_plus_c = gf256.add_vec(B, C)
    for a in range(q):
        A = np.full_like(B, a)
        left = gf256.mul_vec(gf256.mul_vec(A, B), C)
        right = gf256.mul_vec(A, bc)
        assert np.array_equal(left, right)
        left = gf256.mul_vec(A, b_plus_c)
        right = gf256.add_vec(gf256.mul_vec(A, B), gf256.mul_vec(A, C))
        assert np.array_equal(left, right)


def test_axioms_random_gf625(gf625):
    rng = random.Random(20240817)
    for _ in range(20000):
        a, b, c = (rng.randrange(625) for _ in range(3))
        assert gf625.add(a, b) == gf625.add(b, a)
        assert gf625.mul(a, b) == gf625.mul(b, a)
        assert gf625.mul(gf625.mul(a, b), c) == gf625.mul(a, gf625.mul(b, c))
        assert gf625.mul(a, gf625.add(b, c)) == \
            gf625.add(gf625.mul(a, b), gf625.mul(a, c))
        assert gf625.add(a, gf625.neg(a)) == 0


def test_log_table_agrees_with_direct_multiplication(gf256, gf625):
    for ctx in (gf256, gf625):
        x = 1
        for i in range(ctx.q - 1):
            assert ctx._log[x] == i
            assert ctx._exp[i] == x
            x = ctx._mul_notable(x, ctx.generator)
        assert x == 1
        # log table is a bijection over nonzero codes
        assert sorted(ctx._exp) == list(range(1, ctx.q))


def _scalar_pow(ctx, a, e):
    acc = 1
    while e:
        if e & 1:
            acc = ctx._mul_notable(acc, a)
        a = ctx._mul_notable(a, a)
        e >>= 1
    return acc


def _prime_divisors(m):
    return [d for d in range(2, m + 1)
            if m % d == 0 and all(d % k for k in range(2, int(d ** 0.5) + 1))]


def walked_tables(ctx):
    """exp/log lists from the table-free multiply: the smallest code of full
    order, then one multiplication by it per element."""
    qm1 = ctx.q - 1
    big = [qm1 // r for r in _prime_divisors(qm1)]
    gen = next(a for a in range(1, ctx.q)
               if all(_scalar_pow(ctx, a, e) != 1 for e in big))
    exp, log = [], [-1] * ctx.q
    x = 1
    for i in range(qm1):
        exp.append(x)
        log[x] = i
        x = ctx._mul_notable(x, gen)
    assert x == 1
    return gen, exp, log


def _irreducible_codes(p, n):
    return [code for code in range(p ** n, 2 * p ** n)
            if brute_is_irreducible(_trim([(code // p ** i) % p
                                           for i in range(n + 1)]), p)]


# p = 2 blocks are multiplied byte by byte: n = 9 and 12 double through
# two-byte tables, and n = 13 and 16 also take block steps, the last partial;
# x^12 + ... + 1 is irreducible but x has order 13 in its field
NONCANONICAL_GF2 = [(2, 12, 0x1fff), (2, 16, 0x1ffed)]
TABLE_CASES = ([(p, n, None) for p, n in [(2, 1), (3, 1), (7, 1), (1021, 1), (2, 8),
                                          (2, 9), (2, 13), (3, 5), (5, 4), (7, 2),
                                          (251, 2)]]
               + NONCANONICAL_GF2
               + [(2, 6, code) for code in _irreducible_codes(2, 6)]
               + [(3, 4, code) for code in _irreducible_codes(3, 4)[-3:]])


@pytest.mark.parametrize("p,n,modulus", TABLE_CASES)
def test_table_build_matches_scalar_walk(p, n, modulus):
    ctx = build_field(p, n, modulus)
    gen, exp, log = walked_tables(ctx)
    assert ctx.generator == gen
    assert ctx._exp.tolist() == exp and ctx._log.tolist()[1:] == log[1:]
    a, b = exp[-1], exp[len(exp) // 2]
    for value in (ctx.generator, ctx._exp[-1], ctx._log[a], ctx.mul(a, b),
                  ctx.pow(a, 5), ctx.inv(a), ctx.log(b), ctx.gen_pow(3),
                  ctx.elements_in_order()[-1]):
        assert type(value) is int


def check_sampled_walk(ctx, seed):
    """The blockwise build against the scalar multiply over its whole first
    block (the scalar walk and the doubling steps), one position either side
    of every later block boundary, and a seeded sample of 4,096 positions."""
    qm1, g, E = ctx.q - 1, ctx.generator, ctx._E
    big = [qm1 // r for r in _prime_divisors(qm1)]
    assert g == next(a for a in range(1, ctx.q)
                     if all(_scalar_pow(ctx, a, e) != 1 for e in big))
    assert int(E[0]) == 1
    starts = range(field.TABLE_BLOCK, qm1, field.TABLE_BLOCK)
    sample = random.Random(seed).sample(range(qm1), 4096)
    for i in [*range(field.TABLE_BLOCK), *(s + d for s in starts for d in (-1, 0, 1)),
              *sample, qm1 - 1]:
        assert int(E[(i + 1) % qm1]) == ctx._mul_notable(int(E[i]), g)
    assert np.array_equal(ctx._L[E], np.arange(qm1))


def test_table_build_matches_sampled_walk_gf1021_2():
    # a full scalar walk of these 10^6 elements takes seconds
    check_sampled_walk(build_field(1021, 2), "walk:1021^2")


def test_table_build_matches_sampled_walk_gf2_20():
    # 256 blocks, each the previous one times g^4096 through three byte tables
    check_sampled_walk(build_field(2, 20), "walk:2^20")


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 8), (2, 10), (3, 5), (7, 2)])
def test_generator_powers_any_block(p, n):
    # fields this small fit in one default block; small blocks exercise the
    # block steps (by matrix, or by byte tables for p = 2) and a short last block
    ctx = build_field(p, n)
    _, exp, _ = walked_tables(ctx)
    for walk, block in [(1, 1), (1, 2), (1, 3), (2, 5), (3, 16), (64, 100), (1, 64)]:
        assert _generator_powers(ctx, walk, block).tolist() == exp


def test_table_cases_cover_the_moduli():
    assert len([c for c in TABLE_CASES if c[:2] == (2, 6)]) == 9
    noncanonical = [c[2] for c in TABLE_CASES if c[:2] == (3, 4)]
    assert len(noncanonical) == 3
    assert _code_of(canonical_modulus(3, 4), 3) not in noncanonical
    for p, n, code in NONCANONICAL_GF2:
        assert is_irreducible(_digits_of(code, p, n + 1), p)
        assert code != _code_of(canonical_modulus(p, n), p)


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2)])
def test_zech_add_vec_exhaustive(p, n):
    ctx = build_field(p, n)
    codes = list(range(ctx.q))
    A, B = (M.ravel() for M in np.meshgrid(codes, codes, indexing="ij"))
    assert ctx.add_vec(A, B).tolist() == [ctx.add(a, b)
                                           for a, b in zip(A.tolist(), B.tolist())]
    assert ctx.neg_vec(np.array(codes)).tolist() == [ctx.neg(a) for a in codes]


def _check_add_vec_random(ctx, rng):
    """add_vec against scalar add on 10^4 seeded pairs, with zero operands
    and b = -a among them; returns the operand arrays."""
    a = [rng.randrange(ctx.q) for _ in range(10 ** 4)]
    b = [rng.randrange(ctx.q) for _ in range(10 ** 4)]
    a[:100] = [0] * 100                     # zero left operand
    b[100:200] = [0] * 100                  # zero right operand
    a[200:250] = b[200:250] = [0] * 50      # both zero
    b[250:750] = [ctx.neg(x) for x in a[250:750]]   # b = -a
    want = [ctx.add(x, y) for x, y in zip(a, b)]
    assert all(type(w) is int for w in want)
    A, B = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert ctx.add_vec(A, B).tolist() == want
    return A, B


def test_zech_add_vec_random_gf5_8():
    ctx = build_field(5, 8)
    A, B = _check_add_vec_random(ctx, random.Random(20261018))
    assert ctx.neg_vec(A).tolist() == [ctx.neg(x) for x in A.tolist()]
    assert not ctx.add_vec(A[250:750], B[250:750]).any()


def test_wrap_reduces_below_twice_m():
    for m in (1, 7, field.TABLE_BOUND - 1):
        x = np.array([0, m - 1, m, 2 * m - 1], dtype=np.int64)
        assert _wrap(x, m) is x
        assert x.tolist() == [0, m - 1, 0, m - 1]


@pytest.mark.parametrize("count", [1, 1024, 1025, 2048, 2049])
def test_progression_matches_remainder(count):
    assert field.PROGRESSION_HEAD == 1024
    for a, e, m in ((0, 2, 2186), (-7, 3, 3124), (5, 2045, 2047), (-2046, 4099, 2047)):
        assert _progression(a, e, count, m).tolist() == \
            (np.arange(a, a + e * count, e) % m).tolist(), (a, e, m)


# q = 2187, 3125 and 2048, all above PROGRESSION_HEAD: the canonical-order
# progression takes one full doubling step and then a partial one, except
# at 2048, where the full step ends it
@pytest.fixture(scope="module", params=[(3, 7), (5, 5), (2, 11)],
                ids=lambda pn: f"{pn[0]}^{pn[1]}")
def mid_field(request):
    return build_field(*request.param)


def test_monomial_vec_above_progression_head(mid_field):
    ctx = mid_field
    q, points = ctx.q, ctx.elements_in_order()
    assert q > field.PROGRESSION_HEAD
    for e in (2, 3, q - 2, q + 3):
        for c in (1, ctx.gen_pow(5)):
            assert ctx.monomial_vec(c, e, 0, q, {}).tolist() == \
                [ctx.mul(c, ctx.pow(x, e)) for x in points], (e, c)


def test_vector_kernels_match_scalar_ops(mid_field):
    """add, scale, mul and neg on 2,000 seeded pairs with zero operands on
    either side, b = -a, and a = 1 against b = -1 (log a + Z = -1 there);
    add_vec also with a scalar on either side, and with the read-only
    points array, which it leaves unchanged."""
    ctx, rng = mid_field, random.Random(f"kernels:{mid_field.q}")
    a = [rng.randrange(ctx.q) for _ in range(2000)]
    b = [rng.randrange(ctx.q) for _ in range(2000)]
    a[:20] = [0] * 20
    b[20:40] = [0] * 20
    a[40:50] = b[40:50] = [0] * 10
    b[50:100] = [ctx.neg(x) for x in a[50:100]]
    a[100], b[100] = 1, ctx.neg(1)
    A, B = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert ctx.add_vec(A, B).tolist() == [ctx.add(x, y) for x, y in zip(a, b)]
    assert ctx.mul_vec(A, B).tolist() == [ctx.mul(x, y) for x, y in zip(a, b)]
    assert ctx.neg_vec(A).tolist() == [ctx.neg(x) for x in a]
    for k in (0, 1, ctx.neg(1), ctx.gen_pow(7)):
        want = [ctx.add(x, k) for x in a]
        assert ctx.add_vec(A, k).tolist() == want and ctx.add_vec(k, A).tolist() == want
        assert ctx.scale_vec(k, A).tolist() == [ctx.mul(k, x) for x in a]
    P = ctx._P.copy()
    values = ctx.monomial_vec(ctx.gen_pow(3), 3, 0, ctx.q, {})
    points = ctx.elements_in_order()
    assert ctx.add_vec(values, ctx._P).tolist() == \
        [ctx.add(int(v), x) for v, x in zip(values, points)]
    assert np.array_equal(ctx._P, P) and not ctx._P.flags.writeable


# 5^7 and 2^17 take more than one KERNEL_BLOCK slice
@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 7), (2, 17)])
def test_vector_kernel_results_are_fresh(p, n):
    """Every kernel returns a new writable int32 array, sharing no memory
    with its operands or the tables, for each of its cases, and leaves its
    operands and the read-only points array as they were."""
    ctx = build_field(p, n)
    A, B, c = ctx.monomial_vec(1, 3, 0, ctx.q, {}), ctx._P, ctx.gen_pow(2)
    A_before, P_before = A.copy(), ctx._P.copy()
    results = {
        "add_vec": ctx.add_vec(A, B), "add_vec scalar": ctx.add_vec(A, c),
        "add_vec zero": ctx.add_vec(0, A), "neg_vec": ctx.neg_vec(A),
        "mul_vec": ctx.mul_vec(A, B), "pow_vec": ctx.pow_vec(A, 3),
        "pow_vec 0": ctx.pow_vec(A, 0)}
    for k in (0, 1, c):
        results[f"scale_vec {k}"] = ctx.scale_vec(k, A)
    for e in (1, 2, ctx.q - 1):
        results[f"monomial_vec {e}"] = ctx.monomial_vec(c, e, 0, ctx.q, {})
    shared = [x for x in (A, ctx._P, ctx._L, ctx._T) if x is not None]
    for name, out in results.items():
        assert out.dtype == np.int32 and out.flags.writeable, name
        assert not any(np.shares_memory(out, x) for x in shared), name
    assert np.array_equal(A, A_before) and A.flags.writeable
    assert np.array_equal(ctx._P, P_before) and not ctx._P.flags.writeable


def slice_starts(ctx):
    """The first position of every KERNEL_BLOCK slice after the first."""
    assert field.KERNEL_BLOCK == 1 << 16
    starts = list(range(field.KERNEL_BLOCK, ctx.q, field.KERNEL_BLOCK))
    assert len(starts) + 1 == SLICED_FIELDS[ctx.p, ctx.n]
    return starts


def zech_add_reference(ctx, A, B):
    """Whole-array a + b = g^(log a + log(1 + b/a)), with 1 + c formed from
    c's constant digit: through the log tables, so it shares no step with
    the digit-group add, and it reads no slices."""
    p, m = ctx.p, ctx.q - 1
    E, L = ctx._E.astype(np.int64), ctx._L.astype(np.int64)
    A, B = np.broadcast_arrays(np.asarray(A, dtype=np.int64),
                               np.asarray(B, dtype=np.int64))
    ratio = E[(L[B] - L[A]) % m]
    one_plus = ratio + np.where(ratio % p == p - 1, 1 - p, 1)
    out = np.where(one_plus == 0, 0, E[(L[A] + L[one_plus]) % m])
    return np.where(A == 0, B, np.where(B == 0, A, out))


def digit_group_table(p, W):
    """T[u * W + v] for u, v < W = p^g: the digit-by-digit sum mod p of u
    and v, by a loop over the digits of the flat index, not the broadcast
    build."""
    idx = np.arange(W * W, dtype=np.int64)
    u, v = idx // W, idx % W
    out, w = np.zeros_like(idx), 1
    while w < W:
        out += (u // w % p + v // w % p) % p * w
        w *= p
    return out


def test_tables_across_slices(sliced_field):
    ctx = sliced_field
    qm1 = ctx.q - 1
    E = ctx._E.astype(np.int64)
    assert ctx._L[ctx._E].tolist() == list(range(qm1))
    assert ctx._P[1:].tolist() == E.tolist() and ctx._P[0] == 0
    if ctx.p != 2:
        # the odd-p add reads the digit-group table: two groups at 5^7 and 3^11
        assert ctx._groups == 2
        assert ctx._T.tolist() == digit_group_table(ctx.p, ctx._group).tolist()


def test_add_vec_across_slice_boundaries(sliced_field):
    """add_vec against the whole-array reference, with each of zero a, zero
    b, both zero, b = -a, and a = 1 with b = -1 placed at the positions
    around every slice boundary and at the first and last; then a scalar
    on either side."""
    ctx, rng = sliced_field, np.random.default_rng(sliced_field.q)
    q = ctx.q
    places = [0, q - 1]
    for lo in slice_starts(ctx):
        places += [lo - 1, lo, lo + 1]
    for case in ("zero a", "zero b", "both zero", "b = -a", "1 + -1"):
        A = rng.integers(0, q, q, dtype=np.int32)
        B = rng.integers(0, q, q, dtype=np.int32)
        for i in places:
            if case == "zero a" or case == "both zero":
                A[i] = 0
            if case == "zero b" or case == "both zero":
                B[i] = 0
            if case == "b = -a":
                B[i] = ctx.neg(int(A[i]))
            if case == "1 + -1":
                A[i], B[i] = 1, ctx.neg(1)
        want = zech_add_reference(ctx, A, B)
        assert [int(want[i]) for i in places] == \
            [ctx.add(int(A[i]), int(B[i])) for i in places], case
        got = ctx.add_vec(A, B)
        assert got.dtype == np.int32 and np.array_equal(got, want), case
    for k in (0, 1, ctx.neg(1), ctx.gen_pow(7)):
        want = zech_add_reference(ctx, A, k)
        assert np.array_equal(ctx.add_vec(A, k), want), k
        assert np.array_equal(ctx.add_vec(k, A), want), k


def test_monomial_vec_across_slice_boundaries(sliced_field):
    """Canonical-order c * x^e against one whole-array gather of the exp
    table: position i + 1 holds c * g^(i e).  Whole, and slice by slice
    from each slice on, with one runs dict: the first slice builds the
    progression at its position, and each later one moves it on in place."""
    ctx = sliced_field
    q, qm1 = ctx.q, ctx.q - 1
    bounds = list(zip([0] + slice_starts(ctx), slice_starts(ctx) + [q]))
    for e in (1, 2, 3, q - 2, q + 3):
        for c in (1, ctx.gen_pow(5)):
            want = np.zeros(q, dtype=np.int64)
            want[1:] = ctx._E[(ctx.log(c) + np.arange(qm1) * e) % qm1]
            got = ctx.monomial_vec(c, e, 0, q, {})
            assert got.dtype == np.int32 and np.array_equal(got, want), (e, c)
            for start in range(len(bounds)):
                runs = {}
                got = np.concatenate([ctx.monomial_vec(c, e, lo, hi, runs)
                                      for lo, hi in bounds[start:]])
                assert np.array_equal(got, want[bounds[start][0]:]), (e, c, start)


# (ADD_TABLE_BOUND or None for the default, p, n, group base, groups):
# several table groups with a short last one (2 + 2 + 1 and 2 + 1 digits),
# two full ones, one-digit groups without a table, a prime field, and one
# table group that holds the whole code
ADD_LAYOUTS = [(81, 3, 5, 9, 3), (625, 5, 3, 25, 2), (81, 3, 4, 9, 2),
               (48, 7, 3, 7, 3), (None, 11, 1, 11, 1), (None, 3, 4, 81, 1)]


@pytest.mark.parametrize("bound,p,n,W,k", ADD_LAYOUTS,
                         ids=lambda v: str(v) if v is not None else "default")
def test_add_vec_exhaustive_across_group_layouts(monkeypatch, bound, p, n, W, k):
    """add_vec against the scalar digit loop ctx.add on every pair of codes,
    for each shape the digit groups take; a small ADD_TABLE_BOUND gives
    small fields the group layouts of large ones."""
    if bound is not None:
        monkeypatch.setattr(field, "ADD_TABLE_BOUND", bound)
    ctx = build_field(p, n)
    assert (ctx._group, ctx._groups) == (W, k)
    assert (ctx._T is None) == (W == p)
    if ctx._T is not None:
        assert ctx._T.tolist() == digit_group_table(p, W).tolist()
    codes = np.arange(ctx.q, dtype=np.int32)
    A, B = np.repeat(codes, ctx.q), np.tile(codes, ctx.q)
    got = ctx.add_vec(A, B)
    assert got.dtype == np.int32
    assert got.tolist() == [ctx.add(a, b) for a, b in zip(A.tolist(), B.tolist())]


# fields whose add has a short last table group (3^7: 4 + 3 digits, 5^5:
# 3 + 2), one-digit groups without a table (37^2), a prime field past 2^20,
# and 5^10, where a * W + b for the lowest group passes 2^32
@pytest.fixture(scope="module", params=[(3, 7, 81, 2), (5, 5, 125, 2), (37, 2, 37, 2),
                                        (1048583, 1, 1048583, 1), (5, 10, 625, 3)],
                ids=lambda v: f"{v[0]}^{v[1]}")
def add_layout_field(request):
    p, n, W, k = request.param
    ctx = build_field(p, n)
    assert (ctx._group, ctx._groups) == (W, k)
    return ctx


def test_add_vec_matches_scalar_add(add_layout_field):
    """add_vec against scalar ctx.add on seeded pairs across two slice
    boundaries: random codes, codes whose digits are all high (every group
    sum wraps), zeros, b = -a and a = b; then each scalar on either side."""
    ctx, rng = add_layout_field, random.Random(f"digit-add:{add_layout_field.q}")
    q, size = ctx.q, 2 * field.KERNEL_BLOCK + 300
    A = np.array([rng.randrange(q) for _ in range(size)], dtype=np.int32)
    B = np.array([rng.randrange(q) for _ in range(size)], dtype=np.int32)
    high = [q - 1 - rng.randrange(min(q, 64)) for _ in range(600)]
    A[:600], B[300:900] = high, high
    B[900:1000] = A[1000:1100] = 0
    for lo in (field.KERNEL_BLOCK, 2 * field.KERNEL_BLOCK):
        B[lo - 50:lo + 50] = [ctx.neg(int(a)) for a in A[lo - 50:lo + 50]]
        B[lo + 50:lo + 100] = A[lo + 50:lo + 100]
        A[lo - 100:lo - 50] = high[:50]
    got = ctx.add_vec(A, B)
    assert got.dtype == np.int32
    places = sorted(set(range(1200)) | set(rng.sample(range(size), 2000))
                    | {i for lo in (field.KERNEL_BLOCK, 2 * field.KERNEL_BLOCK)
                       for i in range(lo - 100, lo + 100)})
    assert [int(got[i]) for i in places] == [ctx.add(int(A[i]), int(B[i])) for i in places]
    assert not got[field.KERNEL_BLOCK - 50:field.KERNEL_BLOCK + 50].any()
    sample = A[field.KERNEL_BLOCK - 200:field.KERNEL_BLOCK + 200]
    for k in (0, 1, q - 1, ctx.neg(1), ctx.gen_pow(7), high[0]):
        want = [ctx.add(int(a), k) for a in sample]
        assert ctx.add_vec(sample, k).tolist() == want, k
        assert ctx.add_vec(k, sample).tolist() == want, k
        assert ctx.add_vec(A, k)[field.KERNEL_BLOCK - 200:field.KERNEL_BLOCK + 200].tolist() \
            == want, k


@pytest.mark.parametrize("p,n", [(2, 6), (2, 17), (5, 4), (3, 7), (37, 2)])
def test_kernels_return_int32_for_any_integer_operands(p, n):
    """Each kernel gives the same int32 array for int64, uint16 and int32
    operands, at either characteristic."""
    ctx = build_field(p, n)
    A32, B32, c = ctx.monomial_vec(1, 3, 0, ctx.q, {}), ctx._P.copy(), ctx.gen_pow(2)

    def kernels(A, B):
        return {"add_vec": ctx.add_vec(A, B), "add_vec scalar": ctx.add_vec(A, c),
                "add_vec scalar first": ctx.add_vec(c, B), "neg_vec": ctx.neg_vec(A),
                "mul_vec": ctx.mul_vec(A, B), "pow_vec": ctx.pow_vec(A, 3),
                "pow_vec 0": ctx.pow_vec(A, 0), "scale_vec": ctx.scale_vec(c, A),
                "scale_vec 0": ctx.scale_vec(0, A)}
    want = kernels(A32, B32)
    dtypes = (np.int64, np.uint16) if ctx.q <= 1 << 16 else (np.int64,)
    for dtype in dtypes:
        for name, got in kernels(A32.astype(dtype), B32.astype(dtype)).items():
            assert got.dtype == np.int32, (name, dtype)
            assert np.array_equal(got, want[name]), (name, dtype)


def test_table_bound_boundary(monkeypatch):
    assert field.TABLE_BOUND == 1 << 24
    assert len(build_field(2, 21)._P) == 1 << 21 and len(build_field(3, 13)._P) == 3 ** 13
    for p, n in ((2, 25), (3, 16)):
        with pytest.raises(ValueError, match=rf"^GF\({p}\^{n}\) is out of scope"):
            build_field(p, n)
    # q equal to the bound builds, with tables; the next power of p is refused
    monkeypatch.setattr(field, "TABLE_BOUND", 1 << 10)
    assert len(build_field(2, 10)._P) == 1 << 10
    with pytest.raises(ValueError, match=r"limited to q <= 2\^10$"):
        build_field(2, 11)


@pytest.fixture(scope="module", params=[(2, 20), (2, 21), (3, 13)],
                ids=lambda pn: f"{pn[0]}^{pn[1]}")
def big_field(request):
    return build_field(*request.param)


def test_tables_match_scalar_arithmetic_near_old_bound(big_field):
    ctx, rng = big_field, random.Random(f"scalar:{big_field.q}")
    qm1, g = ctx.q - 1, ctx.generator
    for i in rng.sample(range(qm1), 200):
        assert int(ctx._E[(i + 1) % qm1]) == ctx._mul_notable(int(ctx._E[i]), g)
    for _ in range(100):
        a, b = rng.randrange(1, ctx.q), rng.randrange(1, ctx.q)
        k = rng.randrange(-(1 << 50), 1 << 50)
        results = (ctx.mul(a, b), ctx.pow(a, k), ctx.pow(a, 1 << 41), ctx.inv(a),
                   ctx.gen_pow(k), ctx.log(a))
        assert all(type(r) is int for r in results)
        prod, power, big_power, inverse, gen_power, log = results
        assert prod == ctx._mul_notable(a, b)
        assert power == _scalar_pow(ctx, a, k % qm1)
        assert big_power == _scalar_pow(ctx, a, (1 << 41) % qm1)
        assert ctx._mul_notable(a, inverse) == 1
        assert gen_power == _scalar_pow(ctx, g, k % qm1)
        assert 0 <= log < qm1 and _scalar_pow(ctx, g, log) == a


# On these fields log x * e passes 2^31 for the exponents below, so an int32
# product would wrap; the kernels must form it in int64
@pytest.fixture(scope="module", params=[(2, 20), (5, 8)],
                ids=lambda pn: f"{pn[0]}^{pn[1]}")
def wide_product_field(request):
    return build_field(*request.param)


def test_tables_are_read_only_int32(wide_product_field):
    ctx = wide_product_field
    tables = (ctx._P, ctx._E, ctx._L)
    assert all(t.dtype == np.int32 and not t.flags.writeable for t in tables)
    if ctx.p != 2:      # digit-group sums are below p^g <= 2^10
        assert ctx._T.dtype == np.uint16 and not ctx._T.flags.writeable
    a = ctx.gen_pow(ctx.q - 2)
    assert type(a) is int and type(ctx.log(a)) is int and ctx.log(a) == ctx.q - 2
    assert ctx.format_element(a) == f"g^{ctx.q - 2}"


def test_kernels_past_int32_log_products(wide_product_field):
    """pow_vec, monomial_vec, evaluate_all, scale_vec, mul_vec, add_vec and
    _progression on 4,096 sampled points against the scalar evaluate and
    ctx.pow, at exponents whose products with the logs pass 2^31."""
    ctx, rng = wide_product_field, random.Random(f"wide:{wide_product_field.q}")
    q, qm1 = ctx.q, ctx.q - 1
    points = [0, 1, ctx.gen_pow(qm1 - 1)] + rng.sample(range(2, q), 4093)
    A = np.array(points, dtype=np.int32)
    positions = [0 if a == 0 else ctx.log(a) + 1 for a in points]
    c = ctx.gen_pow(rng.randrange(qm1))
    assert (qm1 - 1) * (q - 2) >= 1 << 31
    for e in (q - 2, -(q - 2), (1 << 62) - 1, 3 * qm1):
        f = CompositePoly(((c, SparsePoly(X_TERMS), e),))
        want = [evaluate(ctx, f, a) for a in points]
        powers = [ctx.pow(a, e) for a in points]
        results = {
            "pow_vec": (ctx.pow_vec(A, e), powers),
            "monomial_vec": (ctx.monomial_vec(c, e, 0, q, {})[positions], want),
            "evaluate_all": (evaluate_all(ctx, f)[positions], want),
        }
        P = results["pow_vec"][0]
        results["scale_vec"] = (ctx.scale_vec(c, P), [ctx.mul(c, x) for x in powers])
        results["mul_vec"] = (ctx.mul_vec(A, P), [ctx.mul(a, x) for a, x in zip(points, powers)])
        results["add_vec"] = (ctx.add_vec(A, P), [ctx.add(a, x) for a, x in zip(points, powers)])
        for name, (got, expected) in results.items():
            assert got.dtype == np.int32, (name, e)
            assert got.tolist() == expected, (name, e)
    steps = rng.sample(range(q), 4096)
    for e in (q - 2, ((1 << 62) - 1) % qm1):
        a = rng.randrange(qm1) - e
        got = _progression(a, e, q, qm1)
        assert got[steps].tolist() == [(a + i * e) % qm1 for i in steps], e


def test_zech_add_vec_random_gf3_13():
    _check_add_vec_random(build_field(3, 13), random.Random(20261019))


def test_table_pow_agrees_with_square_and_multiply(gf256):
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randrange(1, 256)
        e = rng.randrange(-300, 300)
        acc, base, ee = 1, a, e % 255
        while ee:
            if ee & 1:
                acc = gf256._mul_notable(acc, base)
            base = gf256._mul_notable(base, base)
            ee >>= 1
        assert gf256.pow(a, e) == acc


def test_elements_in_order(gf64):
    order = gf64.elements_in_order()
    assert order[0] == 0 and order[1] == 1
    assert len(order) == 64 and len(set(order)) == 64


def test_element_text(gf64, gf625):
    g = gf64.generator
    assert gf64.parse_element("0") == 0
    assert gf64.parse_element("1") == 1
    assert gf64.parse_element("g") == g
    assert gf64.parse_element("g^10") == gf64.pow(g, 10)
    assert gf64.parse_element("g^-1") == gf64.inv(g)
    assert gf64.parse_element("0b101") == 5
    assert gf64.parse_element("0x2f") == 0x2F
    assert gf625.parse_element("0x3") == 3
    for a in range(64):
        assert gf64.parse_element(gf64.format_element(a)) == a
    with pytest.raises(ValueError):
        gf64.parse_element("0x40")  # code 64 out of range
    with pytest.raises(ValueError):
        gf64.parse_element("7")
    with pytest.raises(ValueError):
        gf64.parse_element("g^")


@pytest.mark.parametrize("text, message", [
    ("0x_1", "bad packed element literal"), ("0b1_0", "bad packed element literal"),
    ("0x", "bad packed element literal"), ("0x-1", "bad packed element literal"),
    ("0x 1", "bad packed element literal"), ("0b2", "bad packed element literal"),
    ("g^1_0", "bad generator power"), ("g^+3", "bad generator power"),
    ("g^ 3", "bad generator power"), ("g^-", "bad generator power"),
    ("g^--3", "bad generator power"), ("g^3 ", None), ("g^²", "bad generator power"),
    ("g^99999999999999999999999", "exceeds 2\\^62"),
    ("g^-99999999999999999999999", "exceeds 2\\^62"),
    ("g^" + "9" * 5000, "exceeds 2\\^62"),
])
def test_element_text_reads_exponents_as_polynomial_text_does(gf64, text, message):
    """parse_element takes the digits poly._power takes, with the same
    bound: no sign but a leading '-', no space or underscore, at most
    MAX_EXPONENT; packed codes are hex or binary digits only.  Surrounding
    space is stripped."""
    if message is None:
        assert gf64.parse_element(text) == gf64.gen_pow(3)
        return
    with pytest.raises(ValueError, match=message):
        gf64.parse_element(text)


def test_element_exponent_bound_is_the_polynomial_bound(gf64):
    from permupoly import poly
    assert poly.MAX_EXPONENT is field.MAX_EXPONENT == 1 << 62
    top = field.MAX_EXPONENT
    assert gf64.parse_element(f"g^{top}") == gf64.gen_pow(top)
    assert gf64.parse_element(f"g^-{top}") == gf64.gen_pow(-top)
    assert poly.parse_poly(gf64, f"g^{top}*x") == poly.parse_poly(gf64, f"g^{top % 63}*x")
    for text in (f"g^{top + 1}", f"g^-{top + 1}"):
        with pytest.raises(ValueError, match="exceeds"):
            gf64.parse_element(text)
        with pytest.raises(poly.PolyParseError, match="exponent overflow"):
            poly.parse_poly(gf64, f"{text}*x")


def test_field_descriptor():
    assert parse_field_descriptor("2^6") == (2, 6, None)
    assert parse_field_descriptor("5^4") == (5, 4, None)
    assert parse_field_descriptor("2^6:modulus=0x43") == (2, 6, 0x43)
    assert parse_field_descriptor("7") == (7, 1, None)
    with pytest.raises(ValueError):
        parse_field_descriptor("2^x")
    with pytest.raises(ValueError):
        parse_field_descriptor("2^4:foo=1")


# the descriptor grammar: p and n are decimal digits, the modulus a packed code
DESCRIPTOR = re.compile(r"(\d+)(?:\^(\d+))?(?::modulus=0([xX][0-9a-fA-F]+|[bB][01]+))?")


@pytest.mark.parametrize("text, want", [
    ("2^22", (2, 22, None)), ("2^24", (2, 24, None)), ("3^15", (3, 15, None)),
    ("4093^2", (4093, 2, None)), ("5^10", (5, 10, None)), ("2^6:modulus=0x6d", (2, 6, 0x6d)),
    ("2^6:modulus=0xc3", (2, 6, 0xc3)), ("3^2:modulus=0b1010", (3, 2, 10)),
    (" 2^4 ", (2, 4, None)),
])
def test_field_descriptor_well_formed(text, want):
    assert parse_field_descriptor(text) == want


@pytest.mark.parametrize("text, message", [
    ("2^1_6", "bad field descriptor '2^1_6': expected p^n with decimal p and n"),
    ("+2^4", "bad field descriptor '+2^4': expected p^n with decimal p and n"),
    ("2^+4", "bad field descriptor '2^+4': expected p^n with decimal p and n"),
    ("2^-4", "bad field descriptor '2^-4': expected p^n with decimal p and n"),
    ("2^", "bad field descriptor '2^': expected p^n with decimal p and n"),
    ("2^²", "bad field descriptor '2^²': expected p^n with decimal p and n"),
    ("2^4:modulus=19", "bad modulus '19': expected a packed 0x.. or 0b.. code"),
    ("2^4:modulus=0x1_3", "bad modulus '0x1_3': expected a packed 0x.. or 0b.. code"),
    ("2^4:modulus=0o23", "bad modulus '0o23': expected a packed 0x.. or 0b.. code"),
    ("2^" + "9" * 5000, f"field descriptor n {'9' * 5000} exceeds 2^62"),
])
def test_field_descriptor_malformed(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_field_descriptor(text)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789^:=modulusxXbB_+- abcdef", max_size=24))
def test_field_descriptor_accepts_only_its_grammar(text):
    """What parses matches the grammar and reads as int() reads it; what
    matches the grammar parses, numbers above MAX_EXPONENT aside."""
    m = DESCRIPTOR.fullmatch(text.strip())
    want = m and (int(m[1]), int(m[2] or 1), int("0" + m[3], 0) if m[3] else None)
    try:
        got = parse_field_descriptor(text)
    except ValueError:
        assert not want or max(want[:2]) > field.MAX_EXPONENT, text
        return
    assert got == want, text


@pytest.mark.parametrize("text, code", [
    ("0x13", 0x13), ("0X1f", 0x1f), ("0b101", 5), ("0B0", 0),
    ("0x", None), ("0b2", None), ("0x_1", None), ("0x1_3", None), ("19", None),
    ("-0x13", None), (" 0x13", None), ("0o17", None), ("", None)])
def test_read_packed(text, code):
    assert field.read_packed(text) == code


@pytest.mark.parametrize("text, value", [("0", 0), ("17", 17), ("-1", -1), ("007", 7),
                                         (str(field.MAX_EXPONENT), field.MAX_EXPONENT)])
def test_read_integer(text, value):
    assert field.read_integer(text, "--k") == value


@pytest.mark.parametrize("text", ["", "-", "1_0", "+3", " 3", "3 ", "0x5", "1e2", "--1", "²"])
def test_read_integer_refuses(text):
    with pytest.raises(ValueError, match=f"^bad --k {re.escape(repr(text))}: "
                                         "expected decimal digits$"):
        field.read_integer(text, "--k")


def test_no_table_field(monkeypatch):
    # there is no table-free field: GF(2^27) is refused before a modulus search
    def refuse(*args):
        raise AssertionError("searched for a modulus above the bound")

    monkeypatch.setattr(field, "canonical_modulus", refuse)
    with pytest.raises(ValueError, match=r"^GF\(2\^27\) is out of scope: "
                                         r"fields are limited to q <= 2\^24$"):
        build_field(2, 27)


def test_rabin_gf2_matches_tuple_path():
    """The packed-int test for p = 2 against the tuple path, on every monic
    polynomial of degree 1..11 (4,094 codes), and the per-degree counts
    against Gauss's formula."""
    mobius = {1: 1, 2: -1, 3: -1, 5: -1, 6: 1, 7: -1, 10: 1, 11: -1}
    for n in range(1, 12):
        count = 0
        for code in range(1 << n, 1 << (n + 1)):
            f = _digits_of(code, 2, n + 1)
            want = n == 1 or (f[0] != 0 and _rabin_tuples(f, 2))
            got = is_irreducible(f, 2)
            assert got == want, hex(code)
            count += got
        gauss = sum(mobius.get(d, 0) * 2 ** (n // d)
                    for d in range(1, n + 1) if n % d == 0) // n
        assert count == gauss, n


def trial_division_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_prime_factors_match_trial_division():
    rng = random.Random(61)
    cases = [rng.randrange(2, 1 << 32) for _ in range(50)]
    cases += [(1 << 20) + 7, 1048583 * 1048589, 2 ** 31 - 1, 4294967291, 1, 2]
    for n in cases:
        assert _prime_factors(n) == trial_division_factors(n), n


@pytest.mark.parametrize("n", [61, 67])
def test_large_char2_field_builds(monkeypatch, n):
    # GF(2^n) above the bound is refused at once; q - 1 is never factored
    def refuse(*args):
        raise AssertionError("factored an integer above the bound")

    monkeypatch.setattr(field, "_prime_factors", refuse)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^GF\(2\^{n}\) is out of scope"):
        build_field(2, n)
    assert time.perf_counter() - t0 < 1


def sympy_galoistools():
    """sympy's GF(p)[x] arithmetic, which shares no code with field.py;
    its coefficient lists run highest first, field.py's digits lowest first."""
    pytest.importorskip("sympy")
    from sympy.polys import galoistools
    from sympy.polys.domains import ZZ
    return galoistools, ZZ


@pytest.mark.parametrize("p,max_degree", [(2, 8), (3, 4), (5, 4)])
def test_is_irreducible_matches_sympy(p, max_degree):
    gt, ZZ = sympy_galoistools()
    for n in range(1, max_degree + 1):
        for t in range(p ** n):
            f = _digits_of(t, p, n) + (1,)
            assert is_irreducible(f, p) == gt.gf_irreducible_p(list(reversed(f)), p, ZZ), f


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 4)])
def test_mul_matches_sympy(p, n):
    gt, ZZ = sympy_galoistools()
    ctx = build_field(p, n)
    modulus = list(reversed(ctx.modulus))
    rng = random.Random(f"sympy-mul:{p}^{n}")
    for _ in range(2000):
        a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
        product = gt.gf_rem(gt.gf_mul(list(reversed(_digits_of(a, p, n))),
                                      list(reversed(_digits_of(b, p, n))), p, ZZ),
                            modulus, p, ZZ)
        assert ctx.mul(a, b) == _code_of(list(reversed(product)), p), (a, b)


# sizes the brute-force minimality test cannot reach
@pytest.mark.parametrize("p,n", [(2, 16), (2, 20), (2, 24), (3, 15), (5, 10),
                                 (7, 7), (1021, 2)])
def test_canonical_modulus_matches_sympy(p, n):
    gt, ZZ = sympy_galoistools()
    mod = canonical_modulus(p, n)
    assert gt.gf_irreducible_p(list(reversed(mod)), p, ZZ)
    for t in range(_code_of(mod, p) - p ** n):
        f = _digits_of(t, p, n) + (1,)
        assert not gt.gf_irreducible_p(list(reversed(f)), p, ZZ), f
