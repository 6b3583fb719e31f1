import dataclasses
import hashlib
import random
import re
import time

import pytest

from permupoly import (FamilyParams, build_field, enumerate_params, evaluate,
                       evaluate_all, field_for_family, is_permutation,
                       kernel_is_trivial, make_family, parse_poly,
                       proof_identity_check, scan_sufficiency, to_text,
                       unit_circle)
from permupoly import families
from permupoly.families import check_enumeration_guard, iter_family


@pytest.fixture(scope="module")
def p1_ctx():
    return field_for_family("P1", {"m": 2, "k": 3})


def params_for(family, ctx, **kw):
    return FamilyParams(family=family, ctx=ctx, **kw)


# -- construction fixtures: each family matches its hand-written text --------

def test_p1_matches_text(p1_ctx):
    ctx = p1_ctx
    b, delta = ctx.gen_pow(1), ctx.gen_pow(3)
    poly, checklist = make_family(params_for("P1", ctx, m=2, k=3, b=b, delta=delta))
    c = ctx.pow(b, 48)
    text = f"(g^1*x + g^3)^5 + x^4 + {ctx.format_element(c)}*x"
    ref = parse_poly(ctx, text)
    for x in range(64):
        assert evaluate(ctx, poly, x) == evaluate(ctx, ref, x)
    assert checklist.all_true()
    assert checklist.entry("c = b^(1-2^(2m))").ok


def test_p2_matches_text(gf64):
    delta = gf64.subfield_elements(3)[2]
    b = gf64.subfield_elements(3)[3]
    poly, checklist = make_family(params_for("P2", gf64, m=3, s=6, b=b, delta=delta))
    text = (f"(x^8 + x + {gf64.format_element(delta)})^57 + "
            f"{gf64.format_element(b)}*x")
    ref = parse_poly(gf64, text)
    for x in range(64):
        assert evaluate(gf64, poly, x) == evaluate(gf64, ref, x)
    assert checklist.satisfied()
    assert not checklist.entry("(2^m+2)(-s) = 2^m-1 (mod 2^(2m)-1)").ok
    assert not checklist.all_true()


def test_p3_matches_text(gf256):
    bprime = next(x for x in unit_circle(gf256) if x != 1)
    # pick b with b^30 * bprime^3 = 1 and b outside GF(16)
    target = gf256.inv(gf256.pow(bprime, 3))
    b = next(x for x in range(1, 256)
             if gf256.pow(x, 30) == target and not gf256.in_subfield(4, x))
    poly, checklist = make_family(params_for("P3", gf256, m=4, bprime=bprime, b=b))
    text = (f"x^32 + {gf256.format_element(bprime)}*x^2 + "
            f"{gf256.format_element(b)}*x")
    ref = parse_poly(gf256, text)
    for x in range(256):
        assert evaluate(gf256, poly, x) == evaluate(gf256, ref, x)
    assert checklist.satisfied()


def test_p4_matches_text(gf625):
    a = gf625.gen_pow(2)
    poly, checklist = make_family(params_for("P4", gf625, q=5, e=4, r=151, a=a))
    ref = parse_poly(gf625, f"x^155 + {gf625.format_element(a)}*x^151")
    for x in range(625):
        assert evaluate(gf625, poly, x) == evaluate(gf625, ref, x)
    assert checklist.satisfied()
    poly1, _ = make_family(params_for("P4", gf625, q=5, e=4, r=1, a=a))
    ref1 = parse_poly(gf625, f"x^5 + {gf625.format_element(a)}*x")
    for x in range(625):
        assert evaluate(gf625, poly1, x) == evaluate(gf625, ref1, x)


def test_p5_matches_text(gf256):
    delta = next(d for d in range(256) if gf256.relative_trace(4, d) != 0)
    b = next(x for x in range(256) if not gf256.in_subfield(4, x))
    poly, _ = make_family(params_for("P5", gf256, m=4, b=b, delta=delta))
    text = (f"(x^16 + x + {gf256.format_element(delta)})^136 + "
            f"{gf256.format_element(b)}*x")
    ref = parse_poly(gf256, text)
    for x in range(256):
        assert evaluate(gf256, poly, x) == evaluate(gf256, ref, x)


def test_p6_matches_text(gf256):
    delta = next(d for d in range(256) if gf256.relative_trace(1, d) == 1)
    b = gf256.subfield_elements(4)[5]
    poly, checklist = make_family(params_for("P6", gf256, k=4, b=b, delta=delta))
    text = (f"(x^2 + x + {gf256.format_element(delta)})^120 + "
            f"{gf256.format_element(b)}*x")
    ref = parse_poly(gf256, text)
    for x in range(256):
        assert evaluate(gf256, poly, x) == evaluate(gf256, ref, x)
    assert checklist.satisfied()


# -- checklist behaviour ------------------------------------------------------

def test_p5_flags_bad_delta(gf256):
    delta = next(d for d in range(256) if gf256.relative_trace(4, d) == 0)
    b = next(x for x in range(256) if not gf256.in_subfield(4, x))
    _, checklist = make_family(params_for("P5", gf256, m=4, b=b, delta=delta))
    assert not checklist.entry("Tr_m^(2m)(delta) != 0").ok
    assert not checklist.satisfied()


def test_p4_flags_bad_norm(gf625):
    a = gf625.gen_pow(4)  # a^156 = 1 = (-1)^4
    _, checklist = make_family(params_for("P4", gf625, q=5, e=4, r=151, a=a))
    assert not checklist.entry("norm(a) != (-1)^e").ok
    assert not checklist.satisfied()


def test_p1_explicit_c_mismatch(p1_ctx):
    ctx = p1_ctx
    b = ctx.gen_pow(1)
    _, checklist = make_family(
        params_for("P1", ctx, m=2, k=3, b=b, delta=0, c=ctx.gen_pow(5)))
    assert not checklist.entry("c = b^(1-2^(2m))").ok


def test_p1_degenerate_c_is_reported_not_gating(p1_ctx):
    # b = g^21 gives c = b^48 = 1, violating the stated c-range while the
    # polynomial still permutes
    ctx = p1_ctx
    b = ctx.gen_pow(21)
    poly, checklist = make_family(params_for("P1", ctx, m=2, k=3, b=b, delta=0))
    assert ctx.pow(b, 48) == 1
    entry = checklist.entry("c not in F_2")
    assert not entry.ok and not entry.gating
    assert checklist.satisfied() and not checklist.all_true()
    assert is_permutation(ctx, poly).permutation


def test_param_validation(p1_ctx, gf64, gf16):
    with pytest.raises(ValueError, match="requires parameter"):
        make_family(FamilyParams(family="P1", ctx=p1_ctx, m=2, k=3, b=2))
    with pytest.raises(ValueError, match="does not take"):
        make_family(FamilyParams(family="P1", ctx=p1_ctx, m=2, k=3, b=2,
                                 delta=0, a=1))
    with pytest.raises(ValueError, match="not in GF"):
        make_family(FamilyParams(family="P2", ctx=gf64, m=3, s=6, b=64, delta=0))
    with pytest.raises(ValueError, match="lives in"):
        make_family(FamilyParams(family="P2", ctx=gf16, m=3, s=6, b=2, delta=0))
    with pytest.raises(ValueError, match="unknown family"):
        make_family(FamilyParams(family="P9", ctx=gf64))
    with pytest.raises(ValueError, match="prime power"):
        make_family(FamilyParams(family="P4", ctx=gf64, q=6, e=2, r=1, a=1))
    with pytest.raises(ValueError, match="prime power"):
        make_family(FamilyParams(family="P4", ctx=gf64, q=1, e=2, r=1, a=1))


def test_param_validation_messages(gf64, gf256):
    def rejects(ctx, message, **kw):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            params_for("P6", ctx, **kw)

    g64, g256 = repr(gf64), repr(gf256)
    rejects(gf256, "P6 requires parameter delta", k=4, b=1)
    rejects(gf256, "P6 does not take parameter m", k=4, b=1, delta=0, m=2)
    rejects(gf256, f"element parameter b=256 is not in {g256}", k=4, b=256, delta=0)
    rejects(gf64, f"element parameter b=64 is not in {g64}", k=3, b=64, delta=0)
    rejects(gf256, f"element parameter delta=1.0 is not in {g256}",
            k=4, b=1, delta=1.0)
    # two shapes of one family back to back: each tuple's field shape comes
    # from its own integer parameters, and a stale shape would let these pass
    make_family(params_for("P6", gf64, k=3, b=1, delta=0))
    rejects(gf64, f"P6 with {{'k': 4}} lives in GF(2^8), not {g64}",
            k=4, b=1, delta=0)
    make_family(params_for("P6", gf256, k=4, b=1, delta=0))
    rejects(gf256, f"P6 with {{'k': 3}} lives in GF(2^6), not {g256}",
            k=3, b=1, delta=0)
    # equal to 3, but not an int
    for k in (3.0, [3]):
        rejects(gf64, "P6 parameter k must be a positive integer",
                k=k, b=1, delta=0)


# every entry point names an unknown family in the one text
@pytest.mark.parametrize("call", [
    lambda ctx: make_family(FamilyParams(family="P9", ctx=ctx)),
    lambda ctx: field_for_family("P9", {"m": 3}),
    lambda ctx: next(iter_family("P9", {"m": 3}, ctx=ctx)),
    lambda ctx: check_enumeration_guard("P9", {"m": 3}),
    lambda ctx: scan_sufficiency("P9", {"m": 3}, ctx=ctx),
], ids=["make_family", "field_for_family", "iter_family",
        "check_enumeration_guard", "scan_sufficiency"])
def test_unknown_family_text(gf64, call):
    with pytest.raises(ValueError, match="^unknown family 'P9'$"):
        call(gf64)


# -- the per-field memo of terms and clauses ---------------------------------

# Each case scans several parameter sets over one field, so a memo key that
# left out a field parameter (P1's m and k share GF(2^6), P4's q and e share
# GF(5^2) and GF(3^3)) would hand one set's clauses to another.  The sha256
# is of the repr of every (params, poly, checklist) yielded, pinned from the
# construction before the memo, which built every tuple from scratch.
MEMO_SCANS = [
    ("P1", [{"m": 2, "k": 3}, {"m": 3, "k": 2}],
     "00ed56086ff383b2cd94b434c94d03a75620ebebe1bb02ce5be02a2c23874b83"),
    ("P2", [{"m": 3, "s": 6}, {"m": 3, "s": 5}],
     "9ae8e77556cedea7bc467425ec3442a20be323815bbac95aee5ba44b3a16699c"),
    ("P3", [{"m": 2}],
     "c876339e8f3d253a5c60f0ece0756a33c58148d285b66602341fb9254505219c"),
    ("P4", [{"q": 5, "e": 2}, {"q": 25, "e": 1}],
     "4b7dd22ae84ebd1f018d6ebc1197b1045cd3bf9553a3ae54ce585960f2ab9d9c"),
    ("P4", [{"q": 3, "e": 3}, {"q": 27, "e": 1}],
     "5a42b53b7921d52cf546f3759e0f8fda24dec10b38d707c4d3d02378908a10e5"),
    ("P5", [{"m": 2}],
     "3a9a9a5e17ae5d55bfa85f40f6083f28c114984e9310fa34d244b0eec3267250"),
    ("P5", [{"m": 3}],
     "6725e9191f0aa518b1c671db26198003cb88c24fb66ef3b94c45bb31b06a0400"),
    ("P6", [{"k": 2}],
     "bf37aa2fc31412e84e17b2e1ababb8af16d88d401bdde24c2ea14770864f7fbc"),
    ("P6", [{"k": 3}],
     "42b7399d729f60e5b8e9894b8f190e25f4ac4c3d3604e8200c0be52d5a95db44"),
]


def memo_scan(family, field_params_list, ctx):
    """Every (params, poly, checklist) of the scans, in order, over ctx."""
    return [t for fp in field_params_list
            for t in iter_family(family, fp, ctx=ctx)]


def scan_digest(tuples):
    text = "\n".join(repr((params.to_dict(), poly, checklist))
                     for params, poly, checklist in tuples)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family, field_params_list, digest", MEMO_SCANS,
                         ids=["P1", "P2", "P3", "P4-5^2", "P4-3^3", "P5-m2",
                              "P5-m3", "P6-k2", "P6-k3"])
def test_memo_matches_cold_build(monkeypatch, family, field_params_list, digest):
    warm = field_for_family(family, field_params_list[0])
    tuples = memo_scan(family, field_params_list, warm)
    assert scan_digest(tuples) == digest
    if family == "P1":      # c not given, and c other than b^(1-2^(2m))
        tuples += [(params, *make_family(params)) for params in (
            params_for("P1", warm, m=2, k=3, b=b, c=c, delta=warm.gen_pow(3))
            for b in (0, 1, warm.gen_pow(5)) for c in (None, 0, 1, b))]
    assert 0 < len(warm._parts) <= families.PART_MEMO_ENTRIES
    # the reference: a fresh field of the same modulus whose memo stores
    # nothing, so every call builds from scratch
    cold = build_field(warm.p, warm.n, warm.modulus_code)
    monkeypatch.setattr(families, "PART_MEMO_ENTRIES", 0)
    for params, poly, checklist in tuples:
        cold_build = make_family(dataclasses.replace(params, ctx=cold))
        assert (poly, checklist) == make_family(params) == cold_build
    assert cold._parts == {}


def test_memo_is_per_field():
    # the same codes name different elements under another modulus
    one, other = build_field(2, 6, 0x43), build_field(2, 6, 0x5b)
    built = {ctx: [make_family(params_for("P6", ctx, k=3, b=b, delta=d))
                   for b in range(1, 64) for d in range(64)]
             for ctx in (one, other)}
    assert built[one] != built[other]
    assert one._parts and other._parts and one._parts is not other._parts
    for ctx in (one, other):
        cold = build_field(2, 6, ctx.modulus_code)
        assert built[ctx] == [make_family(params_for("P6", cold, k=3, b=b, delta=d))
                              for b in range(1, 64) for d in range(64)]


def test_invalid_params_raise_the_same_with_a_warm_memo(gf16):
    def message(ctx, **kw):
        with pytest.raises(ValueError) as info:
            params_for("P6", ctx, **kw)
        return str(info.value)

    warm = build_field(2, 6)
    list(iter_family("P6", {"k": 3}, ctx=warm))
    cold = build_field(2, 6)
    g64 = repr(warm)
    for kwargs, text in [
        (dict(k=3, b=64, delta=1), f"element parameter b=64 is not in {g64}"),
        (dict(k=3, b=1, delta=64), f"element parameter delta=64 is not in {g64}"),
        (dict(k=3, b=1), "P6 requires parameter delta"),
        (dict(k=3, b=1, delta=1, m=3), "P6 does not take parameter m"),
    ]:
        assert message(warm, **kwargs) == text
        assert message(cold, **kwargs) == text
    assert message(gf16, k=3, b=1, delta=1) == (
        f"P6 with {{'k': 3}} lives in GF(2^6), not {gf16!r}")


def reference_role_error(fam, d):
    """The first parameter, in INT_PARAMS + ELEMENT_PARAMS order, that fam
    requires and d lacks or that d sets and fam does not take: the walk
    validate_params once made over a table of (name, required, allowed)."""
    record = families.FAMILIES[fam]
    field, enum, opt = record.field, record.enumerated, record.optional
    for name in families.INT_PARAMS + families.ELEMENT_PARAMS:
        required, allowed = name in field + enum, name in field + enum + opt
        if d[name] is None:
            if required:
                return f"{fam} requires parameter {name}"
        elif not allowed:
            return f"{fam} does not take parameter {name}"


# one valid value for each of the 11 parameters, per family; a value for a
# parameter the family does not take is never read past the role check
ROLE_VALUES = {
    "P1": dict(m=2, k=3, b=2, delta=3, c=5),
    "P2": dict(m=3, s=6, b=9, delta=18),
    "P3": dict(m=2, bprime=3, b=1),
    "P4": dict(q=5, e=2, r=1, a=1),
    "P5": dict(m=2, b=1, delta=2),
    "P6": dict(k=2, b=5, delta=1),
}


@pytest.mark.parametrize("family", families.FAMILY_IDS)
def test_validation_matches_the_reference_walk(family):
    names = families.INT_PARAMS + families.ELEMENT_PARAMS
    values = {n: ROLE_VALUES[family].get(n, 1) for n in names}
    ctx = field_for_family(family, {n: values[n] for n in families.FAMILIES[family].field})
    for pattern in range(1 << len(names)):
        d = {n: values[n] if pattern >> i & 1 else None
             for i, n in enumerate(names)}
        want = reference_role_error(family, d)
        if want is None:
            make_family(params_for(family, ctx, **d))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                params_for(family, ctx, **d)


def test_bool_integer_parameter_reads_as_its_int(gf4):
    # True validates as k = 1 and shares k = 1's memo entries
    as_int = make_family(params_for("P6", gf4, k=1, b=1, delta=1))
    as_bool = make_family(params_for("P6", build_field(2, 2), k=True, b=1, delta=1))
    assert as_bool == as_int
    assert as_int[1].entry("k > 1").detail == "k=1"


# -- linearity of P3 ----------------------------------------------------------

def test_p3_additive_and_kernel_route(gf256):
    count = 0
    for params in enumerate_params("P3", {"m": 4}, ctx=gf256):
        poly, _ = make_family(params)
        table = [int(v) for v in evaluate_all(gf256, poly)]
        # additivity: g(x + y) = g(x) + g(y); field addition is xor here
        for x in (1, 7, 100, 255):
            for y in range(256):
                assert table[x ^ y] == table[x] ^ table[y]
        assert kernel_is_trivial(gf256, poly) == \
            is_permutation(gf256, poly).permutation
        count += 1
        if count >= 8:
            break


# -- enumeration --------------------------------------------------------------

def test_enumerate_counts(p1_ctx, gf256):
    assert sum(1 for _ in enumerate_params("P1", {"m": 2, "k": 3},
                                           ctx=p1_ctx)) == 3968
    # oracle for P6: b in GF(16)* times delta with absolute trace 1
    traces = sum(1 for d in range(256) if gf256.relative_trace(1, d) == 1)
    assert traces == 128
    assert sum(1 for _ in enumerate_params("P6", {"k": 4}, ctx=gf256)) == 15 * 128
    # oracle for P3: direct double loop
    oracle = sum(
        1
        for bp in unit_circle(gf256)
        for b in range(1, 256)
        if not gf256.in_subfield(4, b)
        and gf256.mul(gf256.pow(b, 30), gf256.pow(bp, 3)) == 1)
    got = sum(1 for _ in enumerate_params("P3", {"m": 4}, ctx=gf256))
    assert got == oracle == 240


def test_enumerate_deterministic_and_partitioned(gf64):
    fp = {"m": 3, "s": 6}
    first = [p.to_dict() for p in enumerate_params("P2", fp, ctx=gf64)]
    second = [p.to_dict() for p in enumerate_params("P2", fp, ctx=gf64)]
    assert first == second
    n_all = sum(1 for _ in enumerate_params("P2", fp, "all", ctx=gf64))
    n_sat = len(first)
    n_vio = sum(1 for _ in enumerate_params("P2", fp, "violating", ctx=gf64))
    assert n_sat + n_vio == n_all == 64 * 64
    assert n_sat == 48
    with pytest.raises(ValueError):
        list(enumerate_params("P2", fp, "sometimes", ctx=gf64))


def test_enumeration_guard():
    # GF(2^24) is within the size bound, and its 2^48 tuples are not
    with pytest.raises(ValueError, match="guard"):
        check_enumeration_guard("P5", {"m": 12})
    with pytest.raises(ValueError, match="guard"):
        list(enumerate_params("P5", {"m": 12}))


@pytest.mark.parametrize("family, field_params", [
    ("P6", {"k": 40}), ("P6", {"k": 1000}), ("P1", {"m": 7, "k": 10 ** 6}),
    ("P4", {"q": 5, "e": 200000}), ("P4", {"q": 3, "e": 10 ** 9}),
    ("P4", {"q": 2 ** 61 - 1, "e": 1}),
])
def test_enumeration_guard_fails_fast_on_huge_fields(monkeypatch, family, field_params):
    # refused by the size bound from bit lengths, before q, any domain or
    # P4's r is built, and before P4's q is factored
    def refuse(*args):
        raise AssertionError("factored P4's q above the bound")

    monkeypatch.setattr(families, "_prime_factors", refuse)
    bound = "is out of scope: fields are limited to q <= 2\\^24$"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=bound):
        check_enumeration_guard(family, field_params)
    with pytest.raises(ValueError, match=bound):
        next(enumerate_params(family, field_params))
    assert time.perf_counter() - start < 1


SMALL_DOMAINS = [
    ("P1", {"m": 1, "k": 4}), ("P1", {"m": 2, "k": 3}), ("P2", {"m": 2, "s": 1}),
    ("P3", {"m": 3}), ("P4", {"q": 3, "e": 1}), ("P4", {"q": 4, "e": 2}),
    ("P4", {"q": 3, "e": 3}), ("P4", {"q": 2, "e": 5}), ("P5", {"m": 2}),
    ("P6", {"k": 1}), ("P6", {"k": 3}),
]


@pytest.mark.parametrize("family, field_params", SMALL_DOMAINS)
def test_enumeration_guard_counts_the_domain(family, field_params):
    assert check_enumeration_guard(family, field_params) == sum(
        1 for _ in iter_family(family, field_params))


# iter_family validates only its first tuple; every tuple must still be one
# that the validating constructor accepts and rebuilds equal
@pytest.mark.parametrize("family, field_params", SMALL_DOMAINS)
def test_every_enumerated_tuple_passes_validation(family, field_params):
    for params, _, _ in iter_family(family, field_params):
        assert FamilyParams(**vars(params)) == params


@pytest.mark.parametrize("call", [iter_family, scan_sufficiency])
def test_enumerator_checks_its_first_tuple(gf16, call):
    def first(family, field_params):
        result = call(family, field_params, ctx=gf16)
        return next(result) if call is iter_family else result

    with pytest.raises(ValueError, match="^" + re.escape(
            f"P6 with {{'k': 3}} lives in GF(2^6), not {gf16!r}") + "$"):
        first("P6", {"k": 3})
    with pytest.raises(ValueError, match="^P6 does not take parameter m$"):
        first("P6", {"k": 3, "m": 3})


def test_iter_family_yields_checklists(gf625):
    seen = 0
    for params, poly, checklist in iter_family("P4", {"q": 5, "e": 4}, ctx=gf625):
        assert params.r in (1, 151)
        assert params.a != 0
        seen += 1
    assert seen == 2 * 624


# -- proof-internal identities -------------------------------------------------

def test_p1_identity_random(p1_ctx):
    ctx = p1_ctx
    rng = random.Random(11)
    for _ in range(25):
        params = params_for("P1", ctx, m=2, k=3,
                            b=ctx.gen_pow(rng.randrange(63)),
                            delta=rng.randrange(64))
        if not make_family(params)[1].satisfied():
            continue
        assert proof_identity_check("P1", params, d=rng.randrange(64))


def test_p2_identity_both_cases(gf64):
    # s = 56 satisfies the exponent congruence for m = 3
    sub = gf64.subfield_elements(3)
    b, delta = sub[4], sub[6]
    params = params_for("P2", gf64, m=3, s=56, b=b, delta=delta)
    _, checklist = make_family(params)
    assert checklist.all_true()
    zero_case = nonzero_case = 0
    for d in range(64):
        w = gf64.add(gf64.add(gf64.div(gf64.frobenius(d, 3), gf64.frobenius(b, 3)),
                              gf64.div(d, b)), delta)
        if w == 0:
            zero_case += 1
        else:
            nonzero_case += 1
        assert proof_identity_check("P2", params, d=d)
    assert zero_case > 0 and nonzero_case > 0


def test_p2_identity_requires_congruence(gf64):
    sub = gf64.subfield_elements(3)
    params = params_for("P2", gf64, m=3, s=6, b=sub[4], delta=sub[6])
    with pytest.raises(ValueError, match="congruence"):
        proof_identity_check("P2", params, d=1)


def test_p3_identity(gf256):
    for i, params in enumerate(enumerate_params("P3", {"m": 4}, ctx=gf256)):
        assert proof_identity_check("P3", params)
        if i >= 10:
            break


def test_identity_rejects_violating_params(p1_ctx):
    params = params_for("P1", p1_ctx, m=2, k=3, b=1, delta=0)  # b in F_2
    with pytest.raises(ValueError):
        proof_identity_check("P1", params, d=0)


def test_identity_check_refuses_another_familys_params(p1_ctx):
    # run on P1's polynomial, P2's identity would read as a failure and
    # P3's would raise TypeError
    params = params_for("P1", p1_ctx, m=2, k=3, b=p1_ctx.gen_pow(1),
                        delta=p1_ctx.gen_pow(3))
    for family in ("P2", "P3"):
        text = f"family '{family}' is not params.family 'P1'"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            proof_identity_check(family, params, d=1)


@pytest.mark.parametrize("family, field_params, values", [
    ("P4", {"q": 5, "e": 4}, dict(r=1, a=1)),
    ("P5", {"m": 2}, dict(b=1, delta=2)),
    ("P6", {"k": 2}, dict(b=5, delta=1)),
])
def test_no_identity_check_text(family, field_params, values):
    ctx = field_for_family(family, field_params)
    params = params_for(family, ctx, **field_params, **values)
    with pytest.raises(ValueError,
                       match=f"^no proof identity check for family '{family}'$"):
        proof_identity_check(family, params, d=1)


def test_family_text_smoke(p1_ctx):
    poly, _ = make_family(params_for("P1", p1_ctx, m=2, k=3,
                                     b=p1_ctx.gen_pow(1), delta=0))
    text = to_text(p1_ctx, poly)
    assert parse_poly(p1_ctx, text) == poly
