"""Permutation and complete-permutation checks by exhaustive evaluation.

The designated oracle at desk scale is the full image scan: evaluate f on
every field element in canonical order (0 first, then ascending generator
powers) and mark the values in a bool array indexed by packed element
code; the marks counted are the image size.  Two measures back every
verdict, and the cheap one decides: a full image is confirmed by sorting
the values, which compares them and shares nothing with the scatter, and
any other count bounds the witness search, since among positions
0..image_size one value must repeat.
Position i of the values is the i-th element of that order, so the
witness search reads them as they are, with no reordering gather.
Witnesses are the first repeat in canonical order and are re-checked
before emission.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .field import KERNEL_BLOCK
from .poly import CompositePoly, SparsePoly, evaluate, evaluate_all, eval_sparse

WITNESS_CHUNK = 1 << 12     # positions after 0 the witness search walks with a dict;
                            # numpy chunks after them start at this size and double
WITNESS_PREFIX = 64         # of those positions, the ones walked first


@dataclass(frozen=True)
class PermReport:
    permutation: bool
    witness: tuple | None          # (x1, x2) with x1 != x2, f(x1) == f(x2)
    image_size: int
    complete: bool | None = None

    @property
    def verdict(self):
        return "permutation" if self.permutation else "not-permutation"

    def to_dict(self, ctx=None):
        fmt = ctx.format_element if ctx else str
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else [fmt(self.witness[0]),
                                                          fmt(self.witness[1])],
            "image_size": self.image_size,
            "complete": self.complete,
        }


def _dict_walk(xs, vs, seen):
    """First (x1, x2) of xs whose values vs repeat, by one dict pass that
    goes on from seen, the earlier points by value."""
    for x, v in zip(xs, vs):
        if v in seen:
            return (seen[v], x)
        seen[v] = x
    return None


def _first_collision(ctx, values, limit):
    """First x2 in canonical order whose value repeats an earlier x1, from
    f's values in that order: f(0) at position 0, f(g^i) at position i + 1.
    Only positions below limit are searched; the caller passes its image
    size plus one, since positions 0..image_size hold one value more than
    the image has, so the first repeat lies at a position <= image_size.
    None means no repeat below limit.

    The first WITNESS_CHUNK + 1 positions (0, then g^0, g^1, ...) go
    through a dict, which finds early witnesses at no set-up cost; it
    walks WITNESS_PREFIX positions after 0 first and converts the rest of
    them only when those hold no repeat, since most witnesses lie there.
    Later positions are searched in numpy chunks that double in size up to
    KERNEL_BLOCK, the last one clipped at limit: first[v] holds the least
    position seen so far with value v, so after np.minimum.at the first
    position of a chunk above first[its value] is the least repeating
    position, and first[its value] is where that value first occurred: the
    pair the dict walk would return.
    """
    end = min(WITNESS_CHUNK, limit - 1)     # the dict walks positions 1..end
    seen, mid = {values.item(0): 0}, min(WITNESS_PREFIX, end)
    for lo, hi in ((0, mid), (mid, end)):
        witness = _dict_walk(ctx._exp[lo:hi], values[lo + 1:hi + 1].tolist(), seen)
        if witness is not None:
            return witness
    lo, size = end + 1, WITNESS_CHUNK
    if lo >= limit:
        return None
    first = np.full(ctx.q, ctx.q, dtype=np.int32)  # positions are at most q <= 2^24
    first[values[:lo]] = np.arange(lo)      # distinct: the walk found none
    while lo < limit:
        hi = min(lo + size, limit)
        v = values[lo:hi]
        pos = np.arange(lo, hi, dtype=np.int32)
        np.minimum.at(first, v, pos)
        repeats = np.flatnonzero(first[v] < pos)
        if repeats.size:
            j = repeats[0]
            x1 = int(first[v[j]])
            return (ctx.gen_pow(x1 - 1) if x1 else 0, ctx.gen_pow(lo + j - 1))
        lo, size = hi, min(2 * size, KERNEL_BLOCK)
    return None


def _report(ctx, f, values):
    """The verdict on f from its values, each side checked a second way.

    A bool scatter counts the image, one KERNEL_BLOCK slice of intp
    indices at a time, and is freed before anything else q-sized is
    allocated.  A full image is then confirmed by sorting a copy of the
    values, which only permutations pay for: the sorted values are 0..q-1
    iff the first is 0, the last is q-1 and no two neighbours are equal,
    compared one KERNEL_BLOCK slice at a time.  Otherwise the witness is
    searched for below the pigeonhole bound of the count, then re-evaluated
    by the scalar evaluator; a search that finds no repeat there means the
    count is wrong.
    """
    q = ctx.q
    hit, lo = np.zeros(q, dtype=bool), 0
    while lo < q:           # as in evaluate_all; intp indices scatter faster than int32
        hit[values[lo:lo + KERNEL_BLOCK].astype(np.intp)] = True
        lo += KERNEL_BLOCK
    image_size = int(np.count_nonzero(hit))
    del hit
    if image_size == q:
        s, repeats, lo = np.sort(values), 0, 0
        while lo < q - 1:                   # each run overlaps the next by one
            run = s[lo:lo + KERNEL_BLOCK + 1]
            repeats += np.count_nonzero(run[1:] == run[:-1])
            lo += KERNEL_BLOCK
        if s[0] != 0 or s[-1] != q - 1 or repeats:
            raise AssertionError("sorted values and image scatter disagree")
        return PermReport(True, None, image_size)
    witness = _first_collision(ctx, values, image_size + 1)
    if witness is None:
        raise AssertionError("image count and witness search disagree")
    x1, x2 = witness
    if evaluate(ctx, f, x1) != evaluate(ctx, f, x2) or x1 == x2:
        raise AssertionError("collision witness failed re-evaluation")
    return PermReport(False, witness, image_size)


def is_permutation(ctx, f):
    """Exhaustive permutation check with a verified collision witness."""
    return _report(ctx, f, evaluate_all(ctx, f))


def is_complete_permutation(ctx, f):
    """complete = yes iff both f and f + x are permutations.

    f is evaluated once; after f's report, its values plus the points in
    canonical order (0, then the exp table) become the values of f + x, in
    place, so one value array serves both reports.
    """
    values = evaluate_all(ctx, f)
    rep = _report(ctx, f, values)
    rep_shift = _report(ctx, f.plus_x(), ctx.add_vec(values, ctx._P, values))
    return replace(rep, complete=rep.permutation and rep_shift.permutation)


def monomial_pp_check(ctx, n):
    """Whether x^n permutes the field: gcd(n, q-1) == 1."""
    if n < 1:
        raise ValueError("monomial degree must be positive")
    return math.gcd(n, ctx.q - 1) == 1


def mu_d_roots(ctx, d):
    """The d-th roots of unity: generator^((q-1)/d * i) for i in [0, d)."""
    if d < 1 or (ctx.q - 1) % d != 0:
        raise ValueError(f"d={d} does not divide q-1={ctx.q - 1}")
    step = (ctx.q - 1) // d
    return [ctx.gen_pow(i * step) for i in range(d)]


@dataclass(frozen=True)
class Lemma1Report:
    gcd_ok: bool                   # gcd(r, (q-1)/d) == 1
    circle_ok: bool                # x^r h(x)^((q-1)/d) permutes mu_d
    ok: bool

    def to_dict(self):
        return {"gcd_ok": self.gcd_ok, "circle_ok": self.circle_ok, "ok": self.ok}


def lemma1_check(ctx, r, d, h):
    """Criterion for f(x) = x^r h(x^((q-1)/d)) to permute GF(q).

    f permutes the field iff gcd(r, (q-1)/d) = 1 and the map
    x -> x^r h(x)^((q-1)/d) permutes the d-th roots of unity.  Both
    conditions are decided directly (the root group is enumerated).
    """
    if r < 1:
        raise ValueError("r must be positive")
    if not isinstance(h, SparsePoly):
        raise TypeError("h must be a SparsePoly over the field")
    if d < 1 or (ctx.q - 1) % d != 0:
        raise ValueError(f"d={d} does not divide q-1={ctx.q - 1}")
    s = (ctx.q - 1) // d
    gcd_ok = math.gcd(r, s) == 1
    mu = mu_d_roots(ctx, d)
    values = [ctx.mul(ctx.pow(x, r), ctx.pow(eval_sparse(ctx, h, x), s)) for x in mu]
    mu_set = set(mu)
    circle_ok = len(set(values)) == d and all(v in mu_set for v in values)
    return Lemma1Report(gcd_ok, circle_ok, gcd_ok and circle_ok)


def lemma1_polynomial(ctx, r, d, h):
    """The full-field polynomial x^r h(x^((q-1)/d)) as a monomial sum."""
    s = (ctx.q - 1) // d
    return CompositePoly.monomials(ctx, [(r + e * s, c) for e, c in h.terms])
