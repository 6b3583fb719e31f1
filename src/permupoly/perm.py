"""Permutation and complete-permutation checks by exhaustive evaluation.

The designated oracle at desk scale is the full image scan: evaluate on
every field element into an occupancy array indexed by packed element
code.  Witnesses are reported in canonical enumeration order (0 first,
then ascending generator powers) and re-checked before emission.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .poly import CompositePoly, SparsePoly, evaluate, evaluate_all, eval_sparse

PERM_CHECK_BOUND = 1 << 24
WITNESS_CHUNK = 1 << 12     # canonical positions per gather in the witness walk


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


def _canonical_chunks(ctx, values):
    """(elements, their values) in canonical order, as pairs of int lists.

    With tables, each chunk of WITNESS_CHUNK generator powers takes its
    values with one gather and one tolist(); the elements are slices of
    the scalar exp list, so no int objects are created for them.
    """
    if not ctx.has_tables:
        xs = ctx.elements_in_order()
        yield xs, (int(values[x]) for x in xs)
        return
    E, _ = ctx._tables()
    yield [0], [int(values[0])]
    for start in range(0, ctx.q - 1, WITNESS_CHUNK):
        stop = start + WITNESS_CHUNK
        yield ctx._exp[start:stop], values[E[start:stop]].tolist()


def _first_collision(ctx, values):
    """First x2 in canonical order whose value repeats an earlier x1."""
    seen = {}
    for xs, vs in _canonical_chunks(ctx, values):
        for x, v in zip(xs, vs):
            if v in seen:
                return (seen[v], x)
            seen[v] = x
    return None


def is_permutation(ctx, f):
    """Exhaustive permutation check with a verified collision witness."""
    if ctx.q > PERM_CHECK_BOUND:
        raise ValueError(f"exhaustive permutation check is limited to "
                         f"q <= 2^24 (got q={ctx.q})")
    values = evaluate_all(ctx, f)
    counts = np.bincount(values, minlength=ctx.q)
    image_size = int(np.count_nonzero(counts))
    if image_size == ctx.q:
        # re-verify the positive verdict: the sorted image must be 0..q-1
        if not np.array_equal(np.sort(values), np.arange(ctx.q, dtype=values.dtype)):
            raise AssertionError("occupancy count and sorted image disagree")
        return PermReport(True, None, image_size)
    x1, x2 = _first_collision(ctx, values)
    if evaluate(ctx, f, x1) != evaluate(ctx, f, x2) or x1 == x2:
        raise AssertionError("collision witness failed re-evaluation")
    return PermReport(False, (x1, x2), image_size)


def is_complete_permutation(ctx, f):
    """complete = yes iff both f and f + x are permutations."""
    rep = is_permutation(ctx, f)
    rep_shift = is_permutation(ctx, f.plus_x())
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
