"""Exact arithmetic in GF(p^n) with a polynomial-basis element codec.

Elements are plain Python ints: the coefficient vector (c_0, ..., c_{n-1})
over GF(p) is packed as the base-p integer sum(c_i * p^i), so the constant
term is the least significant digit.  For p = 2 this is the usual bit
vector.  A FieldCtx owns the modulus, a generator, and (for q <= 2^20)
discrete-log tables; all operations are pure and the context is immutable
after construction, so it can be shared freely across workers.
"""

import numpy as np

LOG_TABLE_BOUND = 1 << 20


class ReducibleModulusError(ValueError):
    """Raised when a supplied modulus splits; carries one nontrivial factor."""

    def __init__(self, message, factor):
        super().__init__(message)
        self.factor = factor


# ---------------------------------------------------------------------------
# polynomials over GF(p) as ascending coefficient tuples (no trailing zeros)
# ---------------------------------------------------------------------------

def _trim(f):
    i = len(f)
    while i > 0 and f[i - 1] == 0:
        i -= 1
    return tuple(f[:i])


def _pdeg(f):
    return len(f) - 1


def _pmul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def _pdivmod(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = _pdeg(g)
    inv_lead = pow(g[-1], p - 2, p) if p > 2 else 1
    quo = [0] * max(len(f) - dg, 0)
    while len(_trim(f)) - 1 >= dg:
        f = list(_trim(f))
        shift = len(f) - 1 - dg
        c = (f[-1] * inv_lead) % p
        quo[shift] = c
        for j, b in enumerate(g):
            f[shift + j] = (f[shift + j] - c * b) % p
    return _trim(quo), _trim(f)


def _pmod(f, g, p):
    return _pdivmod(f, g, p)[1]


def _pgcd(f, g, p):
    while g:
        f, g = g, _pmod(f, g, p)
    if f:
        # normalize to monic
        inv_lead = pow(f[-1], p - 2, p) if p > 2 else 1
        f = tuple((c * inv_lead) % p for c in f)
    return f


def _ppowmod(f, e, mod, p):
    result = (1,)
    f = _pmod(f, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, f, p), mod, p)
        f = _pmod(_pmul(f, f, p), mod, p)
        e >>= 1
    return result


def _frob_power(mod, k, p):
    """x^(p^k) mod `mod`, by k successive p-th powers."""
    t = (0, 1)
    for _ in range(k):
        t = _ppowmod(t, p, mod, p)
    return t


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f, p):
    """Rabin test: f (monic, degree n) is irreducible over GF(p)."""
    n = _pdeg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if f[0] == 0:  # x divides f
        return False
    x = (0, 1)
    if _frob_power(f, n, p) != _pmod(x, f, p):
        return False
    for r in _prime_factors(n):
        h = _frob_power(f, n // r, p)
        width = max(len(h), 2)
        hh = h + (0,) * (width - len(h))
        xx = (0, 1) + (0,) * (width - 2)
        diff = _trim(tuple((a - b) % p for a, b in zip(hh, xx)))
        if _pdeg(_pgcd(diff, f, p)) > 0:
            return False
    return True


def _find_factor(f, p):
    """Some nontrivial monic factor of a reducible f, by trial division."""
    n = _pdeg(f)
    for d in range(1, n // 2 + 1):
        for t in range(p ** d):
            g = _digits_of(t, p, d) + (1,)
            if not _pmod(f, g, p):
                return g
    return None


def _digits_of(code, p, length):
    out = []
    for _ in range(length):
        code, r = divmod(code, p)
        out.append(r)
    return tuple(out)


def _code_of(digits, p):
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def canonical_modulus(p, n):
    """Monic irreducible of degree n with the smallest packed code.

    Candidates x^n + t are tried for t = 0, 1, 2, ... where t packs the
    lower coefficients base p, constant term least significant.
    """
    for t in range(p ** n):
        f = _digits_of(t, p, n) + (1,)
        if is_irreducible(f, p):
            return f
    raise ValueError(f"no irreducible polynomial of degree {n} over GF({p})")


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """A concrete GF(p^n): modulus, generator, codec, and optional log tables.

    Do not construct directly; use build_field.
    """

    def __init__(self, p, n, modulus, generator, exp, log):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = modulus                      # ascending, length n+1, monic
        self.modulus_code = _code_of(modulus, p)
        self.generator = generator
        self._qm1 = self.q - 1
        self._exp = exp                             # exp[i] = code of g^i, or None
        self._log = log                             # log[code] = i, log[0] = -1
        self._mod_int = self.modulus_code if p == 2 else None
        self._np_exp = None
        self._np_log = None
        self._np_pw = None
        self._as_solver = None                      # lazy, used by circle.solve_quadratic

    # -- codec ------------------------------------------------------------

    @property
    def has_tables(self):
        return self._exp is not None

    # -- scalar arithmetic --------------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        p = self.p
        out, mult = 0, 1
        for _ in range(self.n):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.p == 2:
            return a
        p = self.p
        out, mult = 0, 1
        for _ in range(self.n):
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _mul_notable(self, a, b):
        if self.p == 2:
            m, n = self._mod_int, self.n
            acc = 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if (a >> n) & 1:
                    a ^= m
            return acc
        fa = _digits_of(a, self.p, self.n)
        fb = _digits_of(b, self.p, self.n)
        return _code_of(_pmod(_pmul(fa, fb, self.p), self.modulus, self.p)
                        + (0,) * self.n, self.p)

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % self._qm1]
        return self._mul_notable(a, b)

    def pow(self, a, e):
        """a^e with exponents reduced mod q-1 for a != 0; 0^0 = 1, 0^e = 0."""
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % self._qm1]
        e %= self._qm1
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self._mul_notable(acc, base)
            base = self._mul_notable(base, base)
            e >>= 1
        return acc

    def pow_flagged(self, a, e):
        """Like pow, plus a flag marking the 0-base-negative-exponent case."""
        return self.pow(a, e), (a == 0 and e < 0)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[(-self._log[a]) % self._qm1]
        return self.pow(a, self._qm1 - 1)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def frobenius(self, x, i):
        """x^(p^i); i may be any integer (the map has order n)."""
        return self.pow(x, self.p ** (i % self.n))

    def relative_trace(self, m, x):
        """Trace onto the degree-m subfield: sum of x^(p^(m*i)), i < n/m."""
        if self.n % m != 0:
            raise ValueError(f"m={m} does not divide the extension degree {self.n}")
        acc, y = x, x
        for _ in range(self.n // m - 1):
            y = self.frobenius(y, m)
            acc = self.add(acc, y)
        return acc

    def log(self, a):
        if a == 0:
            raise ValueError("0 has no discrete logarithm")
        if self._log is not None:
            return self._log[a]
        raise ValueError("field has no log tables (q > 2^20)")

    def gen_pow(self, k):
        """Code of generator^k."""
        if self._exp is not None:
            return self._exp[k % self._qm1]
        return self.pow(self.generator, k)

    # -- enumeration --------------------------------------------------------

    def elements_in_order(self):
        """Canonical enumeration: 0 first, then ascending generator powers."""
        if self._exp is not None:
            return [0] + list(self._exp)
        out = [0]
        x = 1
        for _ in range(self._qm1):
            out.append(x)
            x = self._mul_notable(x, self.generator)
        return out

    def subfield_elements(self, m):
        """All p^m elements fixed by the m-th Frobenius power, 0 first."""
        if self.n % m != 0:
            raise ValueError(f"m={m} does not divide the extension degree {self.n}")
        size = self.p ** m - 1
        step = self._qm1 // size
        return [0] + [self.gen_pow(i * step) for i in range(size)]

    def in_subfield(self, m, a):
        return self.frobenius(a, m) == a

    # -- vectorised helpers (code-indexed numpy arrays) ----------------------

    def _vec_tables(self):
        if self._np_exp is None:
            if self._exp is None:
                raise ValueError("vector arithmetic needs log tables (q <= 2^20)")
            self._np_exp = np.array(self._exp, dtype=np.int64)
            self._np_log = np.maximum(np.array(self._log, dtype=np.int64), 0)
            if self.p != 2:
                self._np_pw = self.p ** np.arange(self.n, dtype=np.int64)
        return self._np_exp, self._np_log

    def add_vec(self, A, B):
        if self.p == 2:
            return np.bitwise_xor(A, B)
        self._vec_tables()
        pw = self._np_pw
        da = (A[..., None] // pw) % self.p
        db = (B[..., None] // pw) % self.p
        return (((da + db) % self.p) * pw).sum(axis=-1)

    def neg_vec(self, A):
        if self.p == 2:
            return A
        self._vec_tables()
        pw = self._np_pw
        da = (A[..., None] // pw) % self.p
        return (((self.p - da) % self.p) * pw).sum(axis=-1)

    def mul_vec(self, A, B):
        E, L = self._vec_tables()
        out = E[(L[A] + L[B]) % self._qm1]
        return np.where((A == 0) | (B == 0), 0, out)

    def scale_vec(self, c, A):
        if c == 0:
            return np.zeros_like(A)
        E, L = self._vec_tables()
        out = E[(L[A] + self._log[c]) % self._qm1]
        return np.where(A == 0, 0, out)

    def pow_vec(self, A, e):
        E, L = self._vec_tables()
        if e == 0:
            return np.ones_like(A)
        out = E[(L[A] * (e % self._qm1)) % self._qm1]
        return np.where(A == 0, 0, out)

    def field_sum_vec(self, A):
        """Field sum of a 1-d array of codes."""
        if self.p == 2:
            return int(np.bitwise_xor.reduce(A)) if len(A) else 0
        if len(A) == 0:
            return 0
        self._vec_tables()
        pw = self._np_pw
        da = (np.asarray(A)[..., None] // pw) % self.p
        return int((da.sum(axis=0) % self.p * pw).sum())

    # -- text ---------------------------------------------------------------

    def format_element(self, a):
        if a == 0:
            return "0"
        if a == 1:
            return "1"
        if self._log is not None:
            return f"g^{self._log[a]}"
        return hex(a)

    def parse_element(self, text):
        """Element syntax: 0, 1, g^k, g, or a packed 0x/0b code."""
        t = text.strip()
        if t == "0":
            return 0
        if t == "1":
            return 1
        if t == "g":
            return self.generator
        if t.startswith("g^"):
            try:
                k = int(t[2:])
            except ValueError:
                raise ValueError(f"bad generator power {text!r}") from None
            return self.gen_pow(k)
        if t.startswith(("0x", "0X", "0b", "0B")):
            try:
                code = int(t, 0)
            except ValueError:
                raise ValueError(f"bad packed element literal {text!r}") from None
            if not 0 <= code < self.q:
                raise ValueError(f"element code {text} is not in GF({self.p}^{self.n})")
            return code
        raise ValueError(f"cannot parse element {text!r}: "
                         "expected 0, 1, g^k, or a 0x/0b packed code")

    def descriptor(self):
        return f"{self.p}^{self.n}:modulus={hex(self.modulus_code)}"

    def __repr__(self):
        return f"GF({self.p}^{self.n}, modulus={hex(self.modulus_code)})"


def _find_generator(ctx_mul, q, candidates):
    qm1 = q - 1
    if qm1 == 1:
        return 1
    prime_divs = _prime_factors(qm1)

    def order_is_full(a):
        def pw(base, e):
            acc = 1
            while e:
                if e & 1:
                    acc = ctx_mul(acc, base)
                base = ctx_mul(base, base)
                e >>= 1
            return acc
        if pw(a, qm1) != 1:
            return False
        return all(pw(a, qm1 // r) != 1 for r in prime_divs)

    for a in candidates:
        if order_is_full(a):
            return a
    raise ValueError("no generator found (modulus not irreducible?)")


def build_field(p, n, modulus=None):
    """Construct GF(p^n).

    modulus may be a coefficient tuple/list (ascending, monic, degree n) or a
    packed integer code; default is the canonical smallest irreducible.
    """
    if not _is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p >= 1 << 20:
        raise ValueError("characteristic above 2^20 is out of scope")
    if n < 1:
        raise ValueError("extension degree must be positive")

    if modulus is None:
        mod = canonical_modulus(p, n)
    else:
        if isinstance(modulus, int):
            mod = _digits_of(modulus, p, n + 1)
        else:
            mod = tuple(int(c) % p for c in modulus)
        mod = _trim(mod)
        if _pdeg(mod) != n or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {n}")
        if not is_irreducible(mod, p):
            factor = _find_factor(mod, p)
            ftext = hex(_code_of(factor, p)) if factor else "?"
            raise ReducibleModulusError(
                f"modulus {hex(_code_of(mod, p))} is reducible over GF({p}); "
                f"divisible by {ftext}", factor)

    q = p ** n
    ctx = FieldCtx(p, n, mod, generator=1, exp=None, log=None)
    gen = _find_generator(ctx._mul_notable, q, range(1, q))
    ctx.generator = gen

    if q <= LOG_TABLE_BOUND:
        exp = [0] * (q - 1)
        log = [-1] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = ctx._mul_notable(x, gen)
        if x != 1 or log.count(-1) != 1:
            raise ValueError("generator does not have full multiplicative order")
        ctx._exp = exp
        ctx._log = log
    return ctx


def parse_field_descriptor(text):
    """Parse "p^n" with optional ":modulus=0x...". Returns (p, n, modulus|None)."""
    t = text.strip()
    modulus = None
    if ":" in t:
        t, _, opt = t.partition(":")
        key, _, val = opt.partition("=")
        if key.strip() != "modulus" or not val:
            raise ValueError(f"bad field descriptor option {opt!r}")
        modulus = int(val, 0)
    if "^" in t:
        ps, _, ns = t.partition("^")
    else:
        ps, ns = t, "1"
    try:
        p, n = int(ps), int(ns)
    except ValueError:
        raise ValueError(f"bad field descriptor {text!r}: expected p^n") from None
    return p, n, modulus


def field_from_descriptor(text):
    p, n, modulus = parse_field_descriptor(text)
    return build_field(p, n, modulus)
