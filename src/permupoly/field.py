"""Exact arithmetic in GF(p^n) with a polynomial-basis element codec.

Elements are plain Python ints: the coefficient vector (c_0, ..., c_{n-1})
over GF(p) is packed as the base-p integer sum(c_i * p^i), so the constant
term is the least significant digit.  For p = 2 this is the usual bit
vector.  A FieldCtx owns the modulus, a generator, and discrete-log
tables, which are read-only numpy arrays; build_field builds them for
every field, as check_order refuses any q above TABLE_BOUND first.  Every
code and log fits in int32 below that bound, so the tables are int32, and
so is every value array the vector kernels return, whatever the integer
dtype of their operands.  In odd characteristic add_vec reads no log: it
adds the packed codes a group of base-p digits at a time, through a small
read-only uint16 table of digit-group sums (ADD_TABLE_BOUND entries at
most), or by a wrap where a group is one digit.  The odd-p add and the
table build walk their arrays in KERNEL_BLOCK slices, and
poly.evaluate_all hands the other kernels one slice at a time, so their
temporaries stay the size of a slice.  All
operations are pure and the context is immutable after construction, apart
from its caches: poly.evaluate_all's bounded memo of composite powers
(_powers), families._part's bounded memo of family terms and clauses
(_parts), and the quadratic solver circle builds on first use (_as_solver).
"""

import numpy as np

TABLE_BOUND = 1 << 24       # largest field order: every field has log tables
TABLE_WALK = 64             # generator powers the table build takes by scalar multiply
TABLE_BLOCK = 1 << 12       # generator powers per block step of the table build
PROGRESSION_HEAD = 1 << 10  # progression entries monomial_vec computes by %
KERNEL_BLOCK = 1 << 16      # entries per slice of the blocked kernels and the table build
ADD_TABLE_BOUND = 1 << 20   # entries of the odd-p add's digit-group sum table
MAX_EXPONENT = 1 << 62      # largest exponent that element and polynomial text accept


def bound_text(bound):
    """A size bound as messages print it: 2^k for a power of two."""
    k = bound.bit_length() - 1
    return f"2^{k}" if bound == 1 << k else str(bound)


def read_exponent(digits):
    """The int a run of decimal digits spells, or None above MAX_EXPONENT;
    a run past int()'s digit limit is above it too.  Element text (g^k) and
    polynomial text (x^e, (...)^e, g^k) read exponents only through it."""
    try:
        value = int(digits)
    except ValueError:
        return None
    return value if value <= MAX_EXPONENT else None


def read_integer(text, what):
    """The int that text spells as decimal digits, after a '-' or not, at
    most MAX_EXPONENT in size: the form of the integer options and of p
    and n in a field descriptor.  No '+', space, underscore or base
    prefix; ValueError names what was read and the expected form."""
    negative = text.startswith("-")
    digits = text[negative:]
    if not digits.isdecimal():
        raise ValueError(f"bad {what} {text!r}: expected decimal digits")
    value = read_exponent(digits)
    if value is None:
        raise ValueError(f"{what} {text} exceeds {bound_text(MAX_EXPONENT)}")
    return -value if negative else value


_PACKED_BASES = {"0x": 16, "0X": 16, "0b": 2, "0B": 2}
_PACKED_DIGITS = {16: frozenset("0123456789abcdefABCDEF"), 2: frozenset("01")}


def read_packed(text):
    """The int a packed code spells, 0x and hex digits or 0b and binary
    digits with nothing else (no sign, space or underscore), or None for
    any other text.  Element and modulus text read codes only through it."""
    base, digits = _PACKED_BASES.get(text[:2]), text[2:]
    if base is None or not digits or not set(digits) <= _PACKED_DIGITS[base]:
        return None
    return int(digits, base)


def read_modulus(text):
    """A modulus given as text: its packed 0x/0b code, LSB = constant term."""
    code = read_packed(text)
    if code is None:
        raise ValueError(f"bad modulus {text!r}: expected a packed 0x.. or 0b.. code")
    return code


def check_order(p, n):
    """p^n, or ValueError when it exceeds TABLE_BOUND.  The one size check:
    a p^n too large by bit lengths alone is refused before it is computed,
    so no caller factors, tables or enumerates a field above the bound."""
    if n * (p.bit_length() - 1) < TABLE_BOUND.bit_length():
        q = p ** n
        if q <= TABLE_BOUND:
            return q
    raise ValueError(f"GF({p}^{n}) is out of scope: fields are limited "
                     f"to q <= {bound_text(TABLE_BOUND)}")


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
    """Distinct prime factors of n, ascending, by trial division: at most
    2^12 steps for the n <= TABLE_BOUND the field build factors."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _clmod(a, f, n):
    """a mod f over GF(2), both packed as ints; f has degree n."""
    while a.bit_length() > n:
        a ^= f << (a.bit_length() - 1 - n)
    return a


def _clgcd(a, b):
    """gcd over GF(2) of two packed polynomials."""
    while b:
        a, b = b, _clmod(a, b, b.bit_length() - 1)
    return a


def _rabin_gf2(code, n):
    """Rabin test for p = 2 on the packed code of f (degree n >= 2): one
    run of n carry-less squarings of x mod f gives every x^(2^k) the test
    needs.  Squaring spreads bit i to bit 2i, i.e. interleaves zeros into
    the binary digits."""
    wanted = {n // r for r in _prime_factors(n)}
    t, frob = 2, {}
    for k in range(1, n + 1):
        t = _clmod(int("0".join(bin(t)[2:]), 2), code, n)
        if k in wanted:
            frob[k] = t
    if t != 2:
        return False
    return all(_clgcd(code, h ^ 2) == 1 for h in frob.values())


def is_irreducible(f, p):
    """Rabin test: f (monic, degree n) is irreducible over GF(p)."""
    n = _pdeg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if f[0] == 0:  # x divides f
        return False
    if p == 2:
        return _rabin_gf2(_code_of(f, 2), n)
    return _rabin_tuples(f, p)


def _rabin_tuples(f, p):
    """Rabin test on coefficient tuples, for f with n >= 2 and f(0) != 0;
    the path for odd p and the reference for the p = 2 path."""
    n = _pdeg(f)
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


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """A concrete GF(p^n): modulus, generator, codec, and log tables.

    Do not construct directly; use build_field, which builds the tables
    of every context it returns.
    """

    def __init__(self, p, n, modulus):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = modulus                      # ascending, length n+1, monic
        self.modulus_code = _code_of(modulus, p)
        self.generator = 1
        self._qm1 = self.q - 1
        self._P = None                              # points 0, g^0, g^1, ...: int32
        self._E = None                              # E[i] = code of g^i: the view P[1:]
        self._L = None                              # L[code] = i, int32, L[0] = 0
        self._group = self._groups = None           # odd p: add_vec's group base p^g, count
        self._T = None                              # odd p, g >= 2: T[u*p^g + v] = u + v digitwise
        self._exp = self._log = None                # memoryviews of E and L: scalar reads give int
        self._mod_int = self.modulus_code if p == 2 else None
        self._as_solver = None                      # lazy, used by circle.solve_quadratic
        self._powers = {}                           # poly.evaluate_all's memo of base powers
        self._parts = {}                            # families._part's memo of terms and clauses

    # -- codec ------------------------------------------------------------

    def _build_tables(self):
        """exp/log tables from the generator, and for odd p add_vec's digit
        groups, all read-only; the exp table is a view into the canonical
        points."""
        p, qm1 = self.p, self._qm1
        P = np.empty(self.q, dtype=np.int32)
        P[0] = 0
        E = _generator_powers(self, out=P[1:])
        L = np.full(self.q, -1, dtype=np.int32)
        for lo, hi in _slices(qm1):         # intp indices scatter without a cast
            L[E[lo:hi].astype(np.intp)] = np.arange(lo, hi, dtype=np.int32)
        if (self._mul_notable(int(E[-1]), self.generator) != 1
                or np.count_nonzero(L < 0) != 1):
            raise ValueError("generator does not have full multiplicative order")
        if p != 2:
            self._group, self._groups, self._T = _digit_groups(p, self.n)
        L[0] = 0        # zero operands read log 0; every op masks or guards them
        for table in (P, L, self._T):
            if table is not None:
                table.flags.writeable = False
        self._P, self._E, self._L = P, P[1:], L
        self._exp, self._log = memoryview(self._E), memoryview(L)

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
        return self._exp[(self._log[a] + self._log[b]) % self._qm1]

    def _pow_notable(self, a, e):
        """a^e for e >= 0 as given, by table-free square-and-multiply."""
        acc = 1
        while e:
            if e & 1:
                acc = self._mul_notable(acc, a)
            a = self._mul_notable(a, a)
            e >>= 1
        return acc

    def pow(self, a, e):
        """a^e with exponents reduced mod q-1 for a != 0; 0^0 = 1, 0^e = 0."""
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % self._qm1]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[(-self._log[a]) % self._qm1]

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
        return self._log[a]

    def gen_pow(self, k):
        """Code of generator^k."""
        return self._exp[k % self._qm1]

    # -- enumeration --------------------------------------------------------

    def elements_in_order(self):
        """Canonical enumeration: 0 first, then ascending generator powers."""
        return [0, *self._exp]

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

    def add_vec(self, A, B, out=None):
        """A + B elementwise on 1-d integer arrays of codes, as a new int32
        array, or written into the int32 array out, which may be A or B;
        either operand may be one code.  For p = 2 it is one XOR.  For odd
        p the digit-group add runs one KERNEL_BLOCK slice at a time, so its
        temporaries stay the size of a slice, and a scalar operand stays a
        scalar."""
        if self.p == 2:
            return np.bitwise_xor(A, B, out=out, dtype=np.int32)
        if np.ndim(A) == 0:
            A, B = B, A                 # the sum commutes, so A is the array
        if out is None:
            out = np.empty(len(A), dtype=np.int32)
        for lo, hi in _slices(len(A)):
            self._digit_add(_uint32(A[lo:hi]), _uint32(B[lo:hi]) if np.ndim(B) else int(B),
                            out[lo:hi].view(np.uint32))
        return out

    def _digit_add(self, A, B, out):
        """One slice of the odd-p add_vec, written into out; A and out are
        uint32, B too or an int.  With W = p^g the group base, the j-th
        groups of a and b come from c_j = (a // W^j) * s + b // W^j, where
        s = W with a table and 1 without: r_j = c_j - W * c_(j+1) is the
        table index u * W + v, or the digit sum u + v < 2p, which one wrap
        reduces.  The groups run from the top, and out becomes out * W plus
        their sum.  c_0 may pass 2^32 and wrap, but r_0 < W^2 stays exact.
        Every c_j is formed before out is written, so out may be A or B."""
        W, T = self._group, self._T

        def pair(j):
            a, b = (A // W ** j, B // W ** j) if j else (A, B)
            if T is None:
                return a + b
            c = a * W
            c += b
            return c

        def group_sum(r):
            return np.minimum(r, r - W) if T is None else T.take(r)

        pairs = [pair(j) for j in range(self._groups)]
        upper = pairs.pop()
        out[...] = group_sum(upper)
        for c in reversed(pairs):
            upper *= W
            out *= W
            out += group_sum(np.subtract(c, upper, out=upper))
            upper = c

    def neg_vec(self, A):
        if self.p == 2:
            return A.astype(np.int32)   # a copy, as every kernel returns
        # -1 = g^((q-1)/2)
        return self._log_shift(A, self._qm1 // 2)

    def mul_vec(self, A, B):
        out = self._log_shift(A, self._L.take(B))
        np.copyto(out, 0, where=B == 0)
        return out

    def scale_vec(self, c, A):
        if c == 0:
            return np.zeros_like(A, dtype=np.int32)
        return self._log_shift(A, self._log[c])

    def _log_shift(self, A, k):
        """g^(log A + k) with zeros kept, for k in [0, q-1) or an array of
        such logs: a sum of two logs, so one wrap reduces it."""
        idx = self._L.take(A)
        idx += k
        out = self._E.take(_wrap(idx, self._qm1))
        np.copyto(out, 0, where=A == 0)
        return out

    def pow_vec(self, A, e):
        if e == 0:
            return np.ones_like(A, dtype=np.int32)
        # log x * e passes 2^31, so the product is formed in int64
        idx = np.multiply(self._L.take(A), e % self._qm1, dtype=np.int64)
        idx %= self._qm1
        out = self._E[idx]
        out[A == 0] = 0
        return out

    def monomial_vec(self, c, e, lo, hi, runs):
        """c * x^e (c != 0, e != 0) at positions lo..hi of canonical order,
        where position 0 holds element 0 and position i + 1 holds g^i.

        The result is a gather of the exp table at log c + e * log x: a
        rotation for e = 1, and otherwise an arithmetic progression of
        indices.  runs, a dict that the slices of one evaluation share,
        keeps each progression with the position it starts at; a later
        slice moves it on in place, so only the first slice builds it.
        """
        qm1 = self._qm1
        k, e = self._log[c], e % qm1
        E = self._E
        count = hi - lo
        if e == 0:                      # x^(q-1) = 1 for x != 0
            out = np.full(count, E[k])
        elif e == 1:                    # position i holds g^(k + i - 1)
            start = (k - 1 + lo) % qm1
            head = min(count, qm1 - start)
            out = np.empty(count, dtype=np.int32)
            out[:head] = E[start:start + head]
            out[head:] = E[:count - head]
        else:
            out = E.take(self._progression_run(k, e, lo, count, runs))
        if lo == 0:
            out[0] = 0
        return out

    def _progression_run(self, k, e, lo, count, runs):
        """(k + e * (i - 1)) mod q-1 for the count positions i from lo, as an
        int64 array, kept in runs under (k, e).  A kept run is moved on from
        its position to lo by one add and one wrap, in place; slices come in
        ascending order, so it is never shorter than count."""
        qm1 = self._qm1
        run = runs.get((k, e))
        if run is None:
            idx = _progression((k + e * (lo - 1)) % qm1, e, count, qm1)
            runs[k, e] = [lo, idx]
            return idx
        at, idx = run
        if at != lo:
            _wrap(np.add(idx, e * (lo - at) % qm1, out=idx), qm1)
            run[0] = lo
        return idx[:count]

    def field_sum_vec(self, A):
        """Field sum of a 1-d array of codes."""
        if self.p == 2:
            return int(np.bitwise_xor.reduce(A)) if len(A) else 0
        digits = _digit_matrix(A, self.p, self.n).sum(axis=1) % self.p
        return _code_of([int(d) for d in digits], self.p)

    # -- text ---------------------------------------------------------------

    def format_element(self, a):
        if a == 0:
            return "0"
        if a == 1:
            return "1"
        return f"g^{self._log[a]}"

    def parse_element(self, text):
        """Element syntax: 0, 1, g, g^k, or a packed 0x/0b code.  k is
        decimal digits, after a '-' or not, at most MAX_EXPONENT; a code is
        hex or binary digits.  Nothing else goes in: no sign, space or
        underscore inside the element."""
        t = text.strip()
        if t == "0":
            return 0
        if t == "1":
            return 1
        if t == "g":
            return self.generator
        if t.startswith("g^"):
            negative = t.startswith("g^-")
            digits = t[2 + negative:]
            if not digits.isdecimal():
                raise ValueError(f"bad generator power {text!r}")
            k = read_exponent(digits)
            if k is None:
                raise ValueError(f"generator power {text!r} exceeds "
                                 f"{bound_text(MAX_EXPONENT)}")
            return self.gen_pow(-k if negative else k)
        if t[:2] in _PACKED_BASES:
            code = read_packed(t)
            if code is None:
                raise ValueError(f"bad packed element literal {text!r}")
            if code >= self.q:
                raise ValueError(f"element code {text} is not in GF({self.p}^{self.n})")
            return code
        raise ValueError(f"cannot parse element {text!r}: "
                         "expected 0, 1, g^k, or a 0x/0b packed code")

    def descriptor(self):
        return f"{self.p}^{self.n}:modulus={hex(self.modulus_code)}"

    def __repr__(self):
        return f"GF({self.p}^{self.n}, modulus={hex(self.modulus_code)})"


def _slices(count):
    """(lo, hi) bounds of the KERNEL_BLOCK slices that cover range(count), in
    order; a count up to KERNEL_BLOCK is one slice."""
    return ((lo, min(lo + KERNEL_BLOCK, count)) for lo in range(0, count, KERNEL_BLOCK))


def _uint32(x):
    """An array of codes as uint32: a view of int32, a copy of other dtypes."""
    return x.view(np.uint32) if x.dtype == np.int32 else x.astype(np.uint32)


def _digit_groups(p, n):
    """(W, k, T) for the odd-p add_vec: codes split into k groups of g
    base-p digits, W = p^g.  k is the fewest groups whose table T has at
    most ADD_TABLE_BOUND entries, and g the fewest digits that cover n in k
    groups, so that T is no larger than it needs to be.  T[u * W + v] is
    the digit-by-digit sum mod p of u, v < W, as uint16 (entries are below
    W <= 2^10), built one digit at a time from the p x p table.  One-digit
    groups (p > 32, and every prime field) add by a wrap and have no table."""
    widest = 1
    while p ** (2 * widest + 2) <= ADD_TABLE_BOUND:
        widest += 1
    k = -(-n // widest)
    g = -(-n // k)
    if g == 1:
        return p, n, None
    one = np.add.outer(np.arange(p, dtype=np.uint16), np.arange(p, dtype=np.uint16)) % p
    T, w = one, p
    for _ in range(g - 1):      # the next digit goes on top: (u_top, u_low) x (v_top, v_low)
        T = (one[:, None, :, None] * w + T[None, :, None, :]).reshape(p * w, p * w)
        w *= p
    return w, k, T.ravel()


def _wrap(x, m):
    """x mod m in place, for an int32 or int64 array x with entries in
    [0, 2m).  Viewed as uint32 or uint64 to match, x - m wraps above x
    exactly when x < m, so the smaller of the two is the residue; no entry
    is divided."""
    u = x.view(np.uint32 if x.dtype == np.int32 else np.uint64)
    np.minimum(u, u - m, out=u)
    return x


def _progression(a, e, count, m):
    """(a + i*e) mod m for i < count, as an int64 array.  The first
    PROGRESSION_HEAD entries come from %, which is all of them for a small
    count; then the array doubles: entries B.. are the first B entries plus
    e*B mod m, each sum below 2m, so one wrap reduces it."""
    if count <= PROGRESSION_HEAD:
        return np.arange(a, a + e * count, e) % m
    out = np.empty(count, dtype=np.int64)
    out[:PROGRESSION_HEAD] = np.arange(a, a + e * PROGRESSION_HEAD, e) % m
    width = PROGRESSION_HEAD
    while width < count:
        step = min(width, count - width)
        _wrap(np.add(out[:step], e * width % m, out=out[width:width + step]), m)
        width += step
    return out


def _digit_matrix(codes, p, n):
    """n x len(codes) float64 array; column j holds the base-p digits of codes[j]."""
    pw = p ** np.arange(n, dtype=np.int64)
    return ((np.asarray(codes, dtype=np.int64)[None, :] // pw[:, None]) % p
            ).astype(np.float64)


# [v, j]: bit j of v
_BYTE_BITS = (np.arange(256, dtype=np.int32)[:, None] >> np.arange(8, dtype=np.int32)) & 1


def _xor_multiplier(ctx, c):
    """p = 2: B -> c * B on an int32 array of codes, written into out when
    it is given.  The product is GF(2)-linear on bits, so it is the XOR over
    bytes b of T_b[byte b of B], where T_b[v] = c * (v << 8b) is the XOR of
    the c * x^j over the bits j of v << 8b.  The byte indices are intp,
    which take reads without a cast."""
    n = ctx.n
    cols = np.array([ctx._mul_notable(c, 1 << j) for j in range(n)] + [0] * (-n % 8),
                    dtype=np.int32)
    T = np.bitwise_xor.reduce(cols.reshape(-1, 1, 8) * _BYTE_BITS, axis=2)
    top = len(T) - 1

    def times(B, out=None):
        idx = np.bitwise_and(B, 255, dtype=np.intp)
        out = np.take(T[0], idx, out=out)
        for b in range(1, top + 1):
            np.right_shift(B, 8 * b, out=idx)
            if b < top:             # codes are below 2^n, so the top byte needs no mask
                idx &= 255
            out ^= T[b][idx]
        return out
    return times


def _matrix_multiplier(ctx, c):
    """Odd p: D -> c * D on an n x width float64 digit matrix, by the matrix
    whose column j holds the digits of c * x^j, mod p; when out is given,
    the product's codes are written into it."""
    p, n = ctx.p, ctx.n
    M = _digit_matrix([ctx._mul_notable(c, p ** j) for j in range(n)], p, n)
    pw = p ** np.arange(n, dtype=np.float64)

    def times(D, out=None):
        Y = M @ D
        quo = Y / p                     # Y mod p, without float remainder's cost
        np.floor(quo, out=quo)
        quo *= p
        Y -= quo
        if out is not None:
            out[:] = pw @ Y
        return Y
    return times


def _generator_powers(ctx, walk=TABLE_WALK, block=TABLE_BLOCK, out=None):
    """g^0, ..., g^(q-2) as an int32 array, g = ctx.generator, written into
    out when it is given.

    Multiplication by a fixed c is GF(p)-linear on digit vectors.  The first
    `walk` powers come from the scalar multiply (all of them in small
    fields, where numpy's overhead would dominate); as a block they then
    double until `block` powers, and each later block is g^block times the
    block before.  Only the block product differs by characteristic: for
    p = 2 a block is its codes, multiplied byte by byte through XOR tables
    and written straight into the output; for odd p it is its digit matrix,
    multiplied by an n x n GF(p) matrix (entries stay below n * p^2 <= q^2
    <= 2^48, so float64 matmul and floor division are exact), and only one
    block of digits is live at a time.
    """
    p, n, qm1 = ctx.p, ctx.n, ctx.q - 1
    multiplier = _xor_multiplier if p == 2 else _matrix_multiplier
    powers = [1]
    while len(powers) < min(walk, qm1):
        powers.append(ctx._mul_notable(powers[-1], ctx.generator))
    B = np.array(powers, dtype=np.int32) if p == 2 else _digit_matrix(powers, p, n)
    c = ctx._mul_notable(powers[-1], ctx.generator)  # invariant: c = g^(width of B)
    while B.shape[-1] < min(block, qm1):
        B = np.concatenate([B, multiplier(ctx, c)(B)], axis=-1)
        c = ctx._mul_notable(c, c)
    exp = np.empty(qm1, dtype=np.int32) if out is None else out
    width = B.shape[-1]
    exp[:width] = B[:qm1] if p == 2 else p ** np.arange(n, dtype=np.float64) @ B[:, :qm1]
    step = multiplier(ctx, c) if width < qm1 else None
    for start in range(width, qm1, width):
        dst = exp[start:start + width]
        B = step(B[..., :len(dst)], out=dst)
    return exp


def _find_generator(ctx, candidates):
    """The first candidate of full multiplicative order, by table-free
    powers; a^(q-1) = 1 is checked on the unreduced exponent."""
    qm1 = ctx.q - 1
    if qm1 == 1:
        return 1
    prime_divs = _prime_factors(qm1)
    for a in candidates:
        if ctx._pow_notable(a, qm1) == 1 and all(
                ctx._pow_notable(a, qm1 // r) != 1 for r in prime_divs):
            return a
    raise ValueError("no generator found (modulus not irreducible?)")


def build_field(p, n, modulus=None):
    """Construct GF(p^n) with its log tables.

    modulus may be a coefficient tuple/list (ascending, monic, degree n) or a
    packed integer code; default is the canonical smallest irreducible.
    A field above TABLE_BOUND is refused first, before p is tested or a
    modulus is searched for.
    """
    ctx = _table_free_field(p, n, modulus)
    ctx._build_tables()
    return ctx


def _table_free_field(p, n, modulus):
    """build_field's context before its tables are built: the validated
    modulus and the generator, which is all the field-info command reads.
    Nothing may read a table of it."""
    if n < 1:
        raise ValueError("extension degree must be positive")
    q = check_order(p, n)
    if _prime_factors(p) != [p]:
        raise ValueError(f"p={p} is not prime")

    if modulus is None:
        mod = canonical_modulus(p, n)
    else:
        if isinstance(modulus, int):
            # a monic degree-n code lies in [p^n, 2 p^n); digits would drop the rest
            if not p ** n <= modulus < 2 * p ** n:
                raise ValueError(f"modulus must be monic of degree {n}")
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

    ctx = FieldCtx(p, n, mod)
    # for n >= 2, codes below p are GF(p) elements, of order dividing p - 1 < q - 1
    ctx.generator = _find_generator(ctx, range(p if n > 1 else 1, q))
    return ctx


def parse_field_descriptor(text):
    """Parse "p^n" with optional ":modulus=0x...". Returns (p, n, modulus|None).
    p and n are decimal digits and the modulus a packed code, read as the
    integer options and --modulus are."""
    t = text.strip()
    modulus = None
    if ":" in t:
        t, _, opt = t.partition(":")
        key, _, val = opt.partition("=")
        if key.strip() != "modulus" or not val:
            raise ValueError(f"bad field descriptor option {opt!r}")
        modulus = read_modulus(val)
    ps, _, ns = t.partition("^") if "^" in t else (t, "", "1")
    if not (ps.isdecimal() and ns.isdecimal()):
        raise ValueError(f"bad field descriptor {text!r}: expected p^n "
                         "with decimal p and n")
    return (read_integer(ps, "field descriptor p"), read_integer(ns, "field descriptor n"),
            modulus)


def field_from_descriptor(text):
    p, n, modulus = parse_field_descriptor(text)
    return build_field(p, n, modulus)
