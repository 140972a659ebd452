"""Exact scalar arithmetic over the deformation parameter q.

Everything downstream is computed in the field Q(q) of rational functions of
q with integer coefficients.  Three layers live here:

- QRational: a rational function in Laurent normal form q**e * n(q)/d(q),
  with n(0) and d(0) nonzero, so a power of q is an exponent and never a
  run of zero coefficients.  The canonical form (n and d coprime, coprime
  integer contents, d with positive leading coefficient) makes ``==`` field
  equality, so every verification in the package is a syntactic comparison
  with zero tolerance.  A product by q**k is an exponent add (shifted): q**k
  is a unit of the normal form, so n and d stay as they are and no
  cancellation runs.  Other products add exponents and cancel only the
  cross pairs (n of one operand against d of the other); sums shift the
  operand with the higher exponent.  Common factors are the known ones
  q - 1, q + 1 and q**2 + 1, cancelled by trial division: a root test on
  coefficient sums, then exact synthetic division.  The oscillator action's
  denominators are integer * q**a * products of those factors; a
  denominator with some other factor is tried next against q**2 + q + 1
  and q**2 - q + 1, the factors of the [3]_q! in q-Serre sums, and only one
  with a factor outside all five falls back to a polynomial gcd (_pgcd).
  The dense numerator and denominator stay available as the read-only
  views ``num`` and ``den``.  QRational is hash-consed: there is one object
  per value, so ``==`` is identity and copies and pickles give back that
  object.  What is interned is the q-free core n/d of each value, in the
  table _VALUES under (n, d); each core keeps a table from e to the value
  q**e * n/d, so shifted(k) is an integer-keyed lookup.  The checks' scalars
  are powers of q times a few q-free fractions (kappa**-1, [2]_q**-1 and
  their products), so sums, products and negations are memoized on cores:
  _MUL under the two cores, _ADD under the two cores and the relative
  exponent e_y - e_x, _NEG under the core, and the result is shifted by the
  operands' exponents, so one entry serves every power of q (lifetime: see
  qloop.borelrep).

- USeries: a truncated power series in a spectral variable u with QRational
  coefficients, for display and comparison only; it has no arithmetic.

- URational: a rational function in u over QRational, built from a coprime
  numerator and denominator, with the denominator scaled to constant term
  one.  It displays and serializes the closed forms, and ``expand`` produces
  the matching USeries; it has no arithmetic and runs no gcd.

Polynomials in q (n and d above) are dense ascending coefficient tuples of
ints; the zero polynomial is the empty tuple.  Polynomials in u are dense
ascending tuples of QRational.
"""

from __future__ import annotations

import math
from functools import reduce

from .record import Frozen, Record


class ZeroConstantTerm(ValueError):
    """A URational denominator has a vanishing constant term, so it is no power-series unit."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense ascending tuples, () == 0)

def _ptrim(cs) -> tuple:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b, k):
    # a + q**k * b, k >= 0
    out = list(a)
    if len(out) < len(b) + k:
        out.extend([0] * (len(b) + k - len(out)))
    for i, c in enumerate(b, k):
        out[i] += c
    return _ptrim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    if len(a) == 1:
        c = a[0]
        return b if c == 1 else tuple(c * x for x in b)
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    out[j] += ca * cb
    return _ptrim(out)


def _pshift(a, k):
    # multiply by q**k, k >= 0
    return ((0,) * k + tuple(a)) if a else ()


def _pval(a) -> int:
    # q-adic valuation; undefined for 0 (callers guard)
    v = 0
    while a[v] == 0:
        v += 1
    return v


def _pcontent(a) -> int:
    return reduce(math.gcd, a, 0)


def _pprim(a):
    c = _pcontent(a)
    if c in (0, 1):
        return tuple(a)
    return tuple(x // c for x in a)


def _pterms(a) -> int:
    return sum(1 for c in a if c)


def _prem(a, b):
    # pseudo-remainder of a by b (nonzero), up to integer factors
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    while len(r) - 1 >= db and r:
        c = r[-1]
        r = [lb * x for x in r]
        k = len(r) - 1 - db
        for idx in range(db + 1):
            r[k + idx] -= c * b[idx]
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _pgcd(a, b):
    # gcd of the primitive parts, positive leading coefficient
    a = _pprim(a)
    b = _pprim(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return (1,)
        r = _prem(a, b)
        a, b = b, _pprim(r)
    return a if a[-1] > 0 else _pneg(a)


# Trial division by the known factors q - 1, q + 1 and q**2 + 1: each is
# irreducible and monic, divides a exactly when a vanishes at its roots (1,
# -1, +-i), and is divided out from the top coefficient down (Horner).

def _divides_qm1(a) -> bool:
    return sum(a) == 0


def _divides_qp1(a) -> bool:
    return sum(a[0::2]) == sum(a[1::2])


def _divides_q2p1(a) -> bool:
    return sum(a[0::4]) == sum(a[2::4]) and sum(a[1::4]) == sum(a[3::4])


def _div_qm1(a):
    out = list(a[1:])
    for k in range(len(out) - 1, 0, -1):
        out[k - 1] += out[k]
    return tuple(out)


def _div_qp1(a):
    out = list(a[1:])
    for k in range(len(out) - 1, 0, -1):
        out[k - 1] -= out[k]
    return tuple(out)


def _div_q2p1(a):
    out = list(a[2:])
    for k in range(len(out) - 1, 1, -1):
        out[k - 2] -= out[k]
    return tuple(out)


# q**2 + q + 1 and q**2 - q + 1 (roots: the primitive cube and sixth roots of
# unity) are the factors of [3]_q = q**-2 (q**2 + q + 1)(q**2 - q + 1); only
# the [3]_q! denominators of the q-Serre sums carry them.

def _divides_q2pqp1(a) -> bool:
    return sum(a[0::3]) == sum(a[1::3]) == sum(a[2::3])


def _divides_q2mqp1(a) -> bool:
    # a at a primitive sixth root z (z**3 = -1, z**2 = z - 1) is
    # (t0 - t2) + (t1 + t2) z, with t_r the signed sums over k = r mod 3
    t0 = sum(a[0::6]) - sum(a[3::6])
    t1 = sum(a[1::6]) - sum(a[4::6])
    t2 = sum(a[2::6]) - sum(a[5::6])
    return t0 == t2 == -t1


def _div_q2pqp1(a):
    out = list(a[2:])
    for k in range(len(out) - 1, 0, -1):
        out[k - 1] -= out[k]
        if k > 1:
            out[k - 2] -= out[k]
    return tuple(out)


def _div_q2mqp1(a):
    out = list(a[2:])
    for k in range(len(out) - 1, 0, -1):
        out[k - 1] += out[k]
        if k > 1:
            out[k - 2] -= out[k]
    return tuple(out)


_KNOWN_FACTORS = (
    (_divides_qm1, _div_qm1),
    (_divides_qp1, _div_qp1),
    (_divides_q2p1, _div_q2p1),
)
_Q3_FACTORS = (
    (_divides_q2pqp1, _div_q2pqp1),
    (_divides_q2mqp1, _div_q2mqp1),
)


def _trial_divide(num, den, rest, factors):
    """Cancel each factor from num and den as often as both have it, and
    divide every copy of it out of rest (den with the factors tried so far
    removed)."""
    for divides, divide in factors:
        common = True
        while divides(rest):
            rest = divide(rest)
            common = common and divides(num)
            if common:
                num = divide(num)
                den = divide(den)
    return num, den, rest


def _cancel(num, den):
    """num and den (each non-constant, with nonzero constant terms) over their gcd.

    The known factors are cancelled by trial division, then the factors of
    [3]_q if some other factor is left.  If the denominator is an integer
    times a product of these factors, no other common factor can exist;
    otherwise the pair, already reduced, goes to _pgcd.
    """
    num, den, rest = _trial_divide(num, den, den, _KNOWN_FACTORS)
    if len(rest) > 1:
        num, den, rest = _trial_divide(num, den, rest, _Q3_FACTORS)
    if len(rest) > 1:
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivexact(num, g)
            den = _pdivexact(den, g)
    return num, den


def _pdivexact(a, b):
    # exact quotient a / b in Z[q]; raises if the division is not exact
    if not a:
        return ()
    la, lb = len(a), len(b)
    r = list(a)
    out = [0] * (la - lb + 1)
    for k in range(la - lb, -1, -1):
        c = r[k + lb - 1]
        if c % b[-1]:
            raise ArithmeticError("inexact polynomial division")
        c //= b[-1]
        out[k] = c
        if c:
            for idx in range(lb):
                r[k + idx] -= c * b[idx]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _ptrim(out)


def _pstr(a, shift=0) -> str:
    # q**shift * a
    if not a:
        return "0"
    parts = []
    for e, c in enumerate(a, shift):
        if not c:
            continue
        if e == 0:
            parts.append(f"{c}")
        else:
            mag = "q" if e == 1 else f"q^{e}"
            if c == 1:
                parts.append(mag)
            elif c == -1:
                parts.append(f"-{mag}")
            else:
                parts.append(f"{c}*{mag}")
    s = parts[0]
    for p in parts[1:]:
        s += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return s


class QRational(Frozen):
    """A rational function of q with integer coefficients, fully reduced.

    Stored in Laurent normal form q**e * n/d with n(0) and d(0) nonzero; the
    dense numerator and denominator are the read-only views ``num`` and
    ``den``.  The public constructor normalizes any dense pair.

    There is one object per value: every construction ends in _make, so
    equality is identity and the hash is the object's.  Each value points to
    its core (_core), the interned q-free value n/d with e = 0, found in
    _VALUES under (n, d); a core and every shift of it share one table
    (_shifts) from e to the value q**e * n/d.  shifted(k), the product by
    q**k, is a lookup in that table and reads neither _MUL nor _canon.
    ``*`` looks up the two cores in _MUL and shifts the result by e_x + e_y;
    ``+`` looks up the two cores and e_y - e_x in _ADD and shifts the result
    by e_x; ``-x`` shifts _NEG's negation of the core by e_x.  ``-``, ``/``
    and the reflected operators go through these (lifetime: qloop.borelrep).
    """

    __slots__ = ("_e", "_n", "_d", "_core", "_shifts")

    def __new__(cls, num, den=(1,)):
        if isinstance(num, int):
            num = (num,) if num else ()
        if isinstance(den, int):
            den = (den,) if den else ()
        num = _ptrim(num)
        den = _ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in QRational")
        if not num:
            return _QR_ZERO
        vn, vd = _pval(num), _pval(den)
        return _canon(vn - vd, num[vn:], den[vd:], True)

    def __init__(self, num, den=(1,)):
        """A no-op (__new__ returns the interned value); perfbench's tracer counts constructions here."""

    # -- constructors

    @staticmethod
    def zero() -> "QRational":
        return _QR_ZERO

    @staticmethod
    def one() -> "QRational":
        return _QR_ONE

    @staticmethod
    def from_int(n: int) -> "QRational":
        return _make(0, (n,), (1,)) if n else _QR_ZERO

    @staticmethod
    def q_power(k: int) -> "QRational":
        """q**k for any integer k."""
        return _make(k, (1,), (1,))

    def shifted(self, k: int) -> "QRational":
        """self * q**k, as an exponent add: q**k is a unit of the Laurent
        normal form, so the value is found in the core's table, without _MUL
        or _canon."""
        if not k or not self._n:
            return self
        e = self._e + k
        r = self._shifts.get(e)
        return _new_shift(self._core, e) if r is None else r

    # -- predicates and views

    @property
    def num(self) -> tuple:
        """The numerator as a dense coefficient tuple."""
        return _pshift(self._n, self._e) if self._e > 0 else self._n

    @property
    def den(self) -> tuple:
        """The denominator as a dense coefficient tuple."""
        return _pshift(self._d, -self._e) if self._e < 0 else self._d

    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self) -> bool:
        return bool(self._n)

    def as_q_power(self):
        """The integer k with self == q**k, or None."""
        if self._n == (1,) and self._d == (1,):
            return self._e
        return None

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, QRational):
            return other
        if isinstance(other, int):
            return QRational.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = other if type(other) is QRational else self._coerce(other)
        if o is NotImplemented:
            return o
        if not o._n:
            return self
        if not self._n:
            return o
        e = self._e
        key = (self._core, o._core, o._e - e)
        r = _ADD.get(key)
        if r is None:
            r = _ADD[key] = _add(*key)
        return r.shifted(e)

    __radd__ = __add__

    def __neg__(self):
        c = self._core
        r = _NEG.get(c)
        if r is None:
            r = _NEG[c] = _make(0, _pneg(c._n), c._d)
        return r.shifted(self._e)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = other if type(other) is QRational else self._coerce(other)
        if o is NotImplemented:
            return o
        key = (self._core, o._core)
        r = _MUL.get(key)
        if r is None:
            r = _MUL[key] = _mul(*key)
        return r.shifted(self._e + o._e)

    __rmul__ = __mul__

    def inv(self) -> "QRational":
        n, d = self._d, self._n
        if not d:
            raise ZeroDivisionError("inverse of zero QRational")
        if d[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return _make(-self._e, n, d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        # powers of coprime n and d stay coprime, with coprime contents
        n = d = (1,)
        for _ in range(k):
            n = _pmul(n, self._n)
            d = _pmul(d, self._d)
        return _make(k * self._e if n else 0, n, d)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self is o

    __hash__ = object.__hash__

    def __reduce__(self):
        return _make, (self._e, self._n, self._d)

    def __repr__(self):
        e, n, d = self._e, self._n, self._d
        ns = _pstr(n, max(e, 0))
        if e >= 0 and d == (1,):
            return ns
        if _pterms(n) > 1:
            ns = f"({ns})"
        ds = _pstr(d, max(-e, 0))
        if _pterms(d) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"


_set_e = QRational._e.__set__
_set_n = QRational._n.__set__
_set_d = QRational._d.__set__
_set_core = QRational._core.__set__
_set_shifts = QRational._shifts.__set__


# (n, d) -> the core n/d, whose _shifts table maps e -> q**e * n/d; (core x,
# core y) -> x * y, (core x, core y, k) -> x + q**k y, and core x -> -x.
_VALUES = {}
_MUL = {}
_ADD = {}
_NEG = {}


def _make(e, n, d) -> QRational:
    # q**e * n/d, already in Laurent normal form; n and d are tuples
    core = _VALUES.get((n, d))
    if core is None:
        core = object.__new__(QRational)
        _set_e(core, 0)
        _set_n(core, n)
        _set_d(core, d)
        _set_core(core, core)
        _set_shifts(core, {0: core})
        _VALUES[n, d] = core
    return core.shifted(e)


def _new_shift(core, e) -> QRational:
    # q**e * core, not yet in the core's table (e != 0, core nonzero)
    r = object.__new__(QRational)
    _set_e(r, e)
    _set_n(r, core._n)
    _set_d(r, core._d)
    _set_core(r, core)
    shifts = core._shifts
    _set_shifts(r, shifts)
    shifts[e] = r
    return r


def _mul(x, y) -> QRational:
    """The core x * y of two cores."""
    xn, yn = x._n, y._n
    if not xn or not yn:
        return _QR_ZERO
    xd, yd = x._d, y._d
    # each operand is reduced, so only the cross pairs can share factors
    if len(yd) > 1 and len(xn) > 1:
        xn, yd = _cancel(xn, yd)
    if len(xd) > 1 and len(yn) > 1:
        yn, xd = _cancel(yn, xd)
    return _canon(0, _pmul(xn, yn), _pmul(xd, yd), False)


def _add(x, y, k) -> QRational:
    """x + q**k * y for two nonzero cores."""
    xn, yn, xd, yd = x._n, y._n, x._d, y._d
    # line up the powers of q: shift the operand with the higher exponent
    e = 0
    if k < 0:
        xn, yn, xd, yd, k, e = yn, xn, yd, xd, -k, k
    if xd == yd:
        return _canon(e, _padd(xn, yn, k), xd, len(xd) > 1)
    # common factors of the sum and d can only come from gcd(xd, yd)
    return _canon(e, _padd(_pmul(xn, yd), _pmul(yn, xd), k), _pmul(xd, yd),
                  len(xd) > 1 and len(yd) > 1)


def _canon(e, n, d, cancel) -> QRational:
    """q**e * n/d in Laurent normal form; d(0) != 0 and n is trimmed.

    n may start with zeros (a sum whose constant terms cancelled).  The caller
    passes cancel=False when n and d can share no polynomial factor.
    """
    if not n:
        return _QR_ZERO
    if not n[0]:
        v = _pval(n)
        e += v
        n = n[v:]
    if cancel and len(n) > 1 and len(d) > 1:
        n, d = _cancel(n, d)
    g = math.gcd(*d)
    if g != 1:
        g = math.gcd(g, *n)
        if g != 1:
            n = tuple(c // g for c in n)
            d = tuple(c // g for c in d)
    if d[-1] < 0:
        n, d = _pneg(n), _pneg(d)
    return _make(e, n, d)


_QR_ZERO = _make(0, (), (1,))
_QR_ONE = _make(0, (1,), (1,))


def kappa() -> QRational:
    """kappa_q = q - q**-1."""
    return _KAPPA


_KAPPA = QRational((-1, 0, 1), (0, 1))


def qnum(n: int) -> QRational:
    """The q-number [n]_q = (q**n - q**-n) / (q - q**-1)."""
    if n == 0:
        return _QR_ZERO
    if n < 0:
        return -qnum(-n)
    # [n] = q**(1-n) (1 + q**2 + ... + q**(2n-2)), already in lowest terms
    return _make(1 - n, tuple(1 if k % 2 == 0 else 0 for k in range(2 * n - 1)), (1,))


def qfactorial(n: int) -> QRational:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    if n == 0:
        return _QR_ONE
    return qfactorial(n - 1) * qnum(n)


# ---------------------------------------------------------------------------
# truncated power series in u

class USeries(Record):
    """Power series in u over QRational, truncated at a fixed order.

    A display and comparison record: it has no arithmetic.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = []
        for c in coeffs:
            if isinstance(c, int):
                c = QRational.from_int(c)
            cs.append(c)
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        while len(cs) < order + 1:
            cs.append(_QR_ZERO)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def coeff(self, k: int) -> QRational:
        return self.coeffs[k] if 0 <= k <= self.order else _QR_ZERO

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append(f"({c!r})*u^{k}" if k else f"{c!r}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(u^{self.order + 1})"


# ---------------------------------------------------------------------------
# polynomials in u over QRational (dense ascending tuples)

def _utrim(cs) -> tuple:
    n = len(cs)
    while n and cs[n - 1].is_zero():
        n -= 1
    return tuple(cs[:n])


class URational(Record):
    """A rational function of u over QRational, for display and comparison.

    The numerator and denominator must be coprime, as the closed forms'
    factors are; no gcd over Q(q)[u] runs.  The denominator must be a
    power-series unit (nonzero constant term) and is scaled to constant term
    one, so the form is canonical and equality is syntactic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = (_QR_ONE,)
        num = _utrim([QRational.from_int(c) if isinstance(c, int) else c for c in num])
        den = _utrim([QRational.from_int(c) if isinstance(c, int) else c for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator in URational")
        if not num:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", (_QR_ONE,))
            return
        c0 = den[0]
        if c0.is_zero():
            raise ZeroConstantTerm("URational denominator has zero constant term")
        if c0 != _QR_ONE:
            i0 = c0.inv()
            num = tuple(c * i0 for c in num)
            den = tuple(c * i0 for c in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def expand(self, order: int) -> USeries:
        """Power-series expansion to the given order.

        The denominator has constant term one (``__init__`` scales it so), so
        the coefficients solve c_n = a_n - sum_{k=1}^{min(n, deg d)} d_k c_{n-k}.
        """
        a, d = self.num, self.den
        out = []
        for n in range(order + 1):
            acc = a[n] if n < len(a) else _QR_ZERO
            for k in range(1, min(n, len(d) - 1) + 1):
                acc = acc - d[k] * out[n - k]
            out.append(acc)
        return USeries(order, out)

    def __repr__(self):
        def ustr(poly):
            parts = []
            for k, c in enumerate(poly):
                if c.is_zero():
                    continue
                parts.append(f"({c!r})*u^{k}" if k else f"({c!r})")
            return " + ".join(parts) if parts else "0"
        if self.den == (_QR_ONE,):
            return ustr(self.num)
        return f"[{ustr(self.num)}] / [{ustr(self.den)}]"


# ---------------------------------------------------------------------------
# JSON-facing serialization (deterministic, exact)

def qpoly_to_json(poly, shift: int = 0) -> list:
    """q**shift * poly as a sorted sparse list of [exponent, coefficient-string]."""
    return [[e, str(c)] for e, c in enumerate(poly, shift) if c]


def qrational_to_json(x: QRational) -> dict:
    e = x._e
    return {"num": qpoly_to_json(x._n, max(e, 0)), "den": qpoly_to_json(x._d, max(-e, 0))}


def upoly_to_json(poly) -> list:
    return [[e, qrational_to_json(c)] for e, c in enumerate(poly) if not c.is_zero()]


def urational_to_json(r: URational) -> dict:
    return {"num": upoly_to_json(r.num), "den": upoly_to_json(r.den)}
