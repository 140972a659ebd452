"""Exact scalar arithmetic over the deformation parameter q.

Everything downstream is computed in the field Q(q) of rational functions of
q with integer coefficients.  Three layers live here:

- QRational: a rational function in Laurent normal form q**e * n(q)/d(q),
  with n(0) and d(0) nonzero, so a power of q is an exponent and never a
  run of zero coefficients.  The canonical form (n and d coprime, coprime
  integer contents, d with positive leading coefficient) makes ``==`` field
  equality, so every verification in the package is a syntactic comparison
  with zero tolerance.  Products add exponents and cancel only the cross
  pairs (n of one operand against d of the other); sums shift the operand
  with the higher exponent.  Common factors are the known ones q - 1, q + 1
  and q**2 + 1, cancelled by trial division: a root test on coefficient
  sums, then exact synthetic division.  The oscillator action's
  denominators are integer * q**a * products of those factors, so only a
  denominator with some other factor falls back to a polynomial gcd
  (_pgcd).  The dense numerator and denominator stay available as the
  read-only views ``num`` and ``den``.

- USeries: a truncated power series in a spectral variable u with QRational
  coefficients, closed under ring operations, inversion (unit constant term)
  and logarithm (constant term one).

- URational: a rational function in u over QRational, normalized so that
  numerator and denominator are coprime and the denominator has constant
  term one.  These are the closed forms the series computations are checked
  against; ``expand`` produces the matching USeries and ``pade`` goes back.

Polynomials in q (n and d above) are dense ascending coefficient tuples of
ints; the zero polynomial is the empty tuple.  Polynomials in u are dense
ascending tuples of QRational.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce


class ZeroConstantTerm(ValueError):
    """Series or denominator has a vanishing constant term where a unit is required."""


class ConstantTermNotOne(ValueError):
    """Series logarithm needs constant term exactly one."""


class DegreeMismatch(ValueError):
    """No rational function of the requested degrees reproduces the series."""


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


_KNOWN_FACTORS = (
    (_divides_qm1, _div_qm1),
    (_divides_qp1, _div_qp1),
    (_divides_q2p1, _div_q2p1),
)


def _cancel(num, den):
    """num and den (each non-constant, with nonzero constant terms) over their gcd.

    The known factors are cancelled by trial division.  If the denominator is
    an integer times a product of known factors, no other common factor can
    exist; otherwise the pair, already reduced, goes to _pgcd.
    """
    rest = den
    for divides, divide in _KNOWN_FACTORS:
        common = True
        while divides(rest):
            rest = divide(rest)
            common = common and divides(num)
            if common:
                num = divide(num)
                den = divide(den)
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


class QRational:
    """A rational function of q with integer coefficients, fully reduced.

    Stored in Laurent normal form q**e * n/d with n(0) and d(0) nonzero; the
    dense numerator and denominator are the read-only views ``num`` and
    ``den``.  The public constructor normalizes any dense pair.
    """

    __slots__ = ("_e", "_n", "_d")

    def __init__(self, num, den=(1,)):
        if isinstance(num, int):
            num = (num,) if num else ()
        if isinstance(den, int):
            den = (den,) if den else ()
        num = _ptrim(num)
        den = _ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in QRational")
        if num:
            vn, vd = _pval(num), _pval(den)
            r = _canon(vn - vd, num[vn:], den[vd:], True)
            e, num, den = r._e, r._n, r._d
        else:
            e, den = 0, (1,)
        _set_e(self, e)
        _set_n(self, num)
        _set_d(self, den)

    def __setattr__(self, *args):
        raise AttributeError("QRational is immutable")

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
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        xn, yn = self._n, o._n
        if not xn:
            return o
        if not yn:
            return self
        xd, yd = self._d, o._d
        # line up the powers of q: shift the operand with the higher exponent
        k = o._e - self._e
        if k < 0:
            xn, yn, xd, yd, k = yn, xn, yd, xd, -k
        e = min(self._e, o._e)
        if xd == yd:
            return _canon(e, _padd(xn, yn, k), xd, len(xd) > 1)
        # common factors of the sum and d can only come from gcd(xd, yd)
        return _canon(e, _padd(_pmul(xn, yd), _pmul(yn, xd), k), _pmul(xd, yd),
                      len(xd) > 1 and len(yd) > 1)

    __radd__ = __add__

    def __neg__(self):
        if not self._n:
            return self
        return _make(self._e, _pneg(self._n), self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        xn, yn = self._n, o._n
        if not xn or not yn:
            return _QR_ZERO
        xd, yd = self._d, o._d
        # each operand is reduced, so only the cross pairs can share factors
        if len(yd) > 1 and len(xn) > 1:
            xn, yd = _cancel(xn, yd)
        if len(xd) > 1 and len(yn) > 1:
            yn, xd = _cancel(yn, xd)
        return _canon(self._e + o._e, _pmul(xn, yn), _pmul(xd, yd), False)

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
        return self._e == o._e and self._n == o._n and self._d == o._d

    def __hash__(self):
        return hash((self._e, self._n, self._d))

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


def _make(e, n, d) -> QRational:
    # q**e * n/d, already in Laurent normal form
    r = object.__new__(QRational)
    _set_e(r, e)
    _set_n(r, n)
    _set_d(r, d)
    return r


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


@lru_cache(maxsize=None)
def qnum(n: int) -> QRational:
    """The q-number [n]_q = (q**n - q**-n) / (q - q**-1)."""
    if n == 0:
        return _QR_ZERO
    if n < 0:
        return -qnum(-n)
    # [n] = q**(1-n) (1 + q**2 + ... + q**(2n-2)), already in lowest terms
    return _make(1 - n, tuple(1 if k % 2 == 0 else 0 for k in range(2 * n - 1)), (1,))


@lru_cache(maxsize=None)
def qfactorial(n: int) -> QRational:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    if n == 0:
        return _QR_ONE
    return qfactorial(n - 1) * qnum(n)


# ---------------------------------------------------------------------------
# truncated power series in u

class USeries:
    """Power series in u over QRational, truncated at a fixed order."""

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

    def __setattr__(self, *args):
        raise AttributeError("USeries is immutable")

    @staticmethod
    def one(order: int) -> "USeries":
        return USeries(order, (_QR_ONE,))

    def coeff(self, k: int) -> QRational:
        return self.coeffs[k] if 0 <= k <= self.order else _QR_ZERO

    def truncate(self, order: int) -> "USeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return USeries(order, self.coeffs[: order + 1])

    def _meet(self, other):
        if isinstance(other, (int, QRational)):
            other = USeries(self.order, (other,))
        k = min(self.order, other.order)
        return self.truncate(k), other.truncate(k)

    def __add__(self, other):
        a, b = self._meet(other)
        return USeries(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return USeries(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        a, b = self._meet(other)
        return USeries(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, QRational)):
            c = QRational.from_int(other) if isinstance(other, int) else other
            return USeries(self.order, tuple(c * x for x in self.coeffs))
        a, b = self._meet(other)
        out = [_QR_ZERO] * (a.order + 1)
        for i, ca in enumerate(a.coeffs):
            if ca.is_zero():
                continue
            for j in range(a.order + 1 - i):
                cb = b.coeffs[j]
                if not cb.is_zero():
                    out[i + j] = out[i + j] + ca * cb
        return USeries(a.order, out)

    __rmul__ = __mul__

    def scale_var(self, c: QRational) -> "USeries":
        """Substitute u -> c*u."""
        out, p = [], _QR_ONE
        for x in self.coeffs:
            out.append(x * p)
            p = p * c
        return USeries(self.order, out)

    def derivative(self) -> "USeries":
        if self.order == 0:
            return USeries(0)
        return USeries(
            self.order - 1,
            tuple(QRational.from_int(k) * self.coeffs[k] for k in range(1, self.order + 1)),
        )

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append(f"({c!r})*u^{k}" if k else f"{c!r}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(u^{self.order + 1})"


def series_invert(s: USeries) -> USeries:
    """Multiplicative inverse of a series with unit constant term."""
    c0 = s.coeff(0)
    if c0.is_zero():
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    i0 = c0.inv()
    out = [i0]
    for n in range(1, s.order + 1):
        acc = _QR_ZERO
        for k in range(1, n + 1):
            ck = s.coeff(k)
            if not ck.is_zero():
                acc = acc + ck * out[n - k]
        out.append(-i0 * acc)
    return USeries(s.order, out)


def series_log(s: USeries) -> USeries:
    """log of a series with constant term one, via termwise-integrated s'/s."""
    if s.coeff(0) != _QR_ONE:
        raise ConstantTermNotOne("series logarithm needs constant term 1")
    if s.order == 0:
        return USeries(0)
    r = s.derivative() * series_invert(s.truncate(s.order - 1))
    out = [_QR_ZERO]
    for n in range(1, s.order + 1):
        out.append(r.coeff(n - 1) / QRational.from_int(n))
    return USeries(s.order, out)


# ---------------------------------------------------------------------------
# polynomials in u over QRational (dense ascending tuples)

def _utrim(cs) -> tuple:
    n = len(cs)
    while n and cs[n - 1].is_zero():
        n -= 1
    return tuple(cs[:n])


def _umod(a, b):
    r = list(a)
    db = len(b) - 1
    ib = b[-1].inv()
    while len(r) - 1 >= db:
        c = r[-1] * ib
        k = len(r) - 1 - db
        for idx in range(db + 1):
            r[k + idx] = r[k + idx] - c * b[idx]
        r.pop()
        while r and r[-1].is_zero():
            r.pop()
    return tuple(r)


def _udivexact(a, b):
    if not a:
        return ()
    r = list(a)
    db = len(b) - 1
    ib = b[-1].inv()
    out = [_QR_ZERO] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = r[k + db] * ib
        out[k] = c
        if not c.is_zero():
            for idx in range(db + 1):
                r[k + idx] = r[k + idx] - c * b[idx]
    if any(not x.is_zero() for x in r):
        raise ArithmeticError("inexact polynomial division in u")
    return _utrim(out)


def _ugcd(a, b):
    a, b = _utrim(a), _utrim(b)
    while b:
        a, b = b, _umod(a, b)
    if not a:
        return ()
    ia = a[-1].inv()
    return tuple(c * ia for c in a)


class URational:
    """A rational function of u over QRational.

    Canonical form: numerator and denominator coprime, denominator constant
    term equal to one, so equality is syntactic.  The denominator must be a
    power-series unit (nonzero constant term).  A caller that knows the two
    are coprime passes coprime=True, which skips the gcd over Q(q)[u].
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, *, coprime: bool = False):
        if den is None:
            den = (_QR_ONE,)
        num = _utrim([QRational.from_int(c) if isinstance(c, int) else c for c in num])
        den = _utrim([QRational.from_int(c) if isinstance(c, int) else c for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator in URational")
        if not coprime and len(num) > 1 and len(den) > 1:
            g = _ugcd(num, den)
            if len(g) > 1:
                num = _udivexact(num, g)
                den = _udivexact(den, g)
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

    def __setattr__(self, *args):
        raise AttributeError("URational is immutable")

    @property
    def num_degree(self) -> int:
        return len(self.num) - 1 if self.num else -1

    @property
    def den_degree(self) -> int:
        return len(self.den) - 1

    def constant_term(self) -> QRational:
        return self.num[0] if self.num else _QR_ZERO

    def expand(self, order: int) -> USeries:
        """Power-series expansion to the given order."""
        n = USeries(order, self.num)
        d = USeries(order, self.den)
        return n * series_invert(d)

    def __eq__(self, other):
        if not isinstance(other, URational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

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


def _nullspace_vector(rows, width):
    """One nonzero solution of rows . x = 0 over QRational, x of length width."""
    rows = [list(r) for r in rows]
    pivots = {}  # column -> reduced row, kept in full reduced echelon form
    for row in rows:
        for col, prow in pivots.items():
            c = row[col]
            if not c.is_zero():
                for k in range(width):
                    row[k] = row[k] - c * prow[k]
        lead = next((k for k in range(width) if not row[k].is_zero()), None)
        if lead is None:
            continue
        inv = row[lead].inv()
        row = [c * inv for c in row]
        for prow in pivots.values():
            c = prow[lead]
            if not c.is_zero():
                for k in range(width):
                    prow[k] = prow[k] - c * row[k]
        pivots[lead] = row
    free = next(k for k in range(width) if k not in pivots)
    x = [_QR_ZERO] * width
    x[free] = _QR_ONE
    for col, prow in pivots.items():
        acc = _QR_ZERO
        for k in range(width):
            if k != col and not prow[k].is_zero():
                acc = acc + prow[k] * x[k]
        x[col] = -acc
    return x


def pade(s: USeries, num_deg: int, den_deg: int) -> URational:
    """Reconstruct the rational function of the given degrees from a series.

    The linearized system num = den * s (mod u**(num_deg+den_deg+1)) is solved
    for the denominator by a nullspace computation, and the candidate is
    re-expanded and compared against s through order num_deg + den_deg; any
    mismatch raises DegreeMismatch.  The series must carry at least that many
    coefficients.
    """
    if num_deg < 0 or den_deg < 0:
        raise ValueError("pade degrees must be >= 0")
    k = num_deg + den_deg
    if s.order < k:
        raise ValueError("series order too small for the requested pade degrees")
    c = s.coeff
    rows = [
        [c(num_deg + 1 + r - j) if num_deg + 1 + r - j >= 0 else _QR_ZERO
         for j in range(den_deg + 1)]
        for r in range(den_deg)
    ]
    b = _nullspace_vector(rows, den_deg + 1)
    num = []
    for kk in range(num_deg + 1):
        acc = _QR_ZERO
        for j in range(min(kk, den_deg) + 1):
            if not b[j].is_zero():
                acc = acc + b[j] * c(kk - j)
        num.append(acc)
    try:
        cand = URational(num, b)
    except ZeroConstantTerm as exc:
        raise DegreeMismatch("series is not a (num_deg, den_deg) rational function") from exc
    if cand.num_degree > num_deg or cand.den_degree > den_deg:
        raise DegreeMismatch("series is not a (num_deg, den_deg) rational function")
    again = cand.expand(k)
    if any(again.coeff(j) != c(j) for j in range(k + 1)):
        raise DegreeMismatch("series is not a (num_deg, den_deg) rational function")
    return cand


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
