"""l-weights of the q-oscillator Borel representations and factorizations.

Every Fock basis vector v_m of a representation theta_a (or its mirrored
counterpart) is an l-weight vector: each q**h_i acts by an integer power of
q and the generating series

    phi_i(u) = q**h_i (1 - kappa_q e'_{delta, alpha_i}(-o_i u))

acts diagonally with an eigenvalue that is a rational function Psi_i(u) of
the spectral variable.  This module computes the eigenvalue series directly
from the operator realization (phi_series), states the closed rational
expressions for Psi_i and the weight lambda (closed_psi, closed_lambda), and
combines the l-weights of one-dimensional shifts, prefundamental modules and
oscillator modules to check the factorization identities relating the two
families (factor_check).

Factored form.  Every closed Psi_i(u) = q**<lambda, h_i> prod_x (1 - x u)**k_x
is a Drinfeld rational fraction, so an l-weight (LWeight) is a weight plus,
per node, roots x with nonzero multiplicities k_x; products add both.  The
series the operator side is checked against (closed_psi_series) is expanded
straight from the factors, a product of binomials and geometric series, so
no gcd over Q(q)[u] runs; closed_psi multiplies the factors out into a
URational only for display, JSON and Pade.

Twist conventions.  The spectral twist enters every eigenvalue through the
single combination zs = zeta**s, kept as one exact scalar: a twisted series
is the untwisted one with u -> zs*u.  Mirrored representations satisfy

    Psi-bar_{i, m, a}(u) = Psi_{l-i+1, m, l-a+2}(-(-1)**l u),
    lambda-bar_{m, a}    = iota(lambda_{m, l-a+2}),

with iota(omega_i) = omega_{l-i+1}.  Weights are written over the fundamental
weights omega_1 .. omega_l; the affine pairing is fixed by level zero,
<lambda, h_0> = -sum_i <lambda, h_i>.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .borelrep import RepSpec, get_evaluator
from .exactfield import QRational, URational, USeries, kappa, qrational_to_json
from .rootsys import CartanExponent, o_sign
from .rootvectors import e_prime_imag

_ONE = QRational.one()
_ZERO = QRational.zero()


class NotDiagonal(Exception):
    """An imaginary root vector failed to act diagonally on a basis vector.

    off holds the (target, coefficient) pairs of the action away from v_m.
    """

    def __init__(self, spec: RepSpec, i: int, n: int, m: tuple, off=()):
        super().__init__(
            f"e'({n}delta, alpha_{i}) is not diagonal on v_{m} for l={spec.l}, "
            f"a={spec.a}, bar={spec.bar}"
        )
        self.spec = spec
        self.i = i
        self.n = n
        self.m = m
        self.off = tuple(off)


@dataclass(frozen=True)
class Weight:
    """An integral weight over the fundamental weights omega_1 .. omega_l."""

    l: int
    omega: tuple

    def __post_init__(self):
        if len(self.omega) != self.l:
            raise ValueError("need one coefficient per fundamental weight")

    @classmethod
    def zero(cls, l: int) -> "Weight":
        return cls(l, (0,) * l)

    @classmethod
    def fundamental(cls, l: int, i: int, mult: int = 1) -> "Weight":
        if not (1 <= i <= l):
            raise IndexError("fundamental weight index out of range")
        return cls(l, tuple(mult if j == i else 0 for j in range(1, l + 1)))

    def __add__(self, other: "Weight") -> "Weight":
        if self.l != other.l:
            raise ValueError("rank mismatch")
        return Weight(self.l, tuple(x + y for x, y in zip(self.omega, other.omega)))

    def __neg__(self) -> "Weight":
        return Weight(self.l, tuple(-x for x in self.omega))

    def __sub__(self, other: "Weight") -> "Weight":
        return self + (-other)

    def pair_h(self, j: int) -> int:
        """<self, h_j> for j = 0 .. l; level zero fixes the affine value."""
        if j == 0:
            return -sum(self.omega)
        if not (1 <= j <= self.l):
            raise IndexError("Cartan index out of range")
        return self.omega[j - 1]

    def iota(self) -> "Weight":
        """The diagram reflection omega_i -> omega_{l-i+1}."""
        return Weight(self.l, tuple(reversed(self.omega)))


def _check_m(l: int, m) -> tuple:
    mt = tuple(m)
    if len(mt) != l or any(x < 0 for x in mt):
        raise ValueError("occupation vector must have l nonnegative entries")
    return mt


def _msum(m: tuple, lo: int, hi: int) -> int:
    # 1-indexed inclusive partial sum; empty when lo > hi
    return sum(m[j - 1] for j in range(lo, hi + 1)) if lo <= hi else 0


def _psi_parts(i: int, l: int, a: int, m: tuple):
    """Prefactor exponent and root exponents of Psi_{i, m, a}.

    Returns (e0, num, den): the function is q**e0 times a product of factors
    (1 - q**c zs u) over c in num, divided by the same over c in den.
    """
    if a == 1:
        if i == 1:
            return (
                -2 * m[0] - _msum(m, 2, l) - l - 1,
                [-2 * _msum(m, 2, l) - l + 2],
                [-2 * _msum(m, 1, l) - l, -2 * _msum(m, 1, l) - l + 2],
            )
        return (
            m[i - 2] - m[i - 1],
            [-2 * _msum(m, i - 1, l) - l + i - 1, -2 * _msum(m, i + 1, l) - l + i + 1],
            [-2 * _msum(m, i, l) - l + i - 1, -2 * _msum(m, i, l) - l + i + 1],
        )
    if a == l + 1:
        if i <= l - 1:
            return (m[i] - m[i - 1], [], [])
        return (-2 * m[l - 1] - _msum(m, 1, l - 1), [1], [])
    if i <= a - 2:
        return (m[l + i - a + 1] - m[l + i - a], [], [])
    if i == a - 1:
        return (
            _msum(m, 1, l - a + 1) - _msum(m, l - a + 2, l - 1) - 2 * m[l - 1] + l - a + 1,
            [-2 * _msum(m, 1, l - a + 1) - l + a],
            [],
        )
    if i == a:
        return (
            -2 * m[0] - _msum(m, 2, l - a + 1) + _msum(m, l - a + 2, l) - l + a - 2,
            [-2 * _msum(m, 2, l - a + 1) - l + a + 1],
            [-2 * _msum(m, 1, l - a + 1) - l + a - 1, -2 * _msum(m, 1, l - a + 1) - l + a + 1],
        )
    return (
        m[i - a - 1] - m[i - a],
        [-2 * _msum(m, i - a, l - a + 1) - l + i - 1,
         -2 * _msum(m, i - a + 2, l - a + 1) - l + i + 1],
        [-2 * _msum(m, i - a + 1, l - a + 1) - l + i - 1,
         -2 * _msum(m, i - a + 1, l - a + 1) - l + i + 1],
    )


def _roots(pairs) -> frozenset:
    """Root multiplicities from (x, k) pairs: equal x add their k.

    Zero sums cancel, and x = 0 drops out because 1 - 0 u is one.
    """
    mult = Counter()
    for x, k in pairs:
        mult[x] += k
    return frozenset((x, k) for x, k in mult.items() if k and x)


def _psi_roots(i: int, spec: RepSpec, m) -> tuple:
    """The closed Psi_i on v_m in factored form.

    Returns (e0, roots) with Psi_i(u) = q**e0 prod (1 - x u)**k over (x, k) in
    roots: the factors of _psi_parts, common ones cancelled.
    """
    l = spec.l
    mt = _check_m(l, m)
    if not (1 <= i <= l):
        raise IndexError("node index out of range")
    if spec.bar:
        e0, num, den = _psi_parts(l - i + 1, l, l - spec.a + 2, mt)
        # the mirrored series is the reflected one at u -> -(-1)**l u
        zeff = spec.zs if l % 2 else -spec.zs
    else:
        e0, num, den = _psi_parts(i, l, spec.a, mt)
        zeff = spec.zs
    mult = Counter(num)
    mult.subtract(den)
    return e0, _roots((QRational.q_power(c) * zeff, k) for c, k in mult.items())


def _roots_poly(xs) -> tuple:
    """The u-polynomial prod_x (1 - x u) as QRational coefficients."""
    poly = [_ONE]
    for x in xs:
        nxt = [_ZERO] * (len(poly) + 1)
        for k, ck in enumerate(poly):
            nxt[k] = nxt[k] + ck
            nxt[k + 1] = nxt[k + 1] - ck * x
        poly = nxt
    return tuple(poly)


def closed_psi(i: int, spec: RepSpec, m) -> URational:
    """The closed rational form of the eigenvalue of phi_i(u) on v_m."""
    e0, roots = _psi_roots(i, spec, m)
    num = [x for x, k in roots for _ in range(k)]
    den = [x for x, k in roots for _ in range(-k)]
    c0 = QRational.q_power(e0)
    # a root is in num or in den, never both, so the two are coprime
    return URational(tuple(c0 * x for x in _roots_poly(num)), _roots_poly(den), coprime=True)


def closed_psi_series(i: int, spec: RepSpec, m, order: int) -> USeries:
    """The closed Psi_i on v_m expanded to the given order, from its factors.

    Equal to closed_psi(i, spec, m).expand(order): starting from q**e0, each
    root (x, k) multiplies by (1 - x u) k times or divides by it -k times, in
    place on the truncated coefficient list.  The products come first, while
    the list is still a short polynomial.
    """
    e0, roots = _psi_roots(i, spec, m)
    c = [QRational.q_power(e0)] + [_ZERO] * order
    for x, k in sorted(roots, key=lambda root: -root[1]):
        for _ in range(abs(k)):
            if k > 0:
                for n in range(order, 0, -1):
                    if c[n - 1]:
                        c[n] = c[n] - x * c[n - 1]
            else:
                for n in range(1, order + 1):
                    if c[n - 1]:
                        c[n] = c[n] + x * c[n - 1]
    return USeries(order, c)


def closed_lambda(spec: RepSpec, m) -> Weight:
    """The closed form of the weight of v_m."""
    l = spec.l
    mt = _check_m(l, m)
    if spec.bar:
        return closed_lambda(RepSpec(l, l - spec.a + 2), mt).iota()
    a = spec.a
    c = [0] * (l + 1)
    if a == 1:
        c[1] = -(2 * mt[0] + _msum(mt, 2, l) + l + 1)
        for i in range(2, l + 1):
            c[i] = -(mt[i - 1] - mt[i - 2])
    elif a == l + 1:
        for i in range(1, l):
            c[i] = mt[i] - mt[i - 1]
        c[l] = -(_msum(mt, 1, l - 1) + 2 * mt[l - 1])
    else:
        for i in range(1, a - 1):
            c[i] = mt[l + i - a + 1] - mt[l + i - a]
        for i in range(a + 1, l + 1):
            c[i] = -(mt[i - a] - mt[i - a - 1])
        c[a - 1] = (
            _msum(mt, 1, l - a + 1) - _msum(mt, l - a + 2, l - 1) - 2 * mt[l - 1] + l - a + 1
        )
        c[a] = -(2 * mt[0] + _msum(mt, 2, l - a + 1) - _msum(mt, l - a + 2, l) + l - a + 2)
    return Weight(l, tuple(c[1:]))


def phi_series(i: int, spec: RepSpec, m, order: int) -> USeries:
    """Eigenvalue series of phi_i(u) on v_m, computed by operator action.

    The u**n coefficient comes from applying the imaginary root vector
    e'_{n delta, alpha_i}; NotDiagonal is raised if that action fails to be
    diagonal on v_m.  The spectral twist rescales u at the very end.
    """
    l = spec.l
    mt = _check_m(l, m)
    if not (1 <= i <= l):
        raise IndexError("node index out of range")
    if order < 0:
        raise ValueError("order must be >= 0")
    ev = get_evaluator(spec)
    c0 = QRational.q_power(ev.qh_exponent(CartanExponent.h(l, i), mt))
    o = o_sign(i, l)
    kc0 = kappa() * c0
    coeffs = [c0]
    for n in range(1, order + 1):
        pairs = ev.terms(e_prime_imag(l, i, i + 1, n), mt)
        off = [p for p in pairs if p[0] != mt]
        if off:
            raise NotDiagonal(spec, i, n, mt, off)
        s = pairs[0][1] if pairs else _ZERO
        c = kc0 * s
        if (-1) ** (n + 1) * o ** n < 0:
            c = -c
        coeffs.append(c)
    series = USeries(order, coeffs)
    if spec.zs != _ONE:
        series = series.scale_var(spec.zs)
    return series


@dataclass(frozen=True)
class LWeight:
    """A highest l-weight in factored form: a weight and root multiplicities.

    Psi_i(u) = q**<lambda, h_i> prod (1 - x u)**k over the pairs (x, k), x and
    k nonzero, in the frozenset roots[i-1].  Such a factorization is unique,
    so equality is equality of l-weights.
    """

    weight: Weight
    roots: tuple

    def __post_init__(self):
        if len(self.roots) != self.weight.l:
            raise ValueError("need one root multiset per node")


def lweight_product(*factors: LWeight) -> LWeight:
    """Componentwise product: weights add, root multiplicities add."""
    if not factors:
        raise ValueError("need at least one factor")
    w = factors[0].weight
    for f in factors[1:]:
        w = w + f.weight
    nodes = zip(*(f.roots for f in factors))
    return LWeight(w, tuple(_roots(itertools.chain.from_iterable(node)) for node in nodes))


def prefundamental(l: int, i: int, sign: int, x: QRational) -> LWeight:
    """Highest l-weight of the prefundamental module with parameter x.

    Psi_i = (1 - x u)**sign with sign +1 or -1, all other Psi_j = 1, weight 0.
    """
    if not (1 <= i <= l):
        raise IndexError("node index out of range")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    roots = tuple(_roots([(x, sign)] if j == i else ()) for j in range(1, l + 1))
    return LWeight(Weight.zero(l), roots)


def shift_weight(w: Weight) -> LWeight:
    """Highest l-weight of the one-dimensional module with weight w."""
    return LWeight(w, (frozenset(),) * w.l)


def oscillator_lweight(spec: RepSpec, m=None) -> LWeight:
    """The closed-form l-weight of v_m (the highest one for m = 0).

    Raises ValueError if the catalogs disagree on Psi_i(0) = q**<lambda, h_i>.
    """
    mt = _check_m(spec.l, m) if m is not None else (0,) * spec.l
    lam = closed_lambda(spec, mt)
    roots = []
    for i in range(1, spec.l + 1):
        e0, r = _psi_roots(i, spec, mt)
        if e0 != lam.pair_h(i):
            raise ValueError("constant term of Psi must be q**<lambda, h_i>")
        roots.append(r)
    return LWeight(lam, tuple(roots))


# ---------------------------------------------------------------------------
# factorization identities between oscillator and prefundamental l-weights

def xi_osc(l: int, a: int) -> Weight:
    """The shift relating theta_a to its prefundamental factorization."""
    if a == 1:
        return Weight.fundamental(l, 1, -(l + 1))
    if a == l + 1:
        return Weight.zero(l)
    return Weight.fundamental(l, a - 1, l - a + 1) + Weight.fundamental(l, a, -(l - a + 2))


def xi_pref_minus(l: int, i: int) -> Weight:
    """The shift in the oscillator factorization of the negative family."""
    return Weight(l, tuple(
        -2 if j < i else (-(l - i + 2) if j == i else 0) for j in range(1, l + 1)
    ))


def xi_pref_plus(l: int, i: int) -> Weight:
    """The shift in the oscillator factorization of the positive family."""
    return Weight(l, tuple(
        l - i if j == i else (-2 if j > i else 0) for j in range(1, l + 1)
    ))


def factor_osc(l: int, a: int, zs: QRational = _ONE) -> bool:
    """theta_a with twist zs matches a shift times prefundamental factors."""
    lhs = oscillator_lweight(RepSpec(l, a, False, zs))
    shift = shift_weight(xi_osc(l, a))
    if a == 1:
        rhs = lweight_product(shift, prefundamental(l, 1, -1, QRational.q_power(-l) * zs))
    elif a == l + 1:
        rhs = lweight_product(shift, prefundamental(l, l, 1, QRational.q_power(1) * zs))
    else:
        rhs = lweight_product(
            shift,
            prefundamental(l, a - 1, 1, QRational.q_power(-l + a) * zs),
            prefundamental(l, a, -1, QRational.q_power(-l + a - 1) * zs),
        )
    return lhs == rhs


def factor_pref_minus(l: int, i: int, zs: QRational = _ONE) -> bool:
    """Shifted negative prefundamental as a product of theta_1 .. theta_i."""
    lhs = lweight_product(shift_weight(xi_pref_minus(l, i)), prefundamental(l, i, -1, zs))
    rhs = lweight_product(*[
        oscillator_lweight(RepSpec(l, b, False, QRational.q_power(l + i - 2 * b + 1) * zs))
        for b in range(1, i + 1)
    ])
    return lhs == rhs


def factor_pref_plus(l: int, i: int, zs: QRational = _ONE) -> bool:
    """Shifted positive prefundamental as a product of theta_{i+1} .. theta_{l+1}."""
    lhs = lweight_product(shift_weight(xi_pref_plus(l, i)), prefundamental(l, i, 1, zs))
    rhs = lweight_product(*[
        oscillator_lweight(RepSpec(l, b, False, QRational.q_power(l + i - 2 * b + 1) * zs))
        for b in range(i + 1, l + 2)
    ])
    return lhs == rhs


def factor_full_tensor(l: int, zs_list) -> bool:
    """Product of all theta_a, one twist each, telescopes to l linear ratios."""
    zs_list = tuple(zs_list)
    if len(zs_list) != l + 1:
        raise ValueError("need one twist per tensor factor")
    lhs = lweight_product(*[
        oscillator_lweight(RepSpec(l, a, False, zs_list[a - 1])) for a in range(1, l + 2)
    ])
    # Psi_i = q**-2 (1 - q**(i-l+1) zs_i u) / (1 - q**(i-l-1) zs_{i-1} u)
    roots = tuple(
        _roots([(QRational.q_power(-l + i + 1) * zs_list[i], 1),
                (QRational.q_power(-l + i - 1) * zs_list[i - 1], -1)])
        for i in range(1, l + 1)
    )
    rhs = LWeight(Weight(l, (-2,) * l), roots)
    return lhs == rhs


def factor_check(kind: str, l: int, index: int = 0, zs: QRational = _ONE,
                 zs_list=None) -> bool:
    """Dispatch on the factorization family.

    kind is one of "osc" (index = a), "pref-minus" / "pref-plus" (index = i)
    or "full-tensor" (zs_list holds l+1 twists, defaulting to zs everywhere).
    """
    if kind == "osc":
        return factor_osc(l, index, zs)
    if kind == "pref-minus":
        return factor_pref_minus(l, index, zs)
    if kind == "pref-plus":
        return factor_pref_plus(l, index, zs)
    if kind == "full-tensor":
        if zs_list is None:
            zs_list = (zs,) * (l + 1)
        return factor_full_tensor(l, zs_list)
    raise ValueError(f"unknown factorization kind {kind!r}")


# ---------------------------------------------------------------------------
# grid verification

def _entry(spec: RepSpec, i: int, m: tuple, status: str, expected: str, computed) -> dict:
    return {
        "l": spec.l,
        "a": spec.a,
        "bar": spec.bar,
        "i": i,
        "m": list(m),
        "status": status,
        "expected": expected,
        "computed": computed,
    }


def check_vector(spec: RepSpec, m: tuple, order: int) -> list:
    """Discrepancies of one basis vector v_m against the closed forms.

    Compares every q**h_j exponent with the closed weight and every phi_i
    series with the closed Psi_i through the given order; the expected series
    comes from the factored form (closed_psi_series), and the URational
    closed_psi is built only to show a failure.  Returns a list of
    discrepancy entries; empty means pass.
    """
    l = spec.l
    ev = get_evaluator(spec)
    lam = closed_lambda(spec, m)
    found = []
    for j in range(l + 1):
        t = ev.qh_exponent(CartanExponent.h(l, j), m)
        if t != lam.pair_h(j):
            found.append(_entry(spec, j, m, "weight-mismatch", f"q^{lam.pair_h(j)}", f"q^{t}"))
    for i in range(1, l + 1):
        try:
            series = phi_series(i, spec, m, order)
        except NotDiagonal as exc:
            off = [[list(t), qrational_to_json(c)] for t, c in sorted(exc.off, key=lambda p: p[0])]
            found.append(_entry(spec, i, m, "not-diagonal", repr(closed_psi(i, spec, m)), off))
            continue
        if closed_psi_series(i, spec, m, order) != series:
            found.append(_entry(spec, i, m, "psi-mismatch", repr(closed_psi(i, spec, m)),
                                repr(series)))
    return found


def verify_grid(l: int, order: int, m_max: int = 1, bar: bool = False,
                zs: QRational = _ONE, a_values=None) -> list:
    """check_vector over a grid of representations and basis vectors.

    Runs over every a (or the given a_values) and every occupation vector
    with entries up to m_max.  Returns a list of discrepancy entries; empty
    means pass.
    """
    found = []
    if a_values is None:
        a_values = range(1, l + 2)
    for a in a_values:
        spec = RepSpec(l, a, bar, zs)
        for m in itertools.product(range(m_max + 1), repeat=l):
            found.extend(check_vector(spec, m, order))
    return found
