"""l-weights of the q-oscillator Borel representations and factorizations.

Every Fock basis vector v_m of a representation theta_a (or its mirrored
counterpart) is an l-weight vector: each q**h_i acts by an integer power of
q and the generating series

    phi_i(u) = q**h_i (1 - kappa_q e'_{delta, alpha_i}(-o_i u))

acts diagonally with an eigenvalue that is a rational function Psi_i(u) of
the spectral variable.  This module computes the eigenvalue series directly
from the operator realization (phi_series), states the closed rational
expressions for Psi_i (closed_psi) and reads the weight lambda off their
constant terms, Psi_i(0) = q**<lambda, h_i> (oscillator_lweight(spec,
m).weight), and combines the l-weights of one-dimensional shifts,
prefundamental modules and oscillator modules to check the factorization
identities relating the two families (factor_sides).

Factored form.  Every closed Psi_i(u) = q**<lambda, h_i> prod_x (1 - x u)**k_x
is a Drinfeld rational fraction, so an l-weight (LWeight) is a weight plus,
per node, roots x with nonzero multiplicities k_x; products add both.
Products and twists visit only the nodes that carry roots, found by a scan
in C, and pass the empty nodes on as they are; the catalog and the builders
share one empty frozenset.  The exponents are affine in the occupations m:
x = zs q**c(m), lambda = e0(m).  The catalog (_psi_parts) reads m only
through one table of prefix sums per module, so a node costs O(1) whatever
l is, and a node's factors cancel on their integer exponents c before any
root x is built (_psi_roots), which reads every node's weight.  closed_psi
multiplies the factors out into a URational for display and JSON; no gcd
over Q(q)[u] runs.

Symbolic m.  verify and lweight build their checks once per module with m
symbolic (VectorChecks): _psi_parts is read on the prefix sums of affine
occupation forms (_Affine), each weight <lambda, h_j> is compared as a form
with the exponent of q**h_j, and each Psi_i with the operator's phi_i,
summed to all orders by the level-geometric lemma (_operator_fraction), both
as fractions in u over Laurent polynomials in Q = q**m.  What differs,
nothing when the catalog holds, is specialized at each grid vector.
phi_series is the operator's fraction at one m; it and closed_psi fill a
failed check's entry.  The printed l-weight of lweight and the factorization
checks read the catalog at integer m (oscillator_lweight).

Twist conventions.  The spectral twist enters every eigenvalue through the
single combination zs = zeta**s, kept as one exact scalar: a twisted series
is the untwisted one with u -> zs*u.  In factored form every root x becomes
zs*x and the weight stays (LWeight.twisted), so factor_sides reads each
module once, untwisted, and twists it per identity.  Mirrored
representations satisfy

    Psi-bar_{i, m, a}(u) = Psi_{l-i+1, m, l-a+2}(-(-1)**l u),

written once, in _psi_forms; at u = 0 it gives the mirrored weight
lambda-bar_{m, a} = iota(lambda_{m, l-a+2}), with iota(omega_i) =
omega_{l-i+1}, so the weights need no law of their own.  Weights are
written over the fundamental weights omega_1 .. omega_l; the affine pairing
is fixed by level zero, <lambda, h_0> = -sum_i <lambda, h_i>.
"""

from __future__ import annotations

import itertools
import operator

from .borelrep import CartanPower, Compose, Evaluator, Gen, RepSpec, _dot, _vadd, get_evaluator
from .exactfield import QRational, URational, USeries, kappa, qnum, qrational_to_json
from .record import Record
from .rootsys import CartanExponent, RootIndex, bilinear, o_sign
from .rootvectors import e_dual, e_prime_imag, qcomm

_ONE = QRational.one()
_ZERO = QRational.zero()
_EMPTY = frozenset()  # the empty node that the catalog and the builders share


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


class Undecided(ValueError):
    """A hypothesis of the level-geometric lemma failed at a node, so its
    check can be decided neither way; the message names the hypotheses."""


class Weight(Record):
    """An integral weight over the fundamental weights omega_1 .. omega_l."""

    __slots__ = ("l", "omega")

    def __init__(self, l: int, omega: tuple):
        if len(omega) != l:
            raise ValueError("need one coefficient per fundamental weight")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "omega", omega)

    @classmethod
    def zero(cls, l: int) -> "Weight":
        return cls(l, (0,) * l)

    @classmethod
    def fundamental(cls, l: int, i: int, mult: int = 1) -> "Weight":
        if not (1 <= i <= l):
            raise IndexError("fundamental weight index out of range")
        return cls(l, (0,) * (i - 1) + (mult,) + (0,) * (l - i))

    def __add__(self, other: "Weight") -> "Weight":
        if self.l != other.l:
            raise ValueError("rank mismatch")
        return Weight(self.l, tuple(map(operator.add, self.omega, other.omega)))

    def pair_h(self, j: int) -> int:
        """<self, h_j> for j = 0 .. l; level zero fixes the affine value."""
        if j == 0:
            return -sum(self.omega)
        if not (1 <= j <= self.l):
            raise IndexError("Cartan index out of range")
        return self.omega[j - 1]


def _check_m(l: int, m) -> tuple:
    mt = tuple(m)
    if len(mt) != l or any(x < 0 for x in mt):
        raise ValueError(f"occupation vector needs {l} nonnegative entries")
    return mt


def _prefix(m) -> tuple:
    """The prefix sums of the occupations: s[0] = 0, s[k] = m_1 + ... + m_k."""
    return tuple(itertools.accumulate(m, initial=0))


class _Affine:
    """An integer affine form c + v.m in the occupations m_1 .. m_l.

    It has +, - and integer *, and nothing more: _psi_parts read on these
    forms is the catalog for every m at once, and an edit to the catalog
    that is not affine in m (a product of occupations, a comparison, a
    branch on m) raises TypeError rather than passing on a grid.
    """

    __slots__ = ("c", "v")

    def __init__(self, c: int, v: tuple):
        self.c = c
        self.v = v

    @classmethod
    def occupations(cls, l: int) -> tuple:
        """m_1 .. m_l as forms."""
        return tuple(cls(0, tuple(int(j == k) for j in range(l))) for k in range(l))

    def at(self, m: tuple) -> int:
        """The value at an integer occupation vector."""
        return self.c + _dot(self.v, m)

    def __add__(self, other):
        if isinstance(other, _Affine):
            return _Affine(self.c + other.c, _vadd(self.v, other.v))
        if isinstance(other, int):
            return _Affine(self.c + other, self.v)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, k):
        if isinstance(k, int):
            return _Affine(k * self.c, tuple(k * x for x in self.v))
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self):
        raise TypeError("an affine occupation form has no truth value")

    def __eq__(self, other):
        raise TypeError("an affine occupation form has no equality")

    __hash__ = None


def _psi_parts(i: int, l: int, a: int, s: tuple):
    """Prefactor exponent and root exponents of Psi_{i, m, a}.

    Returns (e0, num, den): the function is q**e0 times a product of factors
    (1 - q**c zs u) over c in num, divided by the same over c in den.  One
    family in a answers for every module, theta_1 and theta_{l+1} included.
    The occupations are read only through their prefix table s (_prefix):
    m_k = s[k] - s[k-1] and m_lo + ... + m_hi = s[hi] - s[lo-1], so a node
    costs O(1) reads whatever l is.
    """
    if i <= a - 2:
        k = l + i - a + 1  # m_{k+1} - m_k
        return (s[k + 1] - 2 * s[k] + s[k - 1], [], [])
    t = s[l - a + 1]  # m_1 + ... + m_{l-a+1}
    if i == a - 1:
        # t - (m_{l-a+2} + ... + m_{l-1}) - 2 m_l
        return (2 * t + s[l - 1] - 2 * s[l] + l - a + 1, [-2 * t - l + a], [])
    if i == a:
        # -2 m_1 - (m_2 + ... + m_{l-a+1}) + (m_{l-a+2} + ... + m_l)
        m1 = s[1]
        return (
            s[l] - m1 - 2 * t - l + a - 2,
            [-2 * (t - m1) - l + a + 1],
            [-2 * t - l + a - 1, -2 * t - l + a + 1],
        )
    # m_k - m_{k+1}, and partial sums from m_k, m_{k+1} and m_{k+2} up to t
    k = i - a
    lo, mid, hi = s[k - 1], s[k], s[k + 1]
    return (
        2 * mid - lo - hi,
        [-2 * (t - lo) - l + i - 1, -2 * (t - hi) - l + i + 1],
        [-2 * (t - mid) - l + i - 1, -2 * (t - mid) - l + i + 1],
    )


def _roots(pairs) -> frozenset:
    """Root multiplicities from (x, k) pairs: equal x add their k.

    Zero sums cancel, and x = 0 drops out because 1 - 0 u is one.
    """
    mult = {}
    for x, k in pairs:
        mult[x] = mult.get(x, 0) + k
    return frozenset([(x, k) for x, k in mult.items() if k and x])


def _psi_forms(i: int, spec: RepSpec, s: tuple) -> tuple:
    """The closed Psi_i on v_m as catalog exponents: (e0, pairs, zeff).

    Psi_i(u) = q**e0 prod (1 - q**c zeff u)**k over (c, k) in pairs, k = +-1
    per numerator and denominator factor of _psi_parts; s is the prefix table
    of m.  The exponents are integers for an integer m and affine forms for
    _Affine.occupations(l).  This is the one place the mirror law is written.
    """
    l = spec.l
    if not (1 <= i <= l):
        raise IndexError("node index out of range")
    if spec.bar:
        e0, num, den = _psi_parts(l - i + 1, l, l - spec.a + 2, s)
        # the mirrored series is the reflected one at u -> -(-1)**l u
        zeff = spec.zs if l % 2 else -spec.zs
    else:
        e0, num, den = _psi_parts(i, l, spec.a, s)
        zeff = spec.zs
    return e0, [(c, 1) for c in num] + [(c, -1) for c in den], zeff


def _psi_roots(i: int, spec: RepSpec, s: tuple) -> tuple:
    """The closed Psi_i on v_m in factored form, s the prefix table of m.

    Returns (e0, roots) with Psi_i(u) = q**e0 prod (1 - x u)**k over (x, k) in
    roots: the factors of _psi_parts, common ones cancelled.  They cancel on
    the integer exponents c, before any root x = q**c zeff is built: c -> x
    is injective, and the exponent c = 0 is the root zeff, not a factor one
    (so _roots, which drops x = 0, does not apply here).
    """
    e0, pairs, zeff = _psi_forms(i, spec, s)
    if not pairs:
        return e0, _EMPTY
    mult = {}
    for c, k in pairs:
        mult[c] = mult.get(c, 0) + k
    return e0, frozenset([(zeff.shifted(c), k) for c, k in mult.items() if k])


def _symbolic_forms(i: int, spec: RepSpec, s: tuple) -> tuple:
    """_psi_forms on s = _prefix(_Affine.occupations(l)): every exponent an
    _Affine.  Forms have no equality, so their pairs stay uncancelled."""
    e0, pairs, zeff = _psi_forms(i, spec, s)
    # adding the zero form lifts an integer, such as the empty sum s[0]
    zero = _Affine(0, (0,) * spec.l)
    return zero + e0, [(zero + c, k) for c, k in pairs], zeff


def _poly(*terms) -> dict:
    """The sum of c x y over the (c, x, y) in terms, for polynomials {(k, v): c}
    in u and Q = q**m, meaning c u**k Q**v; zero coefficients drop out."""
    out = {}
    for c, x, y in terms:
        for (kx, vx), cx in x.items():
            for (ky, vy), cy in y.items():
                key, b = (kx + ky, _vadd(vx, vy)), c * cx * cy
                out[key] = out[key] + b if key in out else b
    return {key: b for key, b in out.items() if b}


def _coeffs_at(terms, m: tuple) -> list:
    """The u**k coefficients, k = 0 up to the degree, of ((k, v), c) terms at Q = q**m."""
    out = [_ZERO] * (1 + max((k for (k, _), _ in terms), default=0))
    for (k, v), c in terms:
        out[k] = out[k] + c.shifted(_dot(v, m))
    return out


def _root_key(root) -> tuple:
    """A canonical root order, products first; a frozenset iterates in address order."""
    return -root[1], root[0]._e, root[0]._n, root[0]._d


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
    """The closed rational form of the eigenvalue of phi_i(u) on v_m: the
    factored form of _psi_roots, multiplied out."""
    e0, roots = _psi_roots(i, spec, _prefix(_check_m(spec.l, m)))
    roots = sorted(roots, key=_root_key)
    num = [x for x, k in roots for _ in range(k)]
    den = [x for x, k in roots for _ in range(-k)]
    # a root is in num or in den, never both, so the two are coprime
    return URational(tuple(x.shifted(e0) for x in _roots_poly(num)), _roots_poly(den))


def _operator_fraction(ev: Evaluator, spec: RepSpec, i: int) -> tuple:
    """phi_i(u) on v_m with m symbolic and to all orders: (num, den, failed).

    With E_0 = e_i, F = e_{delta - alpha_i}, d(m) the eigenvalue of e'_delta and
    [2]_q rho(m) = d(m) - d(m + s_E), the level step gives E_n = rho**n E_0, so
        phi_i = q**h_i [1 + kappa w (P_EF / (1 + rho' w) - c P_FE / (1 + rho w))],
    w = o_i zs u, rho' = rho(m + s_F), P_EF and P_FE the eigenvalues of E_0 F and
    F E_0 and c the factor of every [E_{n-1}, F]_q.  num and den are polynomials
    {(k, v): c} in u and Q, both empty where the lemma's hypotheses in failed fail.
    """
    l = spec.l
    e, f, ed = Gen(i), e_dual(l, i, i + 1, 0), e_prime_imag(l, i, i + 1, 1)
    ef, fe = Compose(e, f), Compose(f, e)
    shifts = [{s for (s, _), _ in ev.symbolic(x)} for x in (e, f)]
    zero = (0,) * l
    gamma, delta = RootIndex.alpha(l, i, i + 1), RootIndex.delta(l)
    failed = [what for what, holds in (
        ("E_0 or F has two shifts", max(len(shifts[0]), len(shifts[1])) <= 1),
        ("e'_delta, E_0 F or F E_0 moves v_m", all(ev.zero_shift(x) for x in (ed, ef, fe))),
        ("e'_delta is not [E_0, F]_q", ed is qcomm(e, gamma, f, delta - gamma)),
    ) if not holds]
    if failed:
        return {}, {}, failed
    s_e, s_f = (next(iter(s), zero) for s in shifts[:2])
    t = QRational.from_int(o_sign(i, l)) * spec.zs  # w = t u
    half, c = t / qnum(2), QRational.q_power(-bilinear(gamma, delta - gamma))
    # 1 + rho w and 1 + rho' w: [2]_q rho(m) = d(m) - d(m + s_E), rho' = rho(m + s_F)
    rho = {v: x - x.shifted(_dot(v, s_e)) for (_, v), x in ev.symbolic(ed)}
    a, b = ({(0, zero): _ONE, **{(1, v): x.shifted(_dot(v, s)) * half
                                 for v, x in rho.items() if x}} for s in (zero, s_f))
    pef, pfe = ({(0, v): x for (_, v), x in ev.symbolic(p)} for p in (ef, fe))
    (((_, vh), ch),) = ev.symbolic(CartanPower(CartanExponent.h(l, i)))
    # num = q**h_i [den + kappa w (P_EF (1 + rho w) - c P_FE (1 + rho' w))]
    den = _poly((_ONE, a, b))
    pab = _poly((_ONE, pef, a), (-c, pfe, b))
    num = _poly((ch, {(0, vh): _ONE}, den), (ch * kappa() * t, {(1, vh): _ONE}, pab))
    return num, den, []


def _check_lemma(ev: Evaluator, spec: RepSpec, i: int, failed, m: tuple) -> None:
    """NotDiagonal (n = 1) where e'_{delta, alpha_i} has a term off v_m, else
    Undecided if a hypothesis of the lemma failed: such a node never passes."""
    if not failed:
        return
    pairs = [p for p in ev.terms(e_prime_imag(spec.l, i, i + 1, 1), m) if p[0] != m]
    if pairs:
        raise NotDiagonal(spec, i, 1, m, pairs)
    raise Undecided(f"phi_{i} of {spec} is not level-geometric: {'; '.join(failed)}")


def phi_series(i: int, spec: RepSpec, m, order: int) -> USeries:
    """Eigenvalue series of phi_i(u) on v_m, computed by operator action.

    Node i's _operator_fraction at m, expanded through u**order: the u**n
    coefficient is that of e'_{n delta, alpha_i} acting on v_m.  Raises as
    _check_lemma does where the lemma does not hold.
    """
    l = spec.l
    mt = _check_m(l, m)
    if not (1 <= i <= l):
        raise IndexError("node index out of range")
    if order < 0:
        raise ValueError("order must be >= 0")
    ev = get_evaluator(spec)
    num, den, failed = _operator_fraction(ev, spec, i)
    _check_lemma(ev, spec, i, failed, mt)
    return URational(_coeffs_at(num.items(), mt), _coeffs_at(den.items(), mt)).expand(order)


class LWeight(Record):
    """A highest l-weight in factored form: a weight and root multiplicities.

    Psi_i(u) = q**<lambda, h_i> prod (1 - x u)**k over the pairs (x, k), x and
    k nonzero, in the frozenset roots[i-1].  Such a factorization is unique,
    so equality is equality of l-weights.
    """

    __slots__ = ("weight", "roots")

    def __init__(self, weight: Weight, roots: tuple):
        if len(roots) != weight.l:
            raise ValueError("need one root multiset per node")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "roots", roots)

    def __repr__(self):
        # as Record prints it, but each node's roots in _root_key order, not
        # in the address order a frozenset of QRationals iterates in
        nodes = [f"frozenset({{{', '.join(map(repr, sorted(node, key=_root_key)))}}})"
                 if node else "frozenset()" for node in self.roots]
        roots = ", ".join(nodes) + ("," if len(nodes) == 1 else "")
        return f"LWeight(weight={self.weight!r}, roots=({roots}))"

    def twisted(self, z: QRational) -> "LWeight":
        """The l-weight at u -> z u: every root times z, the weight kept.

        Scaling by a nonzero z is injective, so no two roots merge and the
        factored form stays unique.  Only the nonempty nodes are visited, one
        product per root; an empty node passes through as it is."""
        if z.is_zero():
            raise ValueError("spectral twist must be nonzero")
        roots = list(self.roots)
        for j in itertools.compress(range(len(roots)), roots):
            roots[j] = frozenset([(x * z, k) for x, k in roots[j]])
        return LWeight(self.weight, tuple(roots))


def lweight_product(*factors: LWeight) -> LWeight:
    """Componentwise product: weights add, root multiplicities add.

    It starts from the first factor's nodes and visits only the nonempty
    nodes of each later one, found by a scan in C; a node that one factor
    alone fills passes through unchanged."""
    if not factors:
        raise ValueError("need at least one factor")
    w, roots = factors[0].weight, list(factors[0].roots)
    for f in factors[1:]:
        w = w + f.weight
        for j in itertools.compress(range(len(roots)), f.roots):
            node = f.roots[j]
            roots[j] = _roots(itertools.chain(roots[j], node)) if roots[j] else node
    return LWeight(w, tuple(roots))


def prefundamental(l: int, i: int, sign: int, x: QRational) -> LWeight:
    """Highest l-weight of the prefundamental module with parameter x.

    Psi_i = (1 - x u)**sign with sign +1 or -1, all other Psi_j = 1, weight 0.
    """
    if not (1 <= i <= l):
        raise IndexError("node index out of range")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if x.is_zero():
        raise ValueError("prefundamental parameter must be nonzero")
    node = frozenset({(x, sign)})
    return LWeight(Weight.zero(l), (_EMPTY,) * (i - 1) + (node,) + (_EMPTY,) * (l - i))


def shift_weight(w: Weight) -> LWeight:
    """Highest l-weight of the one-dimensional module with weight w."""
    return LWeight(w, (_EMPTY,) * w.l)


def oscillator_lweight(spec: RepSpec, m=None) -> LWeight:
    """The closed-form l-weight of v_m (the highest one for m = 0)."""
    mt = _check_m(spec.l, m) if m is not None else (0,) * spec.l
    s = _prefix(mt)
    e0s, roots = zip(*(_psi_roots(i, spec, s) for i in range(1, spec.l + 1)))
    return LWeight(Weight(spec.l, e0s), roots)


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
    if not (1 <= i <= l):
        raise IndexError("node index out of range")
    return Weight(l, (-2,) * (i - 1) + (-(l - i + 2),) + (0,) * (l - i))


def xi_pref_plus(l: int, i: int) -> Weight:
    """The shift in the oscillator factorization of the positive family."""
    if not (1 <= i <= l):
        raise IndexError("node index out of range")
    return Weight(l, (0,) * (i - 1) + (l - i,) + (-2,) * (l - i))


def factor_sides(l: int, jobs, zs: QRational = _ONE, zs_list=None):
    """The (lhs, rhs) l-weights of factorization identities at rank l, one per job.

    A job is (kind, index), kind one of "osc" (index = a), "pref-minus" /
    "pref-plus" (index = i) or "full-tensor" (index unused; zs_list holds
    l+1 twists, defaulting to zs everywhere, and any other length is a
    ValueError before a module is read):

    - osc: theta_a with twist zs is a shift times prefundamental factors;
    - pref-minus / pref-plus: the shifted prefundamental with
      Psi_i = (1 - zs u)**(-1 or +1) is the product of theta_b twisted by
      q**(l+i-2b+1) zs over b = 1 .. i or b = i+1 .. l+1;
    - full-tensor: the product of all theta_a, one twist each, telescopes
      to l linear ratios.

    Each theta_b is read from the catalog at most once per call, untwisted.
    With T_b = theta_b twisted by q**(l-2b+1), the side of pref-minus[i] is
    P_i = P_{i-1} T_i and that of pref-plus[i] S_i = S_{i+1} T_{i+1}, twisted
    by q**i zs: one running product per family and call, built as far as the
    jobs reach.  A twisted product is the product of the twists as data: a
    nonzero z maps distinct roots to distinct roots (LWeight.twisted).
    """
    zs_list = (zs,) * (l + 1) if zs_list is None else tuple(zs_list)
    if len(zs_list) != l + 1:
        raise ValueError("need one twist per tensor factor")
    theta = {}

    def osc(b: int, z: QRational) -> LWeight:
        if b not in theta:
            theta[b] = oscillator_lweight(RepSpec(l, b))
        return theta[b].twisted(z)

    # per family, its running products and the b of each factor in turn
    chains = {"pref-minus": ([], range(1, l + 2)), "pref-plus": ([], range(l + 1, 0, -1))}
    for kind, index in jobs:
        if kind == "osc":
            a = index
            if a == 1:
                pref = [prefundamental(l, 1, -1, zs.shifted(-l))]
            elif a == l + 1:
                pref = [prefundamental(l, l, 1, zs.shifted(1))]
            else:
                pref = [prefundamental(l, a - 1, 1, zs.shifted(-l + a)),
                        prefundamental(l, a, -1, zs.shifted(-l + a - 1))]
            lhs = osc(a, zs)
            rhs = lweight_product(shift_weight(xi_osc(l, a)), *pref)
        elif kind in chains:
            i = index
            if kind == "pref-plus":
                sign, xi, n = 1, xi_pref_plus(l, i), l + 1 - i
            else:
                sign, xi, n = -1, xi_pref_minus(l, i), i
            lhs = lweight_product(shift_weight(xi), prefundamental(l, i, sign, zs))
            prods, bs = chains[kind]
            while len(prods) < n:
                b = bs[len(prods)]
                t = osc(b, QRational.q_power(l - 2 * b + 1))
                prods.append(lweight_product(prods[-1], t) if prods else t)
            rhs = prods[n - 1].twisted(zs.shifted(i))
        elif kind == "full-tensor":
            lhs = lweight_product(*[osc(a, zs_list[a - 1]) for a in range(1, l + 2)])
            # Psi_i = q**-2 (1 - q**(i-l+1) zs_i u) / (1 - q**(i-l-1) zs_{i-1} u)
            rhs = LWeight(Weight(l, (-2,) * l), tuple(
                _roots([(zs_list[i].shifted(-l + i + 1), 1), (zs_list[i - 1].shifted(-l + i - 1), -1)])
                for i in range(1, l + 1)))
        else:
            raise ValueError(f"unknown factorization kind {kind!r}")
        yield lhs, rhs


def factor_check(kind: str, l: int, index: int = 0, zs: QRational = _ONE,
                 zs_list=None) -> bool:
    """One factorization identity: the two sides of factor_sides for the one
    job (kind, index) are equal."""
    ((lhs, rhs),) = factor_sides(l, [(kind, index)], zs, zs_list)
    return lhs == rhs


# ---------------------------------------------------------------------------
# grid verification

def discrepancy(a, bar: bool, i: int, m, status: str,
                expected="0", computed="nonzero") -> dict:
    """One failed check of a report: the module, node, index vector and values."""
    return {"a": a, "bar": bar, "i": i, "m": list(m), "status": status,
            "expected": expected, "computed": computed}


class VectorChecks:
    """The checks of every basis vector v_m of one representation through an
    order, built once with m symbolic.

    The weight is decided once per module: each <lambda, h_j>, j = 0 .. l,
    on affine occupation forms against the exponent of q**h_j, an affine form
    from Evaluator.symbolic.  Per node i, the closed Psi_i and the operator's
    phi_i (_operator_fraction), fractions whose denominators have constant
    term one, are cross-multiplied into one polynomial in u and Q = q**m;
    through u**order it vanishes at m exactly when the two series agree, and
    from its degree on, at every order.  When the catalog holds, no weight
    form differs and the polynomial cancels, once for every m.  check(m)
    specializes what is left at v_m, which is exact (see borelrep).
    """

    def __init__(self, spec: RepSpec, order: int):
        l = spec.l
        ev = get_evaluator(spec)
        self.spec = spec
        self.order = order
        self._ev = ev
        s = _prefix(_Affine.occupations(l))
        forms = [_symbolic_forms(i, spec, s) for i in range(1, l + 1)]
        # (j, <lambda, h_j>, exponent of q**h_j) where the forms differ
        weight = Weight(l, tuple(e0 for e0, _, _ in forms))
        self._weights = []
        for j in range(l + 1):
            want = weight.pair_h(j)
            (((_, v), c),) = ev.symbolic(CartanPower(CartanExponent.h(l, j)))
            got = _Affine(c.as_q_power(), v)
            if (got.c, got.v) != (want.c, want.v):
                self._weights.append((j, want, got))
        # per node, the terms through u**order of closed num * operator den
        # minus closed den * operator num, and the lemma's failed hypotheses
        self._diff, self._off = [], []
        one = {(0, (0,) * l): _ONE}
        for i, (e0, pairs, zeff) in enumerate(forms, start=1):
            num, den, failed = _operator_fraction(ev, spec, i)
            cl = [{(0, e0.v): QRational.q_power(e0.c)}, one]  # closed num and den
            for x, k in pairs:
                root = {**one, (1, x.v): (-zeff).shifted(x.c)}
                cl[k < 0] = _poly((_ONE, cl[k < 0], root))
            diff = _poly((_ONE, cl[0], den), (-_ONE, cl[1], num))
            self._diff.append([t for t in diff.items() if t[0][0] <= order])
            self._off.append(failed)

    def check(self, m) -> list:
        """Discrepancies of v_m: its weight, then per node the diagonal action
        and the series; empty means pass."""
        spec = self.spec
        mt = _check_m(spec.l, m)
        found = []
        for j, want, got in self._weights:
            e, t = want.at(mt), got.at(mt)
            if t != e:
                found.append(discrepancy(spec.a, spec.bar, j, mt, "weight-mismatch",
                                         f"q^{e}", f"q^{t}"))
        for i, (diff, failed) in enumerate(zip(self._diff, self._off), start=1):
            try:
                _check_lemma(self._ev, spec, i, failed, mt)
            except NotDiagonal as exc:
                shown = [[list(t), qrational_to_json(c)] for t, c in sorted(exc.off, key=lambda p: p[0])]
                found.append(discrepancy(spec.a, spec.bar, i, mt, "not-diagonal",
                                         repr(closed_psi(i, spec, mt)), shown))
                continue
            if diff and any(_coeffs_at(diff, mt)):
                found.append(discrepancy(spec.a, spec.bar, i, mt, "psi-mismatch",
                                         repr(closed_psi(i, spec, mt)),
                                         repr(phi_series(i, spec, mt, self.order))))
        return found


def verify_grid(l: int, order: int, m_max: int = 1, bar: bool = False,
                zs: QRational = _ONE, a_values=None) -> list:
    """The checks of a grid of representations and basis vectors.

    Runs over every a (or the given a_values), builds each VectorChecks once,
    and specializes it at every occupation vector with entries up to m_max.
    Returns a list of discrepancy entries; empty means pass.  A grid without
    a module or an occupation vector is a ValueError, not a pass.
    """
    if m_max < 0:
        raise ValueError("need m_max >= 0")
    a_values = range(1, l + 2) if a_values is None else tuple(a_values)
    if not a_values:
        raise ValueError("need at least one module index")
    found = []
    for a in a_values:
        checks = VectorChecks(RepSpec(l, a, bar, zs), order)
        for m in itertools.product(range(m_max + 1), repeat=l):
            found.extend(checks.check(m))
    return found
