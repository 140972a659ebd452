"""Exact rational functions of q, truncated series in u, Pade reconstruction."""

import copy
import fractions
import math
import pickle
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (ConstantTermNotOne, DegreeMismatch, constant_term, den_degree, derivative,
                     expand_fraction, num_degree, pade, reduced, scale_var, series_difference,
                     series_inverse, series_log, series_product, series_sum, series_truncate,
                     specialize)
from qloop import exactfield
from qloop.exactfield import (QRational, URational, USeries, ZeroConstantTerm,
                              _pmul, _pshift, kappa, qfactorial, qnum,
                              qpoly_to_json, qrational_to_json,
                              upoly_to_json, urational_to_json)

ONE = QRational.one()
ZERO = QRational.zero()
qp = QRational.q_power


# ---------------------------------------------------------------- strategies

coeffs = st.integers(min_value=-6, max_value=6)
polys = st.lists(coeffs, min_size=1, max_size=4).map(tuple)
nonzero_polys = polys.filter(lambda p: any(p))


@st.composite
def qrationals(draw):
    return QRational(draw(polys), draw(nonzero_polys))


@st.composite
def nonzero_qrationals(draw):
    return QRational(draw(nonzero_polys), draw(nonzero_polys))


@st.composite
def useries(draw, order=4):
    cs = draw(st.lists(qrationals(), min_size=0, max_size=order + 1))
    return USeries(order, cs)


# ------------------------------------------------------------------- scalars

def test_constructor_reduces_to_lowest_terms():
    # (q^2 - 1) / (q - 1) = q + 1
    x = QRational((-1, 0, 1), (-1, 1))
    assert x == QRational((1, 1))
    # sign convention: a canonical denominator stays stable under negation
    assert (-x) + x == ZERO


def test_zero_one_from_int():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert QRational.from_int(-3) == QRational((-3,))
    assert QRational.from_int(1) == ONE
    assert bool(ONE) and not bool(ZERO)


def test_q_power_and_as_q_power():
    assert qp(0) == ONE
    assert qp(2) * qp(-2) == ONE
    assert qp(3).as_q_power() == 3
    assert qp(-4).as_q_power() == -4
    assert (qp(1) + ONE).as_q_power() is None
    assert ZERO.as_q_power() is None


def test_arithmetic_spot_values():
    # [2] = q + 1/q, kappa = q - 1/q, [2]^2 - kappa^2 = 4
    two = qnum(2)
    assert two == qp(1) + qp(-1)
    assert kappa() == qp(1) - qp(-1)
    assert two * two - kappa() * kappa() == QRational.from_int(4)
    assert two.inv() * two == ONE
    assert ONE / two == two.inv()
    assert two ** 3 == two * two * two
    assert two ** 0 == ONE
    assert two ** -2 == (two * two).inv()


def test_qnum_qfactorial():
    assert qnum(0) == ZERO
    assert qnum(1) == ONE
    assert qnum(-2) == -qnum(2)
    # [n] = (q^n - q^-n)/(q - q^-1)
    for n in range(1, 6):
        assert qnum(n) * kappa() == qp(n) - qp(-n)
    assert qfactorial(0) == ONE
    assert qfactorial(4) == qnum(1) * qnum(2) * qnum(3) * qnum(4)


def test_int_coercion():
    assert qnum(2) + 1 == qnum(2) + ONE
    assert 1 - qnum(2) == ONE - qnum(2)
    assert 2 * qnum(2) == qnum(2) * 2
    assert qnum(2) / 2 * 2 == qnum(2)


@given(qrationals(), qrationals(), qrationals())
@settings(max_examples=60, deadline=None)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


@given(nonzero_qrationals())
@settings(max_examples=60, deadline=None)
def test_inverses(x):
    assert x * x.inv() == ONE
    assert (-x) + x == ZERO


@given(qrationals(), qrationals())
@settings(max_examples=60, deadline=None)
def test_hash_consistent_with_eq(x, y):
    if x == y:
        assert hash(x) == hash(y)


def test_repr_spot_values():
    assert repr(ONE) == "1"
    assert repr(qp(-2)) == "1/q^2"
    assert repr(kappa()) == "(-1 + q^2)/q"


def test_rational_numbers_embed():
    # plain fractions behave as in the prime field
    half = ONE / QRational.from_int(2)
    third = ONE / QRational.from_int(3)
    got = half + third
    want = fractions.Fraction(1, 2) + fractions.Fraction(1, 3)
    assert got == QRational.from_int(want.numerator) / QRational.from_int(want.denominator)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        QRational((1,), (0,))


# ------------------------------------------------------------- normalization

# the factors trial division knows (q -+ 1, q^2 + 1, and q^2 +- q + 1 of
# [3]_q), then two it does not (q^4 + 1 and q^2 + q + 2)
KNOWN = ((-1, 1), (1, 1), (1, 0, 1), (1, 1, 1), (1, -1, 1))
UNKNOWN = ((1, 0, 0, 0, 1), (2, 1, 1))


def _product(factors):
    return reduce(_pmul, factors, (1,))


def _random_operand(rng, common, general):
    """An integer times q^a times known factors, times the common ones; if
    general, times unknown factors and a random polynomial as well."""
    factors = list(common) + [(rng.choice((-6, -2, 1, 3)),), _pshift((1,), rng.randrange(4))]
    for f in KNOWN + (UNKNOWN if general else ()):
        factors.extend([f] * rng.randrange(3))
    if general:
        factors.append(tuple(rng.randint(-5, 5) for _ in range(rng.randrange(3))) + (rng.choice((-2, 1, 3)),))
    return _product(factors)


def _at(p, q):
    # the polynomial p at q, an integer, a Fraction or a sympy symbol
    return sum(c * q ** k for k, c in enumerate(p))


def _sympy_canonical(sympy, n, d):
    """The canonical form of n/d as sympy.cancel reduces it: integer coefficient
    tuples with coprime contents and a positive leading denominator."""
    q = sympy.Symbol("q")
    return _sympy_canonical_expr(sympy, q, _at(n, q) / _at(d, q))


def _sympy_canonical_expr(sympy, q, expr):
    """The canonical (num, den) of a rational expression in q."""
    top, bottom = sympy.fraction(sympy.cancel(expr))
    if top == 0:
        return (), (1,)
    cs = [[fractions.Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(x, q).all_coeffs())]
          for x in (top, bottom)]
    scale = reduce(math.lcm, (c.denominator for side in cs for c in side), 1)
    ints = [[int(c * scale) for c in side] for side in cs]
    g = reduce(math.gcd, ints[0] + ints[1], 0)
    if ints[1][-1] < 0:
        g = -g
    return tuple(c // g for c in ints[0]), tuple(c // g for c in ints[1])


@pytest.fixture
def pgcd_calls(monkeypatch):
    """One entry per call of the gcd fallback while the test runs."""
    calls = []
    pgcd = exactfield._pgcd
    monkeypatch.setattr(exactfield, "_pgcd", lambda a, b: calls.append((a, b)) or pgcd(a, b))
    return calls


def test_normalization_matches_sympy_cancel(pgcd_calls):
    sympy = pytest.importorskip("sympy")
    calls = pgcd_calls
    rng = random.Random(20120419)
    cases = 60
    for k in range(cases):
        general = k % 2 == 1
        common = [rng.choice(KNOWN + UNKNOWN if general else KNOWN) for _ in range(rng.randrange(3))]
        n = _random_operand(rng, common, general)
        d = _random_operand(rng, common, general)
        before = len(calls)
        x = QRational(n, d)
        assert (x.num, x.den) == _sympy_canonical(sympy, n, d)
        if not general:
            assert len(calls) == before
    # the general half reached the gcd fallback
    assert len(calls) > cases // 4


@given(polys, nonzero_polys, st.one_of(st.sampled_from(KNOWN + UNKNOWN), nonzero_polys),
       st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_common_factor_cancels(n, d, f, k):
    fk = _product([f] * k)
    assert QRational(_pmul(n, fk), _pmul(d, fk)) == QRational(n, d)


def test_unknown_common_factor_falls_back_to_gcd(pgcd_calls):
    calls = pgcd_calls
    # (q^4 + 1)(q + 2) / ((q^4 + 1)(q - 1)^2 (q^2 + 1))
    f = (1, 0, 0, 0, 1)
    x = QRational(_pmul(f, (2, 1)), _product([f, (-1, 1), (-1, 1), (1, 0, 1)]))
    assert calls
    assert (x.num, x.den) == ((2, 1), _product([(-1, 1), (-1, 1), (1, 0, 1)]))
    # a denominator made of known factors needs no gcd
    calls.clear()
    y = QRational(_product([(-1, 1), (1, 0, 1), (3, 1)]), _product([(-1, 1), (1, 1), (1, 0, 1)]))
    assert not calls
    assert (y.num, y.den) == ((3, 1), (1, 1))
    # nor does one with the factors of [3]_q: q^2 + q + 1 cancels, and
    # (q + 1)(q^2 - q + 1) = q^3 + 1 stays
    z = QRational(_product([(-1, 1), (1, 1, 1), (3, 1)]),
                  _product([(-1, 1), (1, 1), (1, 1, 1), (1, -1, 1)]))
    assert not calls
    assert (z.num, z.den) == ((3, 1), (1, 0, 0, 1))


# ----------------------------------------------------------- Laurent form

# operands c * q**k * f/g: f and g products of the factors trial division
# knows, the two it does not, or random polynomials; none of
# them vanishes at the specialization points, so no operand does
POINTS = (2, 3, 5)
factor_polys = st.one_of(
    st.sampled_from(KNOWN + UNKNOWN),
    polys.filter(lambda p: all(_at(p, q) for q in POINTS)),
)


@st.composite
def laurent_operands(draw):
    c = draw(st.integers(-6, 6).filter(bool))
    k = draw(st.integers(-1000, 1000))
    return c, k, draw(st.lists(factor_polys, max_size=2)), draw(st.lists(factor_polys, max_size=2))


def _laurent(c, k, num, den):
    """The operand built by fast-path arithmetic."""
    x = QRational.from_int(c) * qp(k)
    for f in num:
        x = x * QRational(f)
    for g in den:
        x = x / QRational(g)
    return x


def _laurent_oracles(q, c, k, num, den):
    """The operand as a sympy expression in q, and its values at POINTS."""
    n, d = _product(num), _product(den)
    expr = c * q ** k * _at(n, q) / _at(d, q)
    values = [c * fractions.Fraction(p) ** k * _at(n, p) / _at(d, p) for p in POINTS]
    return expr, values


@given(laurent_operands(), laurent_operands(), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_laurent_arithmetic_matches_sympy_and_specialization(a, b, k):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    x, y = _laurent(*a), _laurent(*b)
    (xs, xv), (ys, yv) = _laurent_oracles(q, *a), _laurent_oracles(q, *b)
    cases = (
        (x + y, xs + ys, [u + v for u, v in zip(xv, yv)]),
        (x - y, xs - ys, [u - v for u, v in zip(xv, yv)]),
        (x * y, xs * ys, [u * v for u, v in zip(xv, yv)]),
        (x / y, xs / ys, [u / v for u, v in zip(xv, yv)]),
        (x.inv(), 1 / xs, [1 / u for u in xv]),
        (x ** k, xs ** k, [u ** k for u in xv]),
    )
    for got, want, values in cases:
        assert (got.num, got.den) == _sympy_canonical_expr(sympy, q, want)
        assert [specialize(got, p) for p in POINTS] == values


@given(laurent_operands(), laurent_operands())
@settings(max_examples=40, deadline=None)
def test_equal_values_from_different_paths_hash_alike(a, b):
    x, y = _laurent(*a), _laurent(*b)
    for z in ((x * y) / y, (x + y) - y, -(-x), x.inv().inv(), QRational(x.num, x.den)):
        assert z == x
        assert hash(z) == hash(x)


def test_equal_values_from_dense_and_laurent_paths_hash_alike():
    # q**500 [3]_q by a product, a sum, a quotient through cancellation and
    # the dense constructor
    three = qp(500) * qnum(3)
    for z in (qnum(3) * qp(500),
              qp(498) + qp(500) + qp(502),
              (qp(503) - qp(497)) / kappa(),
              QRational((0,) * 498 + (1, 0, 1, 0, 1))):
        assert z == three
        assert hash(z) == hash(three)


def test_noncanonical_dense_input_equals_fast_path():
    # shared powers of q
    x = QRational((0, 0, 0, 2, 2), (0, 0, 1))
    assert x == qp(1) * QRational.from_int(2) * QRational((1, 1))
    assert (x.num, x.den) == ((0, 2, 2), (1,))
    # a negative leading denominator: 1/(1 - q) = -1/(q - 1)
    y = QRational((1,), (1, -1))
    assert y == -QRational((-1, 1)).inv()
    assert (y.num, y.den) == ((-1,), (-1, 1))
    # a common integer content, with shared powers of q
    z = QRational((0, 6, 0, 6), (0, 0, 4, 4))
    assert z == QRational.from_int(3) * QRational((1, 0, 1)) / (QRational.from_int(2) * qp(1) * QRational((1, 1)))
    assert (z.num, z.den) == ((3, 0, 3), (0, 2, 2))


@given(laurent_operands())
@settings(max_examples=40, deadline=None)
def test_cancellation_gives_the_canonical_zero(a):
    x = _laurent(*a)
    for z in (x - x, ZERO * x, x * ZERO, x + (-x), x * 0, ZERO ** 3):
        assert z.is_zero()
        assert (z.num, z.den) == ((), (1,))
        assert z == ZERO and hash(z) == hash(ZERO)


def test_q_powers_are_exponents():
    big = qp(10 ** 9)
    assert big.as_q_power() == 10 ** 9
    assert big * qp(-10 ** 9) == ONE
    assert (big ** 3).as_q_power() == 3 * 10 ** 9
    assert repr(big.inv()) == "1/q^1000000000"
    assert qrational_to_json(big * QRational((1, -1))) == {
        "num": [[1000000000, "1"], [1000000001, "-1"]], "den": [[0, "1"]]}
    assert repr(qp(5) * QRational((1, 1))) == "q^5 + q^6"
    assert repr(qp(-3) / QRational((1, 1))) == "1/(q^3 + q^4)"


# values with non-monomial denominators, the oscillator action's scalars
# kappa**-1 and [2]_q**-1, and zero
shift_operands = st.one_of(
    laurent_operands().map(lambda a: _laurent(*a)),
    st.sampled_from([kappa().inv(), -kappa().inv(), qnum(2).inv(), ZERO]),
)


@given(shift_operands, st.integers(-50, 50))
@settings(max_examples=80, deadline=None)
def test_shifted_is_the_product_by_a_power_of_q(x, k):
    assert x.shifted(k) is x * qp(k)


def test_shifted_is_an_exponent_add(monkeypatch):
    # q**3 * q/(q**2 - 1), found without the product table or a cancellation
    want = [QRational((0, 0, 0, 0, 1), (-1, 0, 1)), ONE + qp(-2)]
    monkeypatch.setattr(exactfield, "_MUL", {})
    monkeypatch.setattr(exactfield, "_canon", None)
    assert [kappa().inv().shifted(3), qnum(2).shifted(-1)] == want
    assert ZERO.shifted(7) is ZERO and ONE.shifted(0) is ONE
    assert exactfield._MUL == {}


@given(laurent_operands())
@settings(max_examples=40, deadline=None)
def test_display_reads_the_dense_views(a):
    x = _laurent(*a)
    assert qrational_to_json(x) == {"num": qpoly_to_json(x.num), "den": qpoly_to_json(x.den)}
    ns, ds = exactfield._pstr(x.num), exactfield._pstr(x.den)
    if x.den == (1,):
        assert repr(x) == ns
    else:
        ns = f"({ns})" if exactfield._pterms(x.num) > 1 else ns
        ds = f"({ds})" if exactfield._pterms(x.den) > 1 else ds
        assert repr(x) == f"{ns}/{ds}"


# --------------------------------------------------------------- hash-consing

def test_equal_values_are_one_object():
    # the public constructor on non-canonical dense input: shared powers of
    # q, a common integer content, a negative leading denominator
    assert QRational((0, 0, 0, 2, 2), (0, 0, 1)) is qp(1) * 2 * QRational((1, 1))
    assert QRational((0, 6, 0, 6), (0, 0, 4, 4)) is QRational((3, 0, 3), (0, 2, 2))
    assert QRational((1,), (1, -1)) is QRational((-1,), (-1, 1))
    assert QRational((4,), (-2,)) is QRational.from_int(-2) is QRational(-2)
    assert QRational((), (5, 1)) is ZERO is QRational.from_int(0)
    assert qp(2) is QRational((0, 0, 1)) is qp(1) * qp(1)
    assert qp(-1) is QRational((1,), (0, 1))
    assert qnum(3) is QRational((1, 0, 1, 0, 1), (0, 0, 1))
    assert qfactorial(3) is QRational((1, 0, 2, 0, 2, 0, 1), (0, 0, 0, 1))
    x, y = qnum(2), QRational((1, 1), (2, -1))
    assert x + y is y + x is QRational((2, 0, 3, -1), (0, 2, -1)) - 1 + 1
    assert x - y is -(y - x)
    assert x * y is y * x
    assert x / y is (y / x).inv()
    assert x.inv() is QRational((0, 1), (1, 0, 1)) is x ** -1
    assert x ** 2 is x * x is QRational((1, 0, 2, 0, 1), (0, 0, 1))
    assert -x is QRational((-1, 0, -1), (0, 1))
    assert 1 + x is x + 1 is x + ONE


@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_the_interned_object(roundtrip):
    values = [ZERO, ONE, qp(-7), qnum(3), kappa(), QRational((1, 2), (3, 0, 1))]
    for x in values:
        assert roundtrip(x) is x
    assert all(a is b for a, b in zip(roundtrip(values), values))


@given(laurent_operands(), laurent_operands())
@settings(max_examples=40, deadline=None)
def test_memoized_sums_and_products_are_correct(a, b):
    x, y = _laurent(*a), _laurent(*b)
    xv = [specialize(x, p) for p in POINTS]
    yv = [specialize(y, p) for p in POINTS]
    product, total = x * y, x + y
    assert x * y is product and x + y is total
    for got, want in ((product, [u * v for u, v in zip(xv, yv)]),
                      (total, [u + v for u, v in zip(xv, yv)])):
        assert [specialize(got, p) for p in POINTS] == want


def test_result_tables_may_be_cleared(monkeypatch):
    x, y = qnum(3), QRational((1, 1), (2, -1))
    product, total = x * y, x + y
    monkeypatch.setattr(exactfield, "_MUL", {})
    monkeypatch.setattr(exactfield, "_ADD", {})
    assert x * y is product and x + y is total
    assert exactfield._MUL == {(x, y): product}


# -------------------------------------------------------------------- series

def test_series_basics():
    s = USeries(3, (ONE, qp(1), ZERO, qnum(2)))
    assert s.coeff(0) == ONE
    assert s.coeff(1) == qp(1)
    assert s.coeff(3) == qnum(2)
    assert s.coeff(4) == ZERO
    assert series_truncate(s, 1) == USeries(1, (ONE, qp(1)))
    with pytest.raises(ValueError):
        series_truncate(s, 4)
    assert USeries(4, (ONE,)).coeff(0) == ONE
    assert USeries(4, (ONE,)).coeff(3) == ZERO
    # a display record: the ring arithmetic lives in the oracles
    with pytest.raises(TypeError):
        s + s


def test_series_product_truncates():
    # (1 + u)(1 - u) = 1 - u^2 exactly within the window
    a = USeries(4, (ONE, ONE))
    b = USeries(4, (ONE, -ONE))
    assert series_product(a, b) == USeries(4, (ONE, ZERO, -ONE))


def test_series_scale_var_and_derivative():
    s = URational((ONE,), (ONE, -ONE)).expand(4)        # 1/(1-u)
    t = scale_var(s, qp(2))                             # 1/(1-q^2 u)
    assert all(t.coeff(k) == qp(2 * k) for k in range(5))
    d = derivative(s)                                   # 1/(1-u)^2
    assert all(d.coeff(k) == QRational.from_int(k + 1) for k in range(4))


@given(useries(), useries(), useries())
@settings(max_examples=40, deadline=None)
def test_series_ring_axioms(a, b, c):
    add, mul = series_sum, series_product
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert series_difference(a, a) == USeries(4)


def test_series_invert():
    s = USeries(5, (ONE, -ONE))                         # 1 - u
    t = series_inverse(s)
    assert all(t.coeff(k) == ONE for k in range(6))
    assert series_product(s, t) == USeries(5, (ONE,))
    with pytest.raises(ZeroConstantTerm):
        series_inverse(USeries(3, (ZERO, ONE)))


@given(useries())
@settings(max_examples=40, deadline=None)
def test_series_invert_roundtrip(s):
    if s.coeff(0).is_zero():
        return
    assert series_product(s, series_inverse(s)) == USeries(4, (ONE,))


def test_series_log():
    # log(1/(1-u)) = sum u^n / n
    s = series_log(series_inverse(USeries(5, (ONE, -ONE))))
    for n in range(1, 6):
        assert s.coeff(n) == ONE / QRational.from_int(n)
    assert s.coeff(0) == ZERO
    with pytest.raises(ConstantTermNotOne):
        series_log(USeries(3, (qnum(2),)))


def test_series_log_is_additive():
    a = URational((ONE, qp(1))).expand(6)               # 1 + q u
    b = URational((ONE,), (ONE, -qp(-1))).expand(6)     # 1/(1 - u/q)
    assert series_log(series_product(a, b)) == series_sum(series_log(a), series_log(b))


# ---------------------------------------------------- rational functions of u

# constant terms that are not one, so URational has to scale the denominator
_UNIT_CONSTANTS = (QRational.from_int(2), qp(3), -qp(-1))


@st.composite
def expansions(draw):
    """(num, den, order): den with a non-unit constant term; num may be
    zero or longer than order + 1."""
    order = draw(st.integers(0, 5))
    num = draw(st.lists(qrationals(), min_size=0, max_size=order + 3))
    tail = draw(st.lists(qrationals(), min_size=0, max_size=3))
    return num, [draw(st.sampled_from(_UNIT_CONSTANTS))] + tail, order


@given(expansions())
@settings(max_examples=60, deadline=None)
def test_expand_is_num_times_inverse_den(case):
    num, den, order = case
    assert URational(num, den).expand(order) == expand_fraction(num, den, order)


def test_expand_edge_cases():
    two = QRational.from_int(2)
    # 1/(2 - u) at order 0, and a numerator longer than the window
    assert URational((ONE,), (two, -ONE)).expand(0) == USeries(0, (ONE / two,))
    long = (ONE, qp(1), qp(2), qp(3), qp(4))
    assert URational(long, (-qp(-1), ONE)).expand(2) == expand_fraction(long, (-qp(-1), ONE), 2)
    assert URational((), (qp(3), ONE)).expand(3) == USeries(3)
    assert URational((ZERO, ZERO), (qp(3),)).expand(0) == USeries(0)

def test_urational_normalizes_leading_denominator():
    # scaling num and den together leaves the canonical form unchanged
    r1 = URational((qp(2),), (ONE, -qp(1)))
    r2 = URational((qp(2) * qnum(2),), (qnum(2), -qp(1) * qnum(2)))
    assert r1 == r2
    assert hash(r1) == hash(r2)
    assert constant_term(r1) == qp(2)
    assert num_degree(r1) == 0 and den_degree(r1) == 1


def test_urational_cancels_common_factors():
    # (1-u)(1+u) / (1-u) = 1+u
    num = (ONE, ZERO, -ONE)
    r = reduced(num, (ONE, -ONE))
    assert r == URational((ONE, ONE))
    assert den_degree(r) == 0


def test_pade_reconstructs_rational_functions():
    r = URational((qp(-2),), (ONE, -qp(-1)))
    s = r.expand(6)
    assert pade(s, 0, 1) == r
    # a larger window still recovers the same function after normalization
    assert pade(s, 2, 2) == r
    assert pade(s, 2, 2).expand(6) == s


def test_pade_lower_type_approximant_is_legitimate():
    # the type-(1,0) approximant of a (0,1) function matches through order 1
    r = URational((qp(-2),), (ONE, -qp(-1)))
    p = pade(r.expand(6), 1, 0)
    assert den_degree(p) == 0
    assert p.expand(1) == r.expand(1)


def test_pade_mismatch_raises():
    # positive valuation cannot be written with an invertible denominator
    s = USeries(3, (ZERO, ONE))
    with pytest.raises(DegreeMismatch):
        pade(s, 0, 1)
    with pytest.raises(ValueError):
        pade(s, -1, 0)
    with pytest.raises(ValueError):
        pade(USeries(1, (ONE,)), 2, 2)


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_pade_on_linear_over_linear(a, b, c):
    num = (ONE, qp(a) * QRational.from_int(b))
    den = (ONE, qp(-a) * QRational.from_int(c))
    r = reduced(num, den)
    assert pade(r.expand(6), 1, 1) == r
    assert pade(r.expand(6), 2, 2) == r


# ---------------------------------------------------------------------- JSON

def test_json_encodings():
    assert qpoly_to_json((1, 0, -2)) == [[0, "1"], [2, "-2"]]
    assert qrational_to_json(kappa()) == {"num": [[0, "-1"], [2, "1"]], "den": [[1, "1"]]}
    r = URational((qp(-2),), (ONE, -qp(-1)))
    j = urational_to_json(r)
    assert j["num"] == upoly_to_json(r.num)
    assert j["den"] == upoly_to_json(r.den)
    assert j["num"][0][1] == {"num": [[0, "1"]], "den": [[2, "1"]]}
