"""Two Fock-type oscillator modules and their tensor-slot patterns.

On the plus module q^N has eigenvalue q^m, b lowers with coefficient [m] and
bdag raises freely; on the minus module q^N has eigenvalue q^-(m+1), b raises
freely and bdag lowers with coefficient -[m].  Together they realize the
defining relations q^N b q^-N = q^-1 b, q^N bdag q^-N = q bdag,
b bdag = [N+1] and bdag b = [N] ([N] evaluated on the q^N eigenvalue).
The slot-by-slot action checked here is the reference in tests/oracles.py;
test_borelrep ties OscWord.terms to it.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_mode, state_add, state_coefficient, state_scale, state_sub
from qloop.borelrep import RepSpec
from qloop.exactfield import QRational, qnum
from qloop.fock import FockState

ONE = QRational.one()
qp = QRational.q_power


def _single(kind):
    return (kind,)


def _v(m):
    return FockState.basis((m,))


def _nexp(kind, m):
    # eigenvalue exponent of q^N on the occupation-m vector
    return m if kind == "plus" else -(m + 1)


# -------------------------------------------------------------- single modes

def test_plus_module_ladder():
    p = _single("plus")
    assert apply_mode("bdag", 1, p, _v(2)) == _v(3)
    assert apply_mode("b", 1, p, _v(3)) == state_scale(_v(2), qnum(3))
    assert apply_mode("b", 1, p, _v(0)).is_zero()
    assert apply_mode(("qN", 1), 1, p, _v(2)) == state_scale(_v(2), qp(2))
    assert apply_mode(("qN", -2), 1, p, _v(3)) == state_scale(_v(3), qp(-6))


def test_minus_module_ladder():
    p = _single("minus")
    assert apply_mode("b", 1, p, _v(2)) == _v(3)
    assert apply_mode("bdag", 1, p, _v(3)) == state_scale(_v(2), -qnum(3))
    assert apply_mode("bdag", 1, p, _v(0)).is_zero()
    assert apply_mode(("qN", 1), 1, p, _v(2)) == state_scale(_v(2), qp(-3))
    assert apply_mode(("qN", 3), 1, p, _v(0)) == state_scale(_v(0), qp(-3))


@pytest.mark.parametrize("kind", ["plus", "minus"])
@pytest.mark.parametrize("m", range(4))
def test_defining_relations_one_mode(kind, m):
    p = _single(kind)
    v = _v(m)
    n = _nexp(kind, m)

    # q^N b = q^-1 b q^N and q^N bdag = q bdag q^N
    for op, shift in (("b", -1), ("bdag", 1)):
        lhs = apply_mode(("qN", 1), 1, p, apply_mode(op, 1, p, v))
        rhs = state_scale(apply_mode(op, 1, p, apply_mode(("qN", 1), 1, p, v)), qp(shift))
        assert lhs == rhs

    # b bdag v = [N+1] v and bdag b v = [N] v, with [k] read off q^N
    def bracket(t):
        return (qp(t) - qp(-t)) / (qp(1) - qp(-1))

    assert apply_mode("b", 1, p, apply_mode("bdag", 1, p, v)) == state_scale(v, bracket(n + 1))
    assert apply_mode("bdag", 1, p, apply_mode("b", 1, p, v)) == state_scale(v, bracket(n))


@pytest.mark.parametrize("kind", ["plus", "minus"])
@pytest.mark.parametrize("m", range(4))
def test_commutator_value(kind, m):
    # [b, bdag] v = ([N+1] - [N]) v with [k] read off the q^N eigenvalue
    p = _single(kind)
    v = _v(m)
    n = _nexp(kind, m)
    lhs = state_sub(apply_mode("b", 1, p, apply_mode("bdag", 1, p, v)),
                    apply_mode("bdag", 1, p, apply_mode("b", 1, p, v)))
    want = (qp(n + 1) - qp(-n - 1) - qp(n) + qp(-n)) / (qp(1) - qp(-1))
    assert lhs == state_scale(v, want)


def test_qn_is_additive_in_the_exponent():
    for kind in ("plus", "minus"):
        p = _single(kind)
        for m in range(3):
            two_steps = apply_mode(("qN", 1), 1, p, apply_mode(("qN", 2), 1, p, _v(m)))
            assert two_steps == apply_mode(("qN", 3), 1, p, _v(m))


# ------------------------------------------------------------------- patterns

def test_theta_patterns():
    assert RepSpec(3, 1).pattern() == ("minus", "minus", "minus")
    assert RepSpec(3, 2).pattern() == ("minus", "minus", "plus")
    assert RepSpec(3, 4).pattern() == ("plus", "plus", "plus")
    assert RepSpec(3, 1, True).pattern() == ("plus", "plus", "plus")
    assert RepSpec(3, 3, True).pattern() == ("minus", "minus", "plus")
    with pytest.raises(ValueError):
        RepSpec(3, 5).pattern()
    with pytest.raises(ValueError):
        RepSpec(3, 0, True).pattern()


def test_bar_pattern_is_the_reflected_pattern():
    # slot pattern of the mirrored module a equals that of module l-a+2
    for l in range(1, 9):
        for a in range(1, l + 2):
            assert RepSpec(l, a, True).pattern() == RepSpec(l, l - a + 2).pattern()


def test_patterns_follow_the_slot_convention():
    # theta_a: l-a+1 minus slots, then a-1 plus; mirrored: a-1 minus, then l-a+1 plus
    for l in range(1, 9):
        for a in range(1, l + 2):
            for bar in (False, True):
                minus, plus = (a - 1, l - a + 1) if bar else (l - a + 1, a - 1)
                pattern = RepSpec(l, a, bar).pattern()
                assert pattern == ("minus",) * minus + ("plus",) * plus


def test_modes_in_different_slots_commute():
    pat = ("minus", "plus")
    v = FockState.basis((1, 1))
    for op1, op2 in itertools.product(("b", "bdag", ("qN", 1)), repeat=2):
        ab = apply_mode(op1, 1, pat, apply_mode(op2, 2, pat, v))
        ba = apply_mode(op2, 2, pat, apply_mode(op1, 1, pat, v))
        assert ab == ba


# ----------------------------------------------------------------- vector ops

def test_state_vector_space_ops():
    v = FockState.basis((0, 1))
    w = FockState.basis((1, 0))
    s = state_add(v, w)
    assert state_coefficient(s, (0, 1)) == ONE
    assert state_coefficient(s, (1, 0)) == ONE
    assert state_coefficient(s, (1, 1)).is_zero()
    assert state_sub(s, v) == w
    assert state_scale(v, QRational.zero()).is_zero()
    assert FockState.zero(2).is_zero()
    assert state_sub(v, v).is_zero()
    assert state_coefficient(state_scale(v, qnum(2)), (0, 1)) == qnum(2)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_basis_vector_is_the_unit_occupation_state(m):
    v = FockState.basis(m)
    assert v.l == len(m)
    assert state_coefficient(v, m) == ONE
    assert len(dict(v.items())) == 1
    with pytest.raises(ValueError):
        FockState.basis(m[:-1] + [-1])
