"""Oscillator images of the Borel generators and the expression evaluator."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (apply_at, apply_word, qh_exponent, specialize, state_add, state_scale,
                     state_sub, symbolic_by_nodes, twist_consistency)
from qloop import borelrep, cli
from qloop.borelrep import (CartanPower, Compose, Evaluator, Gen, OscWord, RepSpec,
                            Scale, Sum, _vanishes_on, get_evaluator, identity, image_e,
                            image_qh, power, serre_check, serre_sum, weight_relation_check)
from qloop.exactfield import QRational, kappa, qnum
from qloop.fock import FockState
from qloop.rootsys import CartanExponent, RootIndex
from qloop.rootvectors import (chi, e_dual, e_prime_imag, e_real, e_unprimed_imag, qcomm,
                               xi_minus, xi_plus)

ONE = QRational.one()
qp = QRational.q_power
KI = kappa().inv()


def qN(*d):
    return ("qN", tuple(d))


# ----------------------------------------------------------------- rep specs

def test_repspec_validation():
    RepSpec(1, 1)
    RepSpec(3, 4, True)
    with pytest.raises(ValueError):
        RepSpec(0, 1)
    with pytest.raises(ValueError):
        RepSpec(2, 4)
    with pytest.raises(ValueError):
        RepSpec(2, 0)


# -------------------------------------------------------------- image tables

def test_generator_images_rank_one():
    # a = 2: e_0 is the bare creation operator, e_1 the kappa-scaled killer
    s12 = RepSpec(1, 2)
    assert image_e(0, s12) == OscWord(1, ONE, (("bdag", 1),))
    assert image_e(1, s12) == OscWord(1, -KI, (("b", 1), qN(1)))
    # a = 1: the two images swap roles
    s11 = RepSpec(1, 1)
    assert image_e(0, s11) == OscWord(1, -KI, (("b", 1), qN(1)))
    assert image_e(1, s11) == OscWord(1, ONE, (("bdag", 1),))


def test_generator_images_middle_row():
    # generic row: a two-mode hopping word with a balanced q-power
    s32 = RepSpec(3, 2)
    assert image_e(3, s32) == OscWord(3, -qp(-1), (("b", 1), ("bdag", 2), qN(1, -1, 0)))
    # creation row (i = a) picks up the q-power of all later modes
    assert image_e(2, s32) == OscWord(3, ONE, (("bdag", 1), qN(0, 1, 1)))
    # kappa row (i = a-1) annihilates against the last mode
    assert image_e(1, s32) == OscWord(3, -KI, (("b", 3), qN(0, 0, 1)))


def test_cartan_images():
    # h_1 at (l=3, a=2) acts as q^-(N_1 + N_2 + 2 N_3)
    w = image_qh(CartanExponent.h(3, 1), RepSpec(3, 2))
    assert w == OscWord(3, ONE, (qN(-1, -1, -2),))
    # middle rows act by a difference of neighbouring number operators
    w = image_qh(CartanExponent.h(3, 3), RepSpec(3, 2))
    assert w == OscWord(3, ONE, (qN(-1, 1, 0),))
    # exponents add: q^(h_1 + h_3) = q^(h_1) q^(h_3)
    x = CartanExponent.h(3, 1) + CartanExponent.h(3, 3)
    assert image_qh(x, RepSpec(3, 2)) == OscWord(3, ONE, (qN(-2, 0, -2),))


def test_images_preserve_rank():
    for l in (1, 2, 3):
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar)
                for i in range(l + 1):
                    assert image_e(i, spec).l == l
                    assert image_qh(CartanExponent.h(l, i), spec).l == l


def test_images_are_in_normal_form():
    # every image word has its ladder atoms sorted by mode and at most one
    # q-power, placed last, so equal operators are equal words
    for l in range(1, 9):
        for a in range(1, l + 2):
            for bar in (False, True):
                for i in range(l + 1):
                    atoms = image_e(i, RepSpec(l, a, bar)).atoms
                    ladder = tuple(atom for atom in atoms if atom[0] != "qN")
                    assert [mode for _, mode in ladder] == sorted(mode for _, mode in ladder)
                    assert atoms[:len(ladder)] == ladder and len(atoms) <= len(ladder) + 1


# -------------------------------------------------- twist and reflection laws

def test_rotation_has_order_l_plus_one():
    for l in (1, 2, 3):
        idx = list(range(l + 1))
        for _ in range(l + 1):
            idx = [(k + 1) % (l + 1) for k in idx]
        assert idx == list(range(l + 1))


def test_flip_is_an_involution():
    for l in (1, 2, 3):
        tau = [0] + [l - k + 1 for k in range(1, l + 1)]
        assert all(tau[tau[k]] == k for k in range(l + 1))


def test_all_images_come_from_the_base_module_by_twisting():
    for l in (1, 2, 3):
        for a in range(1, l + 2):
            for bar in (False, True):
                for i in range(l + 1):
                    assert twist_consistency(l, a, bar, i)


def test_bar_images_are_reflected_images():
    # the mirrored module a is the reflected unmirrored module l-a+2
    for l in (1, 2, 3):
        for a in range(1, l + 2):
            mirrored, refl = RepSpec(l, a, bar=True), RepSpec(l, l - a + 2)
            for i in range(l + 1):
                r = (l + 1 - i) % (l + 1)
                assert image_e(i, mirrored) == image_e(r, refl)
                assert image_qh(CartanExponent.h(l, i), mirrored) == \
                    image_qh(CartanExponent.h(l, r), refl)


# ------------------------------------------------------- word application law

osc_atoms = st.one_of(
    st.tuples(st.sampled_from(("b", "bdag")), st.integers(1, 2)),
    st.tuples(st.just("qN"), st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
)


GRID = list(itertools.product(range(4), repeat=2))


def _at(pairs, m):
    """Symbolic ((shift, v), c) pairs specialized at v_m: a FockState whose
    targets are checked to lie in the Fock space."""
    out = {}
    for (s, v), c in pairs:
        t = tuple(a + b for a, b in zip(m, s))
        x = c * qp(sum(a * b for a, b in zip(v, m)))
        out[t] = out[t] + x if t in out else x
    state = FockState(len(m), out)
    assert all(min(t) >= 0 for t, _ in state.items())
    return state


@given(st.lists(osc_atoms, max_size=5))
@settings(max_examples=60, deadline=None)
def test_word_application_matches_mode_by_mode_action(atoms):
    pattern = RepSpec(2, 2).pattern()
    word = OscWord(2, qnum(2), atoms)
    pairs = word.terms(pattern)
    assert len({s for (s, _), _ in pairs}) == 1
    for m in GRID:
        assert _at(pairs, m) == apply_word(word, pattern, FockState.basis(m)), m


# slot 1 of RepSpec(2, 2) is a minus slot, where bdag lowers; slot 2 is a plus
# slot, where b lowers
@pytest.mark.parametrize("atoms, m", [
    ((("b", 2),), (1, 0)),
    ((("bdag", 1),), (0, 1)),
    ((("bdag", 2), ("b", 2)), (1, 0)),
    ((("b", 1), ("bdag", 1)), (0, 1)),
])
def test_lowering_from_occupation_zero_gives_zero(atoms, m):
    pattern = RepSpec(2, 2).pattern()
    word = OscWord(2, ONE, atoms)
    pairs = word.terms(pattern)
    # the symbolic action is nonzero; it carries [m_j]_q, which is 0 at m_j = 0
    assert pairs and _at(pairs, m).is_zero()
    assert apply_word(word, pattern, FockState.basis(m)).is_zero()
    assert not _at(pairs, (1, 1)).is_zero()


# ----------------------------------------------------------------- evaluator

def _ref_apply(expr, ev, state):
    """Reference semantics by structural recursion, no memoization, with the
    mode-by-mode action on the images."""
    if isinstance(expr, Gen):
        return apply_word(image_e(expr.i, ev.spec), ev.pattern, state)
    if isinstance(expr, CartanPower):
        return apply_word(image_qh(expr.x, ev.spec), ev.pattern, state)
    if isinstance(expr, Scale):
        return state_scale(_ref_apply(expr.child, ev, state), expr.c)
    if isinstance(expr, Sum):
        out = FockState.zero(ev.spec.l)
        for child in expr.children:
            out = state_add(out, _ref_apply(child, ev, state))
        return out
    if isinstance(expr, Compose):
        return _ref_apply(expr.left, ev, _ref_apply(expr.right, ev, state))
    raise TypeError


@st.composite
def op_exprs(draw, l, depth=3):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return Gen(draw(st.integers(0, l)))
        return CartanPower(CartanExponent.h(l, draw(st.integers(0, l))))
    kind = draw(st.sampled_from(("sum", "scale", "compose")))
    if kind == "sum":
        return Sum((draw(op_exprs(l, depth - 1)), draw(op_exprs(l, depth - 1))))
    if kind == "scale":
        return Scale(qnum(draw(st.integers(1, 3))), draw(op_exprs(l, depth - 1)))
    return Compose(draw(op_exprs(l, depth - 1)), draw(op_exprs(l, depth - 1)))


def _rebuild(expr):
    """The same tree built again, from fresh but equal scalars and exponents."""
    if isinstance(expr, Gen):
        return Gen(expr.i)
    if isinstance(expr, CartanPower):
        return CartanPower(CartanExponent(expr.x.l, tuple(list(expr.x.coeffs))))
    if isinstance(expr, Scale):
        return Scale(QRational(expr.c.num, expr.c.den), _rebuild(expr.child))
    if isinstance(expr, Sum):
        return Sum(tuple(_rebuild(child) for child in expr.children))
    return Compose(_rebuild(expr.left), _rebuild(expr.right))


def _sparse(pairs):
    """The pairs as a dict, after checking they are distinct and nonzero."""
    assert isinstance(pairs, tuple)
    out = dict(pairs)
    assert len(out) == len(pairs)
    assert all(not c.is_zero() for c in out.values())
    return out


@given(op_exprs(2), st.tuples(st.integers(0, 2), st.integers(0, 2)))
@settings(max_examples=50, deadline=None)
def test_evaluator_matches_reference_semantics(expr, m):
    spec = RepSpec(2, 2)
    ev = get_evaluator(spec)
    out = ev.terms(expr, m)
    want = _ref_apply(expr, ev, FockState.basis(m))
    assert FockState(2, _sparse(out)) == want
    assert ev.apply_basis(expr, m) == want
    # a rebuilt tree is the same node: a second call adds no memo entry and
    # returns the memoized tuple
    entries = len(ev._cache)
    assert entries <= len(borelrep._NODES)
    again = _rebuild(expr)
    assert again is expr
    assert ev.terms(again, m) == out
    assert ev.symbolic(again) is ev.symbolic(expr)
    assert len(ev._cache) == entries


@pytest.mark.parametrize("q", [2, 3, 5])
@given(expr=op_exprs(2), m=st.tuples(st.integers(0, 2), st.integers(0, 2)))
@settings(max_examples=30, deadline=None)
def test_terms_specialize_to_the_fraction_action(q, expr, m):
    # the same tree with Fraction scalars, through the explicit generator
    # tables and the mode-by-mode action
    spec = RepSpec(2, 1, True)
    got = {t: specialize(c, q) for t, c in _sparse(get_evaluator(spec).terms(expr, m)).items()}
    want = apply_at(expr, spec, m, q, {})
    assert {t: x for t, x in got.items() if x} == want


def test_sum_over_two_targets_keeps_both_terms():
    ev = get_evaluator(RepSpec(2, 2))
    m = (1, 1)
    e0, e1 = ev.terms(Gen(0), m), ev.terms(Gen(1), m)
    assert len(e0) == len(e1) == 1 and e0[0][0] != e1[0][0]
    out = ev.terms(Sum((Gen(0), Gen(1))), m)
    assert len(out) == 2
    assert _sparse(out) == dict(e0 + e1)


def test_cancelling_sums_give_no_terms():
    ev = get_evaluator(RepSpec(2, 2))
    m = (1, 1)
    # one target: the scalars add to zero
    assert ev.terms(Sum((Gen(0), Scale(-ONE, Gen(0)))), m) == ()
    # two targets: the merge drops the one that cancels and keeps the other
    out = ev.terms(Sum((Gen(0), Gen(1), Scale(-ONE, Gen(0)))), m)
    assert out == ev.terms(Gen(1), m)


def test_compose_over_a_two_term_right_side():
    spec = RepSpec(2, 2)
    ev = get_evaluator(spec)
    m = (1, 1)
    x = Sum((Gen(0), Gen(1)))
    right = ev.terms(x, m)
    assert len(right) == 2
    for left in (Gen(1), x):
        expr = Compose(left, x)
        want = _ref_apply(expr, ev, FockState.basis(m))
        assert FockState(2, _sparse(ev.terms(expr, m))) == want
        assert _ref_apply(left, ev, ev.apply_basis(x, m)) == want
    # e0 e1 v and e1 e0 v reach one target, so the merge adds them
    m = (2, 2)
    (t01, c01), = ev.terms(Compose(Gen(0), Gen(1)), m)
    (t10, c10), = ev.terms(Compose(Gen(1), Gen(0)), m)
    assert t01 == t10
    out = _sparse(ev.terms(Compose(x, x), m))
    assert len(out) == 3 and out[t01] == c01 + c10


def test_equal_trees_are_one_node():
    assert Compose(Gen(0), Gen(1)) is Compose(Gen(0), Gen(1))
    assert Compose(Gen(0), Gen(1)) is not Compose(Gen(1), Gen(0))
    c, d = QRational((1, 0, 1), (2,)), QRational((1, 0, 1), (2,))
    assert c is d
    assert Scale(c, Gen(2)) is Scale(d, Gen(2))
    assert Scale(c, Gen(2)) is not Scale(qnum(2), Gen(2))
    x, y = CartanExponent.h(2, 1), CartanExponent.h(2, 1)
    assert x is not y
    assert CartanPower(x) is CartanPower(y)
    assert identity(2) is CartanPower(CartanExponent.zero(2))


def test_operator_nodes_are_immutable_and_take_their_fields():
    node = Gen(0)
    with pytest.raises(AttributeError):
        node.i = 1
    with pytest.raises(ValueError):
        Scale(ONE)
    with pytest.raises(ValueError):
        Gen(0, 1)
    with pytest.raises(TypeError):
        Sum([Gen(0), Gen(1)])  # children are a tuple


def test_operator_constructors_build_the_right_trees():
    spec = RepSpec(2, 1)
    ev = get_evaluator(spec)
    e0, e1 = Gen(0), Gen(1)
    m = (1, 1)
    v = FockState.basis(m)
    assert ev.apply_basis(Sum((Compose(e0, e1), Scale(-ONE, Compose(e1, e0)))), m) == \
        state_sub(_ref_apply(e0, ev, ev.apply_basis(e1, m)),
                  _ref_apply(e1, ev, ev.apply_basis(e0, m)))
    two = QRational.from_int(2)
    assert ev.apply_basis(Scale(two, e0), m) == state_scale(ev.apply_basis(e0, m), two)
    assert ev.apply_basis(Scale(-ONE, e0), m) == state_scale(ev.apply_basis(e0, m), -ONE)
    assert ev.apply_basis(identity(2), m) == v
    assert ev.apply_basis(power(e0, 3, 2), m) == \
        _ref_apply(e0, ev, _ref_apply(e0, ev, ev.apply_basis(e0, m)))
    assert ev.apply_basis(power(e0, 0, 2), m) == v


def test_evaluator_is_linear_and_cached():
    spec = RepSpec(2, 3)
    ev = get_evaluator(spec)
    assert get_evaluator(RepSpec(2, 3)) is ev
    e = Gen(1)
    v = state_add(state_scale(FockState.basis((1, 0)), qnum(2)), FockState.basis((0, 1)))
    direct = _ref_apply(e, ev, v)
    parts = state_add(state_scale(ev.apply_basis(e, (1, 0)), qnum(2)),
                      ev.apply_basis(e, (0, 1)))
    assert direct == parts
    # the memo holds one symbolic result per node, for every m
    assert ev.symbolic(e) is ev.symbolic(e)


def test_memo_holds_one_entry_per_node(monkeypatch):
    # a fresh node table, so every node of the tree is built in this test
    monkeypatch.setattr(borelrep, "_NODES", {})
    ev = Evaluator(RepSpec(2, 2))
    sub = Compose(Gen(0), Gen(1))
    root = Scale(qnum(2), sub)
    first = ev.terms(root, (1, 1))
    assert first
    nodes = {root, sub, Gen(0), Gen(1)}
    assert set(ev._cache) == nodes and set(borelrep._NODES.values()) == nodes
    # other basis vectors are specializations of the same entries
    for m in GRID:
        ev.terms(root, m)
    assert ev.terms(root, (1, 1)) == first
    assert set(ev._cache) == nodes


def test_qh_exponent_is_additive():
    spec = RepSpec(3, 2)
    ev = get_evaluator(spec)
    x = CartanExponent.h(3, 0)
    y = CartanExponent.h(3, 2)
    for m in ((0, 0, 0), (1, 2, 0), (2, 1, 1)):
        assert qh_exponent(ev, x + y, m) == qh_exponent(ev, x, m) + qh_exponent(ev, y, m)
        assert qh_exponent(ev, -x, m) == -qh_exponent(ev, x, m)


def test_one_shot_apply_helper():
    spec = RepSpec(1, 2)
    assert get_evaluator(spec).apply_basis(Gen(0), (0,)) == FockState.basis((1,))


# ----------------------------------------------------- relations on the image

def test_serre_relations_small_ranks():
    for l in (1, 2):
        samples = list(itertools.product(range(2), repeat=l))
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar)
                for i in range(l + 1):
                    for j in range(l + 1):
                        if i != j:
                            assert serre_check(i, j, spec, samples), (l, a, bar, i, j)
                            # and for every m
                            assert not get_evaluator(spec).symbolic(serre_sum(l, i, j))
    with pytest.raises(ValueError):
        serre_sum(2, 1, 1)


def test_repeated_serre_check_adds_no_memo_entries():
    # each check builds its Serre sum afresh; the interned tree is the same key
    spec = RepSpec(2, 1)
    samples = list(itertools.product(range(2), repeat=2))
    ev = get_evaluator(spec)
    assert serre_check(0, 1, spec, samples)
    entries = len(ev._cache)
    assert serre_check(0, 1, spec, samples)
    assert len(ev._cache) == entries


def test_weight_relations_small_ranks():
    for l in (1, 2):
        samples = list(itertools.product(range(2), repeat=l))
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar)
                for i in range(l + 1):
                    for j in range(l + 1):
                        x = CartanExponent.h(l, j)
                        assert weight_relation_check(i, x, spec, samples), (l, a, bar, i, j)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_serre_check_refuses_a_wrong_cartan_entry(l, monkeypatch):
    # with a_01 = 0 the Serre sum is the commutator [e_0, e_1], which acts nonzero
    spec = RepSpec(l, 1)
    samples = list(itertools.product(range(2), repeat=l))
    assert serre_check(0, 1, spec, samples)
    monkeypatch.setattr(borelrep, "cartan_entry", lambda *args: 0)
    assert not serre_check(0, 1, spec, samples)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_weight_relation_check_refuses_a_wrong_weight(l, monkeypatch):
    spec = RepSpec(l, 1)
    samples = list(itertools.product(range(2), repeat=l))
    x = CartanExponent.h(l, 1)
    assert weight_relation_check(1, x, spec, samples)
    pair_root = CartanExponent.pair_root
    monkeypatch.setattr(CartanExponent, "pair_root", lambda self, r: pair_root(self, r) + 1)
    assert not weight_relation_check(1, x, spec, samples)


def test_relation_checks_refuse_no_samples():
    # a check of no basis vector examines nothing, so it must not pass
    spec = RepSpec(2, 1)
    x = CartanExponent.h(2, 1)
    for samples in ([], iter(())):
        with pytest.raises(ValueError):
            serre_check(0, 1, spec, samples)
        with pytest.raises(ValueError):
            weight_relation_check(1, x, spec, samples)
    # samples may be a generator, read once for every basis vector
    gen = (m for m in itertools.product(range(2), repeat=2))
    assert weight_relation_check(1, x, spec, gen)


def test_zero_shift_is_read_from_the_symbolic_terms():
    # a generator moves v_m; q**h, the zero operator and e'_delta do not
    for spec in _modules([2]):
        ev = Evaluator(spec)
        assert not any(ev.zero_shift(Gen(i)) for i in range(3))
        assert ev.zero_shift(CartanPower(CartanExponent.h(2, 1)))
        assert ev.zero_shift(Scale(QRational.zero(), Gen(0)))
        assert ev.zero_shift(e_prime_imag(2, 1, 2, 1))


def test_zero_shift_is_memoized_beside_the_terms(monkeypatch):
    # the second call reads the verdict, not the terms, and adds no memo entry
    ev = Evaluator(RepSpec(2, 1))
    trees = [e_prime_imag(2, 1, 2, 1), Gen(1), Sum((Gen(1), Scale(-ONE, Gen(1))))]
    first = [ev.zero_shift(tree) for tree in trees]
    assert first == [True, False, True]
    entries = dict(ev._cache)

    def no_terms(self, expr):
        raise AssertionError("read the terms again")

    monkeypatch.setattr(Evaluator, "symbolic", no_terms)
    assert [ev.zero_shift(tree) for tree in trees] == first
    assert ev._cache == entries
    assert ev._zero_shift == dict(zip(trees, first))


def test_an_empty_symbolic_difference_is_decided_without_the_samples(monkeypatch):
    spec = RepSpec(2, 1)
    diff = Sum((Gen(1), Scale(-ONE, Gen(1))))
    assert get_evaluator(spec).symbolic(diff) == ()

    def no_terms(*args):
        raise AssertionError("specialized an empty symbolic result")

    monkeypatch.setattr(Evaluator, "terms", no_terms)
    assert _vanishes_on(spec, diff, itertools.product(range(2), repeat=2))
    # the symbolic verdict is read only after the samples: none is still refused
    for samples in ([], iter(())):
        with pytest.raises(ValueError):
            _vanishes_on(spec, diff, samples)


def test_a_nonempty_symbolic_result_falls_back_to_the_samples():
    # e_1 of theta_2 at l = 1 lowers the one slot: its symbolic terms are
    # nonempty, yet from occupation 0 the lowering carries [0]_q = 0
    spec = RepSpec(1, 2)
    assert get_evaluator(spec).symbolic(Gen(1))
    assert _vanishes_on(spec, Gen(1), [(0,)])
    assert _vanishes_on(spec, Gen(1), iter([(0,)]))
    assert not _vanishes_on(spec, Gen(1), [(0,), (1,)])


# ------------------------------------- symbolic action against the node-by-node oracle

def _modules(ls):
    return [RepSpec(l, a, bar) for l in ls for a in range(1, l + 2) for bar in (False, True)]


def assert_matches_nodes(ev, tree, memo) -> tuple:
    """ev.symbolic(tree) equals the node-by-node oracle as {(s, v): c}, with
    distinct keys and no zero coefficient."""
    got = ev.symbolic(tree)
    assert all(c for _, c in got), tree
    assert len(dict(got)) == len(got), tree
    assert dict(got) == symbolic_by_nodes(ev, tree, memo), tree
    return got


@pytest.mark.parametrize("spec", _modules([2, 3]), ids=repr)
def test_a_shared_compose_streams_and_stays_memoized(spec):
    # C is a child of the Sums (streamed), a root and a Compose factor (memoized)
    C = Compose(Gen(1), Gen(2))
    sums = [Sum((C, C)), Sum((C, Scale(-ONE, C))),
            Sum((Sum((C, Scale(qp(1), C))), Gen(0), Scale(-ONE, Compose(Gen(2), Gen(1))))),
            Sum((Scale(QRational.zero(), C), Gen(0), Scale(-ONE, C))),
            Sum((Scale(qnum(2), C), Sum((C, Scale(-ONE, C))), Compose(C, Gen(0))))]
    want = symbolic_by_nodes(Evaluator(spec), C)
    for sums_first in (False, True):
        ev, memo = Evaluator(spec), {}
        if sums_first:
            for tree in sums[:-1]:
                assert_matches_nodes(ev, tree, memo)
            # streamed children get no memo entry; the last Sum reads C as a factor
            assert C not in ev._cache and Scale(-ONE, C) not in ev._cache
            assert_matches_nodes(ev, sums[-1], memo)
            assert C in ev._cache and Compose(C, Gen(0)) not in ev._cache
        root = assert_matches_nodes(ev, C, memo)
        outer = assert_matches_nodes(ev, Compose(C, Gen(0)), memo)
        for tree in sums:
            assert_matches_nodes(ev, tree, memo)
        assert ev._cache[C] is root and ev.symbolic(C) is root
        assert ev.symbolic(Compose(C, Gen(0))) is outer
        assert dict(root) == want
        assert dict(ev.symbolic(sums[0])) == {k: c + c for k, c in want.items()}
        assert ev.symbolic(sums[1]) == ()


def test_a_shared_compose_is_nonzero_somewhere():
    # so that the test above compares nonempty results
    C = Compose(Gen(1), Gen(2))
    assert all(any(Evaluator(spec).symbolic(C) for spec in _modules([l])) for l in (2, 3))


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_serre_and_weight_relation_trees_match_the_oracle(l, monkeypatch):
    weight_trees = []
    monkeypatch.setattr(borelrep, "_vanishes_on",
                        lambda spec, expr, samples: weight_trees.append(expr) or True)
    for i in range(l + 1):
        for j in range(l + 1):
            weight_relation_check(i, CartanExponent.h(l, j), RepSpec(l, 1), [(0,) * l])
    monkeypatch.undo()
    for spec in _modules([l]):
        ev, memo = Evaluator(spec), {}
        for i in range(l + 1):
            for j in range(l + 1):
                if i != j:
                    assert assert_matches_nodes(ev, serre_sum(l, i, j), memo) == ()
        for tree in weight_trees:
            assert assert_matches_nodes(ev, tree, memo) == ()


@pytest.mark.parametrize("l", [1, 2, 3])
def test_loop_relation_trees_match_the_oracle(l):
    # every tree of `qloop drinfeld --nmax 3`, both signs, in every module
    relations = cli._loop_relations(l, 3)
    for spec in _modules([l]):
        ev, memo = Evaluator(spec), {}
        for _, _, tree, _, _ in relations:
            assert assert_matches_nodes(ev, tree, memo) == ()


def test_root_vectors_match_the_oracle():
    for spec in _modules([1, 2, 3]):
        l = spec.l
        ev, memo = Evaluator(spec), {}
        for i in range(1, l + 1):
            assert_matches_nodes(ev, xi_plus(l, i, 0), memo)
            for n in range(1, 5):
                for tree in (e_prime_imag(l, i, i + 1, n), e_unprimed_imag(l, i, n),
                             xi_plus(l, i, n), xi_minus(l, i, n), chi(l, i, n)):
                    assert_matches_nodes(ev, tree, memo)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_products_with_a_diagonal_right_factor_match_the_oracle(l):
    # e'_delta, q**h_j and chi act by the zero shift only, so every product
    # below has a diagonal right factor: the kernel adds no shift and no twist
    diagonal = [e_prime_imag(l, i, i + 1, 1) for i in range(1, l + 1)]
    diagonal += [CartanPower(CartanExponent.h(l, j)) for j in range(l + 1)]
    diagonal += [chi(l, i, n) for i in range(1, l + 1) for n in (1, 2)]
    lefts = [e_real(l, i, j, n) for i in range(1, l + 1) for j in range(i + 1, l + 2) for n in (0, 1)]
    lefts += [xi_plus(l, i, 1) for i in range(1, l + 1)] + [xi_minus(l, i, 1) for i in range(1, l + 1)]
    trees = [Compose(x, d) for x in lefts for d in diagonal]
    # the product of a chi_bracket tree whose right factor is chi: the -xi chi
    # of [chi, xi] (whole chi_bracket trees are test_loop_relation_trees_match_the_oracle's)
    trees += [Scale(-ONE, Compose(xi(l, j, k), chi(l, i, n)))
              for xi in (xi_plus, xi_minus) for i in range(1, l + 1) for j in range(1, l + 1)
              for n in (1, 2) for k in (1, 2)]
    nonzero = set()
    for spec in _modules([l]):
        ev, memo = Evaluator(spec), {}
        assert all(ev.zero_shift(d) for d in diagonal)
        for tree in trees:
            if assert_matches_nodes(ev, tree, memo):
                nonzero.add(tree)
    # so that each comparison above is of a nonempty result somewhere
    assert nonzero == set(trees)


# ------------------------------------------------------------------------ repr

def test_a_shallow_tree_prints_in_full():
    l = 3
    tree = qcomm(Gen(1), RootIndex.simple(l, 1), Gen(2), RootIndex.simple(l, 2))
    assert repr(tree) == "(e[1]*e[2] + (-q)*e[2]*e[1])"
    assert repr(Scale(qp(2), Compose(tree, CartanPower(CartanExponent.h(l, 0))))) == (
        "(q^2)*(e[1]*e[2] + (-q)*e[2]*e[1])*q^[1, 0, 0, 0]")
    assert "..." not in repr(e_real(l, 1, 4, 0))


def test_a_deep_tree_prints_a_bounded_repr():
    # each q-commutator level names both arguments twice, so printed in
    # full the repr of e_{delta - alpha_12} doubles with l (212,460 at l = 14)
    sizes = [len(repr(e_dual(l, 1, 2, 0))) for l in range(1, 41)]
    assert max(sizes) <= 1000
    assert repr(e_dual(40, 1, 2, 0)).count("...") > 0
