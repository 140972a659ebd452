"""Cartan-Weyl root vectors: closed-form images, vanishing rows, loop relations.

Every assertion compares the recursively built q-commutator expression, applied
to occupation basis vectors, against an independently entered closed-form
oscillator word or eigenvalue.
"""

import itertools

import pytest
from oracles import (apply_at, apply_word, e_dual_nested, e_unprimed_by_compositions, series_log,
                     specialize, state_coefficient)

from qloop.borelrep import (CartanPower, Compose, Gen, OscWord, RepSpec, Scale, Sum, _vanishes_on,
                            get_evaluator)
from qloop.exactfield import QRational, USeries, kappa, qnum
from qloop.fock import FockState
from qloop.lweights import oscillator_lweight
from qloop.rootsys import CartanExponent, NotAPositiveRoot, RootIndex
from qloop.rootvectors import (chi, chi_bracket, drinfeld_check, drinfeld_check_minus,
                               e_dual, e_prime_imag, e_real, e_unprimed_imag,
                               loop_step, qcomm, xi_minus, xi_plus)

ONE = QRational.one()
qp = QRational.q_power
KI = kappa().inv()


def qN(*d):
    return ("qN", tuple(d))


def nval(spec, m, j):
    """Eigenvalue exponent of N_j on the occupation vector m."""
    kind = get_evaluator(spec).pattern[j - 1]
    return m[j - 1] if kind == "plus" else -(m[j - 1] + 1)


def assert_action(expr, word, spec, samples):
    """expr acts on each sample exactly as the closed-form word (None = zero),
    the word applied mode by mode."""
    ev = get_evaluator(spec)
    for m in samples:
        got = ev.apply_basis(expr, m)
        v = FockState.basis(m)
        want = FockState.zero(spec.l) if word is None else apply_word(word, ev.pattern, v)
        assert got == want, f"at m={m}: got {got!r}, want {want!r}"


def assert_zero(expr, spec, samples):
    ev = get_evaluator(spec)
    for m in samples:
        assert ev.apply_basis(expr, m).is_zero(), f"nonzero at m={m}"


def assert_diag(expr, spec, samples, eig):
    ev = get_evaluator(spec)
    for m in samples:
        got = ev.apply_basis(expr, m)
        want = eig(m)
        target = FockState(spec.l, {m: want}) if not want.is_zero() else FockState.zero(spec.l)
        assert got == target, f"at m={m}: got {got!r}, want diagonal {want!r}"


def grid(l, top):
    return list(itertools.product(range(top), repeat=l))


def test_argument_validation():
    with pytest.raises(ValueError):
        e_real(2, 2, 2, 0)
    with pytest.raises(ValueError):
        e_real(2, 1, 2, -1)
    with pytest.raises(ValueError):
        e_dual(2, 0, 2, 0)
    with pytest.raises(ValueError):
        e_prime_imag(2, 1, 2, 0)
    with pytest.raises(ValueError):
        e_unprimed_imag(2, 1, 0)
    # RootIndex.alpha is the one check of the pair, and it runs before the
    # level check: e_prime_imag(2, 2, 4, 0) is refused for its root.  It is
    # also the node check of e_unprimed_imag, through e'_{n delta, alpha_{i,i+1}}
    for build, args in ((e_real, (2, 2, 1, 0)), (e_dual, (2, 3, 3, 0)),
                        (e_prime_imag, (2, 2, 4, 1)), (e_prime_imag, (2, 2, 4, 0)),
                        (e_unprimed_imag, (2, 0, 1)), (e_unprimed_imag, (2, 3, 1)),
                        (e_unprimed_imag, (2, 3, 0))):
        with pytest.raises(NotAPositiveRoot,
                           match=r"^finite root alpha_\{ij\} needs 1 <= i < j <= l\+1$"):
            build(*args)


# ------------------------------------------------- first module (a = 1), l = 2

L2 = RepSpec(2, 1)
S2 = grid(2, 3)


def test_first_module_dual_simple_roots():
    # e_{delta-alpha_1} -> -kappa^-1 b_1 q^(N_1+N_2+1)
    assert_action(e_dual(2, 1, 2, 0),
                  OscWord(2, -KI * qp(1), (("b", 1), qN(1, 1))), L2, S2)
    # e_{delta-alpha_2} -> b_2 bdag_1 q^(2 N_2)
    assert_action(e_dual(2, 2, 3, 0),
                  OscWord(2, ONE, (("b", 2), ("bdag", 1), qN(0, 2))), L2, S2)


def test_first_module_real_towers():
    # e_{alpha_1+n delta} -> (-1)^n bdag_1 q^(2n N_1 + (2n+1) N_2 + 4n)
    for n in range(4):
        c = ONE if n % 2 == 0 else -ONE
        assert_action(e_real(2, 1, 2, n),
                      OscWord(2, c * qp(4 * n), (("bdag", 1), qN(2 * n, 2 * n + 1))),
                      L2, S2)
    # e_{alpha_2+n delta} -> -b_1 bdag_2 q^(N_1 + (2n-1) N_2 + 3n - 1)
    for n in range(4):
        assert_action(e_real(2, 2, 3, n),
                      OscWord(2, -qp(3 * n - 1), (("b", 1), ("bdag", 2), qN(1, 2 * n - 1))),
                      L2, S2)


def test_first_module_imaginary_towers():
    # e'_{n delta,alpha_1} -> (-1)^n kappa^-1 ([n] q^(-2N_1-1) - [n+1]) q^(n(2N_1+2N_2+3))
    for n in range(1, 5):
        sgn = ONE if n % 2 == 0 else -ONE
        assert_diag(e_prime_imag(2, 1, 2, n), L2, S2,
                    lambda m, n=n, sgn=sgn: KI * sgn
                    * (qnum(n) * qp(-2 * nval(L2, m, 1) - 1) - qnum(n + 1))
                    * qp(n * (2 * (nval(L2, m, 1) + nval(L2, m, 2)) + 3)))
    # e'_{n delta,alpha_2}: three-term eigenvalue in both neighbouring modes
    for n in range(1, 5):
        assert_diag(e_prime_imag(2, 2, 3, n), L2, S2,
                    lambda m, n=n: -KI
                    * (qnum(n - 1) * qp(2 * nval(L2, m, 1) - 2 * nval(L2, m, 2))
                       - qnum(n) * (qp(2 * nval(L2, m, 1) + 1) + qp(-2 * nval(L2, m, 2) - 1))
                       + qnum(n + 1))
                    * qp(2 * n * nval(L2, m, 2) + 2 * n))


# --------------------------------------------- generic module (l = 3, a = 2)

L32 = RepSpec(3, 2)
S3 = grid(3, 2) + [(2, 1, 0), (1, 0, 2)]


def test_generic_long_dual_root():
    # e_{delta-alpha_{13}} hops b_1 against bdag_3 with a mixed q-power
    assert_action(e_dual(3, 1, 3, 0),
                  OscWord(3, -ONE, (("b", 1), ("bdag", 3), qN(1, 1, -1))), L32, S3)


def test_generic_kappa_row_collapses():
    # i = a-1: level zero keeps only the killer word, all higher levels vanish
    assert_action(e_real(3, 1, 2, 0),
                  OscWord(3, -KI, (("b", 3), qN(0, 0, 1))), L32, S3)
    for n in (1, 2, 3):
        assert_zero(e_real(3, 1, 2, n), L32, S3)
    # its imaginary tower lives at level one only
    assert_diag(e_prime_imag(3, 1, 2, 1), L32, S3,
                lambda m: -KI * qp(2 * (nval(L32, m, 1) + nval(L32, m, 2)) + 3))
    for n in (2, 3):
        assert_zero(e_prime_imag(3, 1, 2, n), L32, S3)


def test_generic_creation_row():
    # e_{delta-alpha_2} -> kappa^-1 b_1 q^(N_1+N_2-N_3+1)
    assert_action(e_dual(3, 2, 3, 0),
                  OscWord(3, KI * qp(1), (("b", 1), qN(1, 1, -1))), L32, S3)
    # e'_{delta,alpha_2} -> kappa^-1 (1 - [2] q^(2N_1+1)) q^(2N_2+2)
    assert_diag(e_prime_imag(3, 2, 3, 1), L32, S3,
                lambda m: KI * (ONE - qnum(2) * qp(2 * nval(L32, m, 1) + 1))
                * qp(2 * nval(L32, m, 2) + 2))
    # e_{alpha_2+n delta} -> bdag_1 q^(N_2+N_3 + 2n(N_1+N_2) + 4n)
    for n in range(3):
        assert_action(e_real(3, 2, 3, n),
                      OscWord(3, qp(4 * n), (("bdag", 1), qN(2 * n, 2 * n + 1, 1))),
                      L32, S3)
    # e'_{n delta,alpha_2} -> kappa^-1 ([n] q^(-2N_1-1) - [n+1]) q^(2n(N_1+N_2) + 3n)
    for n in (1, 2, 3):
        assert_diag(e_prime_imag(3, 2, 3, n), L32, S3,
                    lambda m, n=n: KI
                    * (qnum(n) * qp(-2 * nval(L32, m, 1) - 1) - qnum(n + 1))
                    * qp(2 * n * (nval(L32, m, 1) + nval(L32, m, 2)) + 3 * n))


def test_generic_row_below():
    # i = a+1 = 3: pair words shifted into modes (1, 2)
    assert_action(e_dual(3, 3, 4, 0),
                  OscWord(3, -ONE, (("b", 2), ("bdag", 1), qN(0, 2, 0))), L32, S3)
    for n in range(3):
        sgn = -ONE if (n * 3) % 2 == 0 else ONE
        assert_action(e_real(3, 3, 4, n),
                      OscWord(3, sgn * qp(3 * n - 1), (("b", 1), ("bdag", 2), qN(1, 2 * n - 1, 0))),
                      L32, S3)
    for n in (1, 2):
        assert_diag(e_prime_imag(3, 3, 4, n), L32, S3,
                    lambda m, n=n: -(ONE if (n * 3) % 2 == 0 else -ONE) * KI
                    * (qnum(n - 1) * qp(2 * nval(L32, m, 1) - 2 * nval(L32, m, 2))
                       - qnum(n) * (qp(2 * nval(L32, m, 1) + 1) + qp(-2 * nval(L32, m, 2) - 1))
                       + qnum(n + 1))
                    * qp(2 * n * nval(L32, m, 2) + 2 * n))


def test_rows_above_vanish():
    # i <= a-2 kills the whole dual and imaginary families
    spec = RepSpec(3, 3)
    assert_zero(e_dual(3, 1, 2, 0), spec, S3)
    for n in (1, 2):
        assert_zero(e_prime_imag(3, 1, 2, n), spec, S3)


def test_last_module_rows():
    # a = l+1: only the i = l row survives
    for l in (2, 3):
        spec = RepSpec(l, l + 1)
        ss = grid(l, 2)
        for i in range(1, l):
            assert_zero(e_dual(l, i, i + 1, 0), spec, ss)
            assert_zero(e_prime_imag(l, i, i + 1, 1), spec, ss)
        sgn = -ONE if l % 2 == 0 else ONE
        assert_action(e_dual(l, l, l + 1, 0), OscWord(l, sgn, (("bdag", l),)), spec, ss)
        assert_diag(e_prime_imag(l, l, l + 1, 1), spec, ss,
                    lambda m, l=l: (ONE if l % 2 == 0 else -ONE) * KI * qp(1))


# ------------------------------------------------------- generating functions

def _diag_tower(spec, i, top):
    """Eigenvalue lists (primed, unprimed) of the two imaginary towers."""
    ev = get_evaluator(spec)
    prim = [QRational.zero()]
    unprim = [QRational.zero()]
    for n in range(1, top + 1):
        for target, expr in ((prim, e_prime_imag(spec.l, i, i + 1, n)),
                             (unprim, e_unprimed_imag(spec.l, i, n))):
            out = ev.apply_basis(expr, (0,) * spec.l)
            target.append(state_coefficient(out, (0,) * spec.l))
            assert set(dict(out.items())) <= {(0,) * spec.l}
    return prim, unprim


@pytest.mark.parametrize("l,a", [(1, 1), (2, 1), (2, 2), (2, 3)])
def test_unprimed_tower_is_the_formal_logarithm(l, a):
    # -kappa e_{delta,i}(u) = log(1 - kappa e'_{delta,i}(u)) on the vacuum
    top = 5
    spec = RepSpec(l, a)
    for i in range(1, l + 1):
        prim, unprim = _diag_tower(spec, i, top)
        p = USeries(top, [ONE] + [-(kappa() * c) for c in prim[1:]])
        lhs = USeries(top, [QRational.zero()] + [-(kappa() * c) for c in unprim[1:]])
        assert lhs == series_log(p)


def _specs(top_l):
    """Every module theta_a, plain and mirrored, at l = 1 .. top_l."""
    return [RepSpec(l, a, bar) for l in range(1, top_l + 1)
            for a in range(1, l + 2) for bar in (False, True)]


def test_primed_imaginary_root_vectors_of_one_node_commute():
    # the premise of e_unprimed_imag's recursion, decided with m symbolic
    cases = 0
    for spec in _specs(3):
        ev = get_evaluator(spec)
        for i in range(1, spec.l + 1):
            for j, k in itertools.product(range(1, 4), repeat=2):
                x = e_prime_imag(spec.l, i, i + 1, j)
                y = e_prime_imag(spec.l, i, i + 1, k)
                bracket = Sum((Compose(x, y), Scale(-ONE, Compose(y, x))))
                assert ev.symbolic(bracket) == (), (spec, i, j, k)
                cases += 1
    assert cases == 360


def test_unprimed_recursion_equals_the_composition_sum():
    # the symbolic terms come in different orders, so compare them as dicts
    cases = 0
    for spec in _specs(3):
        ev = get_evaluator(spec)
        for i in range(1, spec.l + 1):
            for n in range(1, 9):
                got = dict(ev.symbolic(e_unprimed_imag(spec.l, i, n)))
                assert got == dict(ev.symbolic(e_unprimed_by_compositions(spec.l, i, n))), \
                    (spec, i, n)
                cases += 1
    assert cases == 320


def test_unprimed_recursion_with_a_wrong_weight_differs():
    # kappa/n in place of kappa k/n agrees up to n = 2 (only k = 1 occurs)
    # and differs from the composition sum at n = 3
    kq = kappa()

    def wrong(l, i, n):
        return Sum((e_prime_imag(l, i, i + 1, n),) + tuple(
            Scale(kq / QRational.from_int(n),
                  Compose(wrong(l, i, k), e_prime_imag(l, i, i + 1, n - k)))
            for k in range(1, n)))

    ev = get_evaluator(RepSpec(2, 1))
    for n, same in ((1, True), (2, True), (3, False)):
        got = dict(ev.symbolic(wrong(2, 1, n)))
        assert (got == dict(ev.symbolic(e_unprimed_by_compositions(2, 1, n)))) == same, n


def _tree_nodes(roots, stop=frozenset()) -> set:
    """The distinct nodes reached from roots, not entering the nodes in stop.
    The walk starts at the roots, so it does not depend on what other trees
    were built before."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in seen or node in stop:
            continue
        seen.add(node)
        if isinstance(node, Sum):
            stack.extend(node.children)
        elif isinstance(node, Scale):
            stack.append(node.child)
        elif isinstance(node, Compose):
            stack.extend((node.left, node.right))
    return seen


def test_unprimed_tree_grows_quadratically():
    # outside the e'_{k delta} trees, e_{n delta} holds one Sum, n - 1 Scales
    # and n - 1 Composes per level: n**2 nodes in all, where the composition
    # sum reaches 98,288 at n = 16
    l, i, n = 2, 1, 16
    primed = {e_prime_imag(l, i, i + 1, k) for k in range(1, n + 1)}
    assert len(_tree_nodes([e_unprimed_imag(l, i, n)], primed)) <= n * n


def test_node_check_trees_of_a_module_grow_linearly():
    # e_i, e_{delta - alpha_i} = [P_i, S_{i+1}]_q and e'_{delta, alpha_i} for
    # i = 1 .. l: the S_j share one chain and the P_i another, so each node
    # adds a few nodes (665 at l = 40).  The nested chain climbs e_1 ..
    # e_{i-1} again for every i: 3,477 nodes at l = 40, about 2.2 l**2.
    # The assert reads a count, because a failing assert prints its operands
    # and a tree's repr doubles with every level.
    l = 40
    roots = [x for i in range(1, l + 1)
             for x in (Gen(i), e_dual(l, i, i + 1, 0), e_prime_imag(l, i, i + 1, 1))]
    count = len(_tree_nodes(roots))
    assert count <= 18 * l


def test_chi_is_diagonal():
    spec = RepSpec(2, 2)
    ev = get_evaluator(spec)
    for i in (1, 2):
        for n in (1, 2, 3):
            for m in grid(2, 2):
                out = ev.apply_basis(chi(2, i, n), m)
                assert set(dict(out.items())) <= {m}


def test_symbolic_generators_and_imaginary_roots_are_nonzero():
    # phi_i(u) = q**h_i (1 - kappa e'_delta(-o_i u)) has the eigenvalue Psi_i(u),
    # so e'_{n delta} vanishes on every v_m exactly where Psi_i has fewer than
    # min(n, 2) root factors (a single factor 1 - x u has no u**2 term)
    for l in (1, 2, 3):
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar)
                ev = get_evaluator(spec)
                assert all(ev.symbolic(Gen(i)) for i in range(l + 1))
                for i in range(1, l + 1):
                    # at m = (1, ..., 1) no root factor of the closed form cancels
                    factors = sum(abs(k) for _, k in oscillator_lweight(spec, (1,) * l).roots[i - 1])
                    for n in (1, 2, 3):
                        got = ev.symbolic(e_prime_imag(l, i, i + 1, n))
                        assert bool(got) == (factors >= min(n, 2)), (l, a, bar, i, n)
                        assert {s for (s, _), _ in got} <= {(0,) * l}


# ----------------------------------------------------------- loop relations

@pytest.mark.parametrize("spec", [RepSpec(1, 1), RepSpec(1, 2), RepSpec(2, 1), RepSpec(2, 3)])
def test_loop_relation_with_raising_family(spec):
    ss = grid(spec.l, 2)
    for i in range(1, spec.l + 1):
        for j in range(1, spec.l + 1):
            for n in (1, 2):
                for mm in (0, 1):
                    assert drinfeld_check(i, j, n, mm, spec, ss), (i, j, n, mm)


@pytest.mark.parametrize("spec", [RepSpec(1, 1), RepSpec(1, 2), RepSpec(2, 2)])
def test_loop_relation_with_lowering_family(spec):
    ss = grid(spec.l, 2)
    for i in range(1, spec.l + 1):
        for j in range(1, spec.l + 1):
            for n in (1, 2):
                for mm in (1, 2):
                    assert drinfeld_check_minus(i, j, n, mm, spec, ss), (i, j, n, mm)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_loop_relation_with_the_wrong_sign_fails(l):
    # a = 1: at a >= 2, xi+-_{1,n} act as zero on these samples, so any sign passes
    spec = RepSpec(l, 1)
    ss = grid(l, 2)
    assert _vanishes_on(spec, chi_bracket(l, 1, 1, 1, 0, xi_plus, 1), ss)
    assert not _vanishes_on(spec, chi_bracket(l, 1, 1, 1, 0, xi_plus, -1), ss)
    assert _vanishes_on(spec, chi_bracket(l, 1, 1, 1, 1, xi_minus, -1), ss)
    assert not _vanishes_on(spec, chi_bracket(l, 1, 1, 1, 1, xi_minus, 1), ss)


def _bracket(c_op, x, c, y):
    """[c_op, x] + c y as chi_bracket builds it."""
    return Sum((Compose(c_op, x), Scale(QRational.from_int(-1), Compose(x, c_op)), Scale(c, y)))


def _plus_step(prev, s, d, yx=-1):
    """s [2]_q**-1 (E d + yx d E) for prev = a E: the xi+ level step at yx = -1."""
    e = prev.child
    return Scale(s, Scale(qnum(2).inv(),
                          Sum((Compose(e, d), Scale(QRational.from_int(yx), Compose(d, e))))))


def test_loop_step_matches_the_level_step_and_nothing_else():
    l, i, j, n = 2, 1, 2, 1
    big_c, d = chi(l, i, n), e_prime_imag(l, j, j + 1, 1)
    plus = [chi_bracket(l, i, j, n, k, xi_plus, 1) for k in (0, 1, 2)]
    minus = [chi_bracket(l, i, j, n, k, xi_minus, -1) for k in (1, 2, 3)]
    assert loop_step(plus[0], plus[1]) == loop_step(plus[1], plus[2]) == (big_c, d)
    h = CartanPower(CartanExponent.h(l, j))
    assert loop_step(minus[0], minus[1]) == loop_step(minus[1], minus[2]) == (big_c, d, h)
    # not one chain: two levels up, another n, another sign, another j
    assert loop_step(plus[0], plus[2]) is None
    assert loop_step(plus[0], chi_bracket(l, i, j, 2, 1, xi_plus, 1)) is None
    assert loop_step(plus[0], chi_bracket(l, i, j, n, 1, xi_plus, -1)) is None
    assert loop_step(minus[0], chi_bracket(l, i, 1, n, 2, xi_minus, -1)) is None
    assert loop_step(plus[0], minus[1]) is None
    # rebuilt by hand, the level steps of xi+_{j,0} and xi+_{j,1} are plus[1]
    x0, y0, c = xi_plus(l, j, 0), xi_plus(l, j, n), plus[0].children[2].c
    s1, s2 = xi_plus(l, j, 1).c, xi_plus(l, j, n + 1).c
    assert _bracket(big_c, _plus_step(x0, s1, d), c, _plus_step(y0, s2, d)) is plus[1]
    two = QRational.from_int(2)

    def step(sx=s1, sy=s2, dx=d, dy=d, yx=-1):
        return loop_step(plus[0], _bracket(big_c, _plus_step(x0, sx, dx, yx), c,
                                           _plus_step(y0, sy, dy, yx)))

    # a wrong scalar, sign or D in one step, or a wrong sign in both, is refused
    assert step(sx=two * s1) is None
    assert step(sy=two * s2) is None
    assert step(yx=1) is None
    assert step(dx=Gen(0)) is None
    assert step(dy=Gen(0)) is None
    # the same scalar or D in both steps is still a level step: rho and D change
    assert step(sx=two * s1, sy=two * s2) == (big_c, d)
    assert step(dx=Gen(0), dy=Gen(0)) == (big_c, Gen(0))
    # another C or c in the later relation is refused
    tree = plus[1]
    assert loop_step(plus[0], _bracket(chi(l, i, 2), tree.children[0].right, c,
                                       tree.children[2].child)) is None
    assert loop_step(plus[0], _bracket(big_c, tree.children[0].right, two * c,
                                       tree.children[2].child)) is None


def test_repeated_drinfeld_check_adds_no_memo_entries():
    # each check builds its commutator afresh; the interned tree is the same key
    spec = RepSpec(2, 1)
    ss = grid(2, 1)
    ev = get_evaluator(spec)
    assert drinfeld_check(1, 2, 1, 1, spec, ss)
    entries = len(ev._cache)
    assert drinfeld_check(1, 2, 1, 1, spec, ss)
    assert len(ev._cache) == entries


def test_loop_relation_checks_refuse_no_samples():
    # a check of no basis vector examines nothing, so it must not pass
    spec = RepSpec(2, 1)
    for samples in ([], iter(())):
        with pytest.raises(ValueError):
            drinfeld_check(1, 1, 1, 0, spec, samples)
        with pytest.raises(ValueError):
            drinfeld_check_minus(1, 1, 1, 1, spec, samples)
    # samples may be a generator, read once for every basis vector
    assert drinfeld_check(1, 2, 1, 1, spec, iter(grid(2, 1)))


def test_raising_family_kills_the_highest_vector():
    # xi+_{i,n} annihilates the occupation-zero vector in every module
    for l in (1, 2, 3):
        for a in range(1, l + 2):
            for bar in (False, True):
                ev = get_evaluator(RepSpec(l, a, bar))
                for i in range(1, l + 1):
                    for n in range(0, 4):
                        out = ev.apply_basis(xi_plus(l, i, n), (0,) * l)
                        assert out.is_zero(), (l, a, bar, i, n)


def test_left_nested_chain_agrees_with_right_nested():
    # both bracketing orders of the level-zero real chain give the same operator
    for l, i, j in ((2, 1, 3), (3, 1, 4), (3, 2, 4)):
        left = Gen(i)
        for k in range(i + 1, j):
            left = qcomm(left, RootIndex.alpha(l, i, k), Gen(k), RootIndex.simple(l, k))
        right = e_real(l, i, j, 0)
        for a in (1, 2):
            spec = RepSpec(l, a)
            ev = get_evaluator(spec)
            for m in grid(l, 2):
                assert ev.apply_basis(left, m) == ev.apply_basis(right, m)


def _level_steps(l, i, j, dual, nmax):
    """e'_{n delta, alpha_ij} and e_{(delta - alpha_ij) + n delta} for n = 1 ..
    nmax, built by the level steps on the level-zero dual root dual."""
    delta, gamma, half = RootIndex.delta(l), RootIndex.alpha(l, i, j), qnum(2).inv()
    real, lower, out = e_real(l, i, j, 0), dual, []
    prime1 = qcomm(real, gamma, dual, delta - gamma)
    for n in range(1, nmax + 1):
        out.append(qcomm(real, gamma + (n - 1) * delta, dual, delta - gamma))
        lower = Scale(half, qcomm(prime1, delta, lower, delta - gamma + (n - 1) * delta))
        out.append(lower)
        real = Scale(half, qcomm(real, gamma + (n - 1) * delta, prime1, delta))
    return out


def test_dual_root_of_two_chains_agrees_with_the_nested_chain():
    # e_{delta - alpha_ij} = [P_i, S_j]_q against the nested chain it
    # rebrackets, with m symbolic, at level zero and at the levels n = 1, 2
    # that the level steps build on it
    cases = 0
    for spec in _specs(7):
        ev = get_evaluator(spec)
        l = spec.l
        for i, j in itertools.combinations(range(1, l + 2), 2):
            got = [e_dual(l, i, j, 0)] + [x for n in (1, 2)
                                          for x in (e_prime_imag(l, i, j, n), e_dual(l, i, j, n))]
            # the helper's level steps are rootvectors' own: the same interned trees
            assert all(x is y for x, y in zip(got[1:], _level_steps(l, i, j, got[0], 2))), (i, j)
            want = [e_dual_nested(l, i, j)]
            want += _level_steps(l, i, j, want[0], 2)
            for x, y in zip(got, want):
                assert dict(ev.symbolic(x)) == dict(ev.symbolic(y)), (spec, i, j)
            cases += 1
    assert cases == 1092


def test_loop_generators_are_built_from_root_vectors():
    # spot values: xi+_{1,0} = e_{alpha_1}, chi_{1,1} = e'_{delta,alpha_1} up to sign
    spec = RepSpec(2, 1)
    ev = get_evaluator(spec)
    for m in grid(2, 2):
        assert ev.apply_basis(xi_plus(2, 1, 0), m) == ev.apply_basis(e_real(2, 1, 2, 0), m)
        assert ev.apply_basis(chi(2, 1, 1), m) == ev.apply_basis(e_prime_imag(2, 1, 2, 1), m)
        # xi-_{1,1} carries the Cartan factor q^{h_1}
        got = ev.apply_basis(xi_minus(2, 1, 1), m)
        assert not got.is_zero() or ev.apply_basis(e_dual(2, 1, 2, 0), m).is_zero()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_imaginary_root_vectors_specialize_to_the_fraction_action(q):
    # e'_{n delta, alpha_i} over Q(q), read at an integer q, against the same
    # tree applied with Fraction scalars through the explicit generator tables
    nonzero = 0
    for l in (1, 2, 3):
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar)
                ev = get_evaluator(spec)
                memo = {}
                for i in range(1, l + 1):
                    for n in range(1, 5):
                        expr = e_prime_imag(l, i, i + 1, n)
                        for m in grid(l, 2):
                            got = {v: specialize(c, q) for v, c in ev.apply_basis(expr, m).items()}
                            want = apply_at(expr, spec, m, q, memo)
                            assert {v: x for v, x in got.items() if x} == want, (spec, i, n, m)
                            nonzero += bool(want)
    assert nonzero > 100
