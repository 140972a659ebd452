"""Closed l-weights, operator-side series, and factorization identities."""

import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (_operator_series, _poly_at, _poly_series, check_vector_at, constant_term,
                     den_degree, factor_rhs_by_products, lweight_product_at_once, num_degree,
                     pade, phi_series_at, psi_roots_by_scalars, qh_exponent, reduced, scale_var,
                     series_inverse, series_product, table_lambda, twisted_by_nodes,
                     verify_grid_at)

import qloop
from qloop import cli, lweights
from qloop.borelrep import (Compose, Evaluator, Gen, RepSpec, Scale, Sum, _dot, _vadd,
                            get_evaluator)
from qloop.exactfield import QRational, URational, USeries, qnum, qrational_to_json
from qloop.lweights import (LWeight, NotDiagonal, VectorChecks, Weight,
                            closed_psi,
                            factor_check, lweight_product,
                            oscillator_lweight, phi_series, prefundamental,
                            shift_weight, verify_grid, xi_osc)
from qloop.rootsys import CartanExponent
from qloop.rootvectors import e_dual, e_prime_imag, e_real

ONE = QRational.one()
qp = QRational.q_power


# ------------------------------------------------------------------- weights

def test_weight_algebra():
    w = Weight(3, (1, -2, 0))
    v = Weight.fundamental(3, 2, 5)
    assert (w + v).omega == (1, 3, 0)
    assert w + Weight(3, (-1, 2, 0)) == Weight.zero(3)
    assert w.pair_h(1) == 1 and w.pair_h(2) == -2 and w.pair_h(3) == 0
    # the affine node sees minus the total, so the central charge vanishes
    assert w.pair_h(0) == 1
    assert sum(w.pair_h(j) for j in range(4)) == 0
    with pytest.raises(ValueError):
        Weight(2, (1,))


def test_weight_builders_match_their_node_by_node_definitions():
    # the shifts built by tuple concatenation, against a generator over every node
    for l in range(1, 13):
        for i in range(1, l + 1):
            js = range(1, l + 1)
            for mult in (1, -3):
                assert Weight.fundamental(l, i, mult).omega == tuple(
                    mult if j == i else 0 for j in js)
            assert lweights.xi_pref_minus(l, i).omega == tuple(
                -2 if j < i else (-(l - i + 2) if j == i else 0) for j in js)
            assert lweights.xi_pref_plus(l, i).omega == tuple(
                l - i if j == i else (-2 if j > i else 0) for j in js)
        # an index off the diagram is an error, not a wrong weight
        for i in (0, l + 1, -1):
            for build in (Weight.fundamental, lweights.xi_pref_minus, lweights.xi_pref_plus):
                with pytest.raises(IndexError):
                    build(l, i)


# ------------------------------------------------------------ closed formulas

def test_closed_psi_highest_weight_spot_values():
    # first module, rank one: q^-2 / (1 - u/q)
    assert closed_psi(1, RepSpec(1, 1), (0,)) == URational((qp(-2),), (ONE, -qp(-1)))
    # last module, rank one: 1 - q u
    assert closed_psi(1, RepSpec(1, 2), (0,)) == URational((ONE, -qp(1)))
    # middle module, rank two, node a-1: q (1 - u)
    assert closed_psi(1, RepSpec(2, 2), (0, 0)) == URational((qp(1), -qp(1)))
    # and node a: q^-2 / (1 - u/q)
    assert closed_psi(2, RepSpec(2, 2), (0, 0)) == URational((qp(-2),), (ONE, -qp(-1)))
    # nodes outside {a-1, a} are constant one
    assert closed_psi(1, RepSpec(3, 3), (0, 0, 0)) == URational((ONE,))


def test_closed_psi_is_canonical_without_the_gcd():
    # closed_psi runs no gcd because its factors are coprime; reducing its
    # result through the gcd over Q(q)[u] must change nothing
    seen = 0
    for l in (2, 3):
        for a in range(1, l + 2):
            for bar, zs in ((False, ONE), (True, -qp(-3) * 2)):
                spec = RepSpec(l, a, bar, zs)
                for m in itertools.product(range(3), repeat=l):
                    for i in range(1, l + 1):
                        got = closed_psi(i, spec, m)
                        assert reduced(got.num, got.den) == got
                        seen += den_degree(got) > 0 and num_degree(got) > 0
    assert seen > 100


def test_closed_lambda_spot_values():
    assert oscillator_lweight(RepSpec(1, 1), (0,)).weight == Weight(1, (-2,))
    assert oscillator_lweight(RepSpec(3, 2), (0, 0, 0)).weight == Weight(3, (2, -3, 0))
    assert oscillator_lweight(RepSpec(3, 4), (0, 0, 0)).weight == Weight(3, (0, 0, 0))
    # occupation dependence: one quantum in the last mode of the first module
    assert oscillator_lweight(RepSpec(2, 1), (0, 1)).weight == Weight(2, (-4, -1))


def test_highest_weight_matches_the_shift_of_the_factorization():
    # at m = 0 the weight is exactly the shift weight xi_a
    for l in (1, 2, 3):
        for a in range(1, l + 2):
            assert oscillator_lweight(RepSpec(l, a), (0,) * l).weight == xi_osc(l, a)


def test_bar_closed_forms_are_reflections():
    # rank one: the reflection sends u -> u, a -> l-a+2, i -> l-i+1
    for m in ((0,), (1,), (2,)):
        assert closed_psi(1, RepSpec(1, 1, True), m) == closed_psi(1, RepSpec(1, 2), m)
        assert closed_psi(1, RepSpec(1, 2, True), m) == closed_psi(1, RepSpec(1, 1), m)
    # rank two: the reflection also flips the sign of u; for these (<= 2, <= 2)
    # functions agreement through u^8 is equality
    for m in ((0, 0), (1, 0), (0, 2)):
        lhs = closed_psi(1, RepSpec(2, 1, True), m).expand(8)
        rhs = scale_var(closed_psi(2, RepSpec(2, 3), m).expand(8), -ONE)
        assert lhs == rhs
    # bar weights are the reversed unbar weights
    for l in (1, 2, 3):
        for a in range(1, l + 2):
            m = tuple(range(l))
            assert oscillator_lweight(RepSpec(l, a, True), m).weight.omega == \
                oscillator_lweight(RepSpec(l, l - a + 2), m).weight.omega[::-1]


def test_twist_scales_the_spectral_variable():
    zs = qp(3)
    spec0 = RepSpec(2, 2)
    spec = RepSpec(2, 2, False, zs)
    for m in ((0, 0), (1, 1)):
        for i in (1, 2):
            # (<= 2, <= 2) functions: agreement through u^8 is equality
            want = scale_var(closed_psi(i, spec0, m).expand(8), zs)
            assert closed_psi(i, spec, m).expand(8) == want


def test_constant_term_law_links_the_two_catalogs():
    # oscillator_lweight reads lambda off Psi_i(0) = q^<lambda, h_i>; the oracle
    # table enters it independently, per module
    rng = random.Random(8)
    for l in range(1, 21):
        ms = [(0,) * l] + [tuple(rng.randrange(4) for _ in range(l)) for _ in range(3)]
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar)
                for m in ms + list(itertools.product(range(2), repeat=l) if l <= 3 else ()):
                    lam = oscillator_lweight(spec, m).weight
                    assert lam == table_lambda(spec, m), (l, a, bar, m)
                    for i in range(1, l + 1):
                        assert constant_term(closed_psi(i, spec, m)) == qp(lam.pair_h(i))


def test_scalar_work_repeats_between_interpreters():
    # the closed side multiplies its roots in a canonical order, not in the
    # address order of a frozenset, so two runs intern the same scalars: the
    # same cores, and the same shifts of each
    code = ("import sys; from qloop import cli, exactfield; "
            "assert cli.main(sys.argv[1:]) == 0; "
            "print(sum(len(core._shifts) for core in exactfield._VALUES.values()))")
    argv = ["verify", "--l", "3", "--order", "8", "--mmax", "2", "--zs=2*q^-2"]
    src = str(pathlib.Path(qloop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    counts = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        counts.append(int(proc.stdout.split()[-1]))
    assert counts[0] == counts[1] > 0


# ------------------------------------------------------------- operator side

def test_phi_series_matches_closed_form_small_grid():
    for l in (1, 2):
        for bar in (False, True):
            assert verify_grid(l, 4, m_max=1, bar=bar) == []


def test_phi_series_with_twist():
    spec = RepSpec(1, 1, False, qp(2))
    m = (1,)
    assert phi_series(1, spec, m, 5) == closed_psi(1, spec, m).expand(5)


def test_verify_grid_restricted_to_one_module():
    out = verify_grid(2, 3, m_max=1, a_values=(2,))
    assert out == []


def test_verify_grid_refuses_an_empty_grid():
    # no occupation vector or no module would check nothing and pass
    with pytest.raises(ValueError):
        verify_grid(2, 4, m_max=-1)
    with pytest.raises(ValueError):
        verify_grid(2, 4, a_values=())
    with pytest.raises(ValueError):
        verify_grid(2, 4, a_values=(a for a in ()))
    assert verify_grid(2, 3, m_max=0, a_values=(a for a in (1, 3))) == []


_TWISTS = (ONE, 2 * qp(-2), -qp(3))


@pytest.mark.parametrize("l", [1, 2, 3])
def test_phi_series_is_the_per_m_oracle(l):
    # the operator's fraction expanded at m is the series built from
    # e'_{n delta} applied to v_m
    for zs in _TWISTS:
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar, zs)
                for m in itertools.product(range(3), repeat=l):
                    for i in range(1, l + 1):
                        assert phi_series(i, spec, m, 12) == phi_series_at(i, spec, m, 12), \
                            (spec, m, i)


def _pointwise(x: dict, y: dict) -> dict:
    """x(m) y(m) for results {(s, v): c}, c Q**v at the shift s, read at one m:
    shifts and exponents add."""
    out = {}
    for (sx, vx), cx in x.items():
        for (sy, vy), cy in y.items():
            key = (_vadd(sx, sy), _vadd(vx, vy))
            out[key] = out[key] + cx * cy if key in out else cx * cy
    return {key: c for key, c in out.items() if c}


def _combine(x: dict, y: dict, c: QRational) -> dict:
    """x + c y, zero sums dropped."""
    out = dict(x)
    for key, b in y.items():
        out[key] = out[key] + c * b if key in out else c * b
    return {key: b for key, b in out.items() if b}


@pytest.mark.parametrize("l", [1, 2, 3])
def test_the_level_geometric_lemma_holds_on_the_trees(l):
    # with d the eigenvalue of e'_delta and [2]_q rho(m) = d(m) - d(m + s_E),
    # E_n v_m = rho(m)**n E_0 v_m and e'_{n delta} v_m =
    # (rho(m + s_F)**(n-1) P_EF - q**2 rho(m)**(n-1) P_FE) v_m, where
    # q**2 = q**-(alpha_i | delta - alpha_i) is the factor of every [E_{n-1}, F]_q
    zero = (0,) * l
    unit = {(zero, zero): ONE}
    nonzero = 0
    for a in range(1, l + 2):
        for bar in (False, True):
            ev = get_evaluator(RepSpec(l, a, bar))

            def sym(x):
                return dict(ev.symbolic(x))

            for i in range(1, l + 1):
                e, f = Gen(i), e_dual(l, i, i + 1, 0)
                e0, d = sym(e), sym(e_prime_imag(l, i, i + 1, 1))
                assert len({s for s, _ in e0}) == 1
                # F acts as zero in some modules; then any shift will do
                s_e, s_f = (next(iter({s for s, _ in t}), zero) for t in (e0, sym(f)))
                assert {s for s, _ in d} <= {zero}
                rho = _combine(d, {(s, v): x * qp(_dot(v, s_e)) for (s, v), x in d.items()},
                               -ONE)
                rho = {key: x / qnum(2) for key, x in rho.items()}
                rho_f = {(s, v): x * qp(_dot(v, s_f)) for (s, v), x in rho.items()}
                power = unit
                for n in range(1, 5):
                    power = _pointwise(power, rho)
                    assert _pointwise(power, e0) == sym(e_real(l, i, i + 1, n)), (a, bar, i, n)
                pef, pfe = sym(Compose(e, f)), sym(Compose(f, e))
                gef = gfe = unit
                for n in range(1, 7):
                    want = _combine(_pointwise(gef, pef), _pointwise(gfe, pfe), -qp(2))
                    assert want == sym(e_prime_imag(l, i, i + 1, n)), (a, bar, i, n)
                    nonzero += bool(want)
                    gef, gfe = _pointwise(gef, rho_f), _pointwise(gfe, rho)
    assert nonzero > 0


def _expand(num: dict, den: dict, order: int) -> dict:
    """num / den as a series in u through u**order, all polynomials {(k, v): c}
    in u and Q = q**m; den has constant term one."""
    one = {(0, (0,) * len(next(iter(den))[1])): ONE}
    assert {key: c for key, c in den.items() if key[0] == 0} == one
    rest = {key: c for key, c in den.items() if key[0]}
    series = {}
    for _ in range(order + 1):
        series = lweights._poly((ONE, num, one), (-ONE, rest, series))
        series = {key: c for key, c in series.items() if key[0] <= order}
    return series


@pytest.mark.parametrize("l", [1, 2, 3])
def test_the_operator_fraction_expands_to_the_tree_series(l):
    # with m symbolic, the fraction summed by the lemma agrees term by term
    # with the series of the e'_{n delta} trees through u**8
    order = 8
    for zs in _TWISTS:
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar, zs)
                ev = get_evaluator(spec)
                for i in range(1, l + 1):
                    num, den, failed = lweights._operator_fraction(ev, spec, i)
                    series, off = _operator_series(ev, spec, i, order)
                    assert failed == off == []
                    want = {(n, v): c for n, poly in enumerate(series) for v, c in poly.items()}
                    assert _expand(num, den, order) == want, (spec, i)


def test_built_checks_call_no_evaluator(monkeypatch):
    # once built, a passing check specializes the symbolic results it holds
    built = [lweights.VectorChecks(RepSpec(l, a, bar, 2 * qp(-2)), 6)
             for l in (1, 2, 3) for a in range(1, l + 2) for bar in (False, True)]

    def refuse(*args):
        raise AssertionError("evaluator called after construction")

    monkeypatch.setattr(Evaluator, "terms", refuse)
    monkeypatch.setattr(Evaluator, "symbolic", refuse)
    for checks in built:
        for m in itertools.product(range(3), repeat=checks.spec.l):
            assert checks.check(m) == []


@pytest.mark.parametrize("l,first,twisted", [
    (5, True, False), (5, False, False), (6, True, False), (6, False, False), (6, True, True),
])
def test_boundary_modules_beyond_rank_three(l, first, twisted):
    # theta_1 and theta_{l+1} have no formulas of their own; the general ones
    # in a must answer for them, and for their mirrors, at every rank
    a = 1 if first else l + 1
    zs = -qp(3) if twisted else ONE
    for bar in (False, True):
        assert verify_grid(l, 4, m_max=1, bar=bar, zs=zs, a_values=(a,)) == [], (a, bar)


def test_weight_exponents_match_on_the_operator_side():
    for l in (1, 2):
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar)
                ev = get_evaluator(spec)
                for m in itertools.product(range(2), repeat=l):
                    lam = oscillator_lweight(spec, m).weight
                    for j in range(l + 1):
                        t = qh_exponent(ev, CartanExponent.h(l, j), m)
                        assert t == lam.pair_h(j), (l, a, bar, m, j)


def test_pade_recovers_the_closed_form_from_the_series():
    spec = RepSpec(2, 2)
    for m in ((0, 0), (1, 0), (2, 2)):
        for i in (1, 2):
            s = phi_series(i, spec, m, 6)
            assert pade(s, 2, 2) == closed_psi(i, spec, m)


@pytest.mark.parametrize("shift", [1, -1])
def test_check_vector_sees_a_root_multiplicity_off_by_one(monkeypatch, shift):
    spec = RepSpec(3, 2, True, qp(2))
    m = (1, 0, 2)
    assert VectorChecks(spec, 6).check(m) == []
    psi_forms = lweights._psi_forms

    # one more (or one fewer) factor (1 - x u) at a root x of Psi_2
    def mutated(i, spec_, m_):
        e0, pairs, zeff = psi_forms(i, spec_, m_)
        if i == 2:
            pairs = pairs + [(pairs[0][0], shift)]
        return e0, pairs, zeff

    monkeypatch.setattr(lweights, "_psi_forms", mutated)
    found = VectorChecks(spec, 6).check(m)
    assert [(d["i"], d["status"]) for d in found] == [(2, "psi-mismatch")]
    assert found[0]["expected"] == repr(closed_psi(2, spec, m))


def test_vector_checks_build_the_occupation_forms_once(monkeypatch):
    # one tuple of l forms serves every node of the module
    calls = []
    real = lweights._Affine.occupations
    monkeypatch.setattr(lweights._Affine, "occupations",
                        classmethod(lambda cls, l: calls.append(l) or real(l)))
    for bar in (False, True):
        assert VectorChecks(RepSpec(3, 2, bar), 4).check((1, 0, 2)) == []
    assert calls == [3, 3]


def test_affine_forms_refuse_what_is_not_affine():
    m1, m2 = lweights._Affine.occupations(2)
    f = 3 - 2 * (m1 - m2) + 1
    assert (f.c, f.v) == (4, (-2, 2))
    assert f.at((5, 1)) == -4
    for op in (lambda: m1 * m2, lambda: m1 >= 2, lambda: m1 == 2, lambda: bool(m1),
               lambda: max(m1, 0), lambda: m1 // 2, lambda: m1 * QRational.one()):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_symbolic_closed_series_specializes_to_the_per_m_series(l):
    # the factored form expanded with m symbolic, then specialized, is the
    # closed form multiplied out and then expanded
    order = 5
    forms = lweights._prefix(lweights._Affine.occupations(l))
    for zs in (ONE, 2 * qp(-2), -qp(3), -2 * qp(-3)):
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar, zs)
                for i in range(1, l + 1):
                    polys = _poly_series(*lweights._symbolic_forms(i, spec, forms), order)
                    for m in itertools.product(range(3), repeat=l):
                        want = closed_psi(i, spec, m).expand(order)
                        got = tuple(_poly_at(p, m) for p in polys)
                        assert got == want.coeffs, (spec, i, m)


def test_series_checks_hold_for_every_m():
    # the symbolic difference cancels and no e'_{n delta} leaves the diagonal,
    # so a passing grid is a pass on every basis vector
    for l in (1, 2, 3, 4):
        for a in range(1, l + 2):
            for bar in (False, True):
                checks = lweights.VectorChecks(RepSpec(l, a, bar, 2 * qp(-2)), 8)
                assert checks._weights == [], (l, a, bar)
                assert checks._diff == checks._off == [[]] * l, (l, a, bar)


def _perturbed_parts(monkeypatch, shift, where="num"):
    # adds shift(m) to the first numerator exponent of every Psi_i, or to
    # its prefactor exponent e0, which moves the weight as well; "den"
    # negates every denominator exponent.  _psi_parts reads the prefix table
    # s of m, so m_k = s[k] - s[k-1] is read back from it
    psi_parts = lweights._psi_parts

    def mutated(i, l, a, s):
        e0, num, den = psi_parts(i, l, a, s)
        m = tuple(s[k] - s[k - 1] for k in range(1, l + 1))
        if where == "e0":
            return e0 + shift(m), num, den
        if where == "den":
            return e0, num, [-c for c in den]
        return (e0, [num[0] + shift(m)] + num[1:], den) if num else (e0, num, den)

    monkeypatch.setattr(lweights, "_psi_parts", mutated)


def test_an_affine_catalog_edit_fails_where_the_per_m_oracle_does(monkeypatch):
    # an e0 edit fails the l + 1 weights and the l series of each vector
    # where it is nonzero: 7 entries on 144 and on 216 of the 216 vectors
    zs = 2 * qp(-2)
    for shift, where, want in ((lambda m: m[0], "num", 324), (lambda m: m[0], "e0", 1008),
                               (lambda m: 1, "e0", 1512)):
        with monkeypatch.context() as mp:
            _perturbed_parts(mp, shift, where)
            found = []
            for bar in (False, True):
                got = verify_grid(3, 6, m_max=2, bar=bar, zs=zs)
                assert got == verify_grid_at(3, 6, 2, bar, zs)
                found += got
        statuses = {"psi-mismatch"} | ({"weight-mismatch"} if where == "e0" else set())
        assert {d["status"] for d in found} == statuses
        assert len(found) == want, (where, len(found))


@pytest.mark.parametrize("shift,where,want", [
    (lambda m: 1, "e0", 7272), (lambda m: 1, "num", 2352), (lambda m: m[0], "num", 1568),
    (None, "den", 1264),
], ids=["e0+1", "num+1", "num+m1", "-den"])
def test_catalog_edits_fail_entry_for_entry_as_the_trees_do(monkeypatch, shift, where, want):
    # the fraction through u**order fails exactly where the e'_{n delta} trees,
    # applied at each m, differ from the closed series through u**order
    _perturbed_parts(monkeypatch, shift, where)
    zs = -qp(3)
    found = 0
    for order in (1, 2, 3, 8):
        for l in (1, 2, 3):
            for bar in (False, True):
                got = verify_grid(l, order, m_max=2, bar=bar, zs=zs)
                assert got == verify_grid_at(l, order, 2, bar, zs), (order, l, bar)
                found += len(got)
    assert found == want


def test_a_catalog_edit_that_is_not_affine_raises(monkeypatch):
    # active only at m_1 >= 2: a grid with mmax 2 sees it per m, and the
    # affine forms refuse it rather than pass
    _perturbed_parts(monkeypatch, lambda m: 1 if m[0] >= 2 else 0)
    assert verify_grid_at(3, 6, 2, False, ONE)
    with pytest.raises(TypeError):
        verify_grid(3, 6, m_max=2)
    with pytest.raises(TypeError):
        VectorChecks(RepSpec(3, 2), 6).check((0, 0, 0))


def test_not_diagonal_carries_context():
    exc = NotDiagonal(RepSpec(2, 1), 1, 3, (0, 0))
    assert "3" in str(exc)
    assert isinstance(exc, Exception)
    assert exc.off == ()


@pytest.mark.parametrize("op", [Gen(0), Sum((Gen(1), Gen(0)))])
def test_not_diagonal_entry_lists_the_off_diagonal_terms(monkeypatch, op):
    # e_0 raises every occupation of the first mode of theta_2 at l = 2, so
    # it is never diagonal; e_0 + e_1 reaches two other vectors on v_(1,1)
    spec = RepSpec(2, 2)
    m = (1, 1)
    pairs = get_evaluator(spec).terms(op, m)
    assert pairs and all(t != m for t, _ in pairs)
    monkeypatch.setattr(lweights, "e_prime_imag", lambda l, i, j, n: op)
    with pytest.raises(NotDiagonal) as info:
        phi_series(1, spec, m, 3)
    assert info.value.n == 1 and dict(info.value.off) == dict(pairs)
    found = VectorChecks(spec, 3).check(m)
    assert [(d["i"], d["status"]) for d in found] == [(1, "not-diagonal"), (2, "not-diagonal")]
    assert found == check_vector_at(spec, m, 3)
    want = [[list(t), qrational_to_json(c)] for t, c in sorted(pairs, key=lambda p: p[0])]
    assert all(d["computed"] == want for d in found)


@pytest.mark.parametrize("name,reading,reasons", [
    # E_0 with two shifts
    ("Gen", lambda i: Sum((Gen(1), Gen(0))), {"two shifts", "moves v_m", "not [E_0, F]_q"}),
    # F = e_i, so E_0 F and F E_0 move v_m
    ("e_dual", lambda l, i, j, n: Gen(i), {"moves v_m", "not [E_0, F]_q"}),
    # a diagonal e'_delta that is not the tree [E_0, F]_q
    ("e_prime_imag", lambda l, i, j, n: Scale(qp(1), e_prime_imag(l, i, j, n)),
     {"not [E_0, F]_q"}),
])
def test_a_failed_hypothesis_of_the_lemma_never_passes(monkeypatch, capsys, name, reading,
                                                       reasons):
    # e'_delta stays diagonal, so no not-diagonal entry applies: the check raises
    spec = RepSpec(2, 2)
    monkeypatch.setattr(lweights, name, reading)
    checks = VectorChecks(spec, 3)
    assert {r for r in reasons if any(r in what for what in checks._off[0])} == reasons
    assert len(checks._off[0]) == len(reasons) and checks._diff[0] == []
    for m in itertools.product(range(2), repeat=2):
        with pytest.raises(lweights.Undecided, match="level-geometric"):
            checks.check(m)
        with pytest.raises(ValueError, match="level-geometric"):
            phi_series(1, spec, m, 3)
    with pytest.raises(ValueError):
        verify_grid(2, 3, m_max=1)
    # the CLI reports an undecided check with exit 3, apart from usage errors
    assert cli.main(["verify", "--l", "2", "--order", "3", "--mmax", "1"]) == 3
    captured = capsys.readouterr()
    # the spec's repr, byte for byte as the frozen dataclass printed it
    assert "undecided: phi_1 of RepSpec(l=2, a=1, bar=False, zs=1) is not level-geometric: " \
        in captured.err
    assert "all checks passed" not in captured.out


def test_phi_series_input_validation():
    with pytest.raises(IndexError):
        phi_series(3, RepSpec(2, 1), (0, 0), 4)
    with pytest.raises(IndexError):
        closed_psi(0, RepSpec(2, 1), (0, 0))
    with pytest.raises(ValueError):
        oscillator_lweight(RepSpec(2, 1), (0,)).weight


# ------------------------------------------------------------------ l-weights

def _psi_series(lw: LWeight, i: int, order: int) -> USeries:
    """Psi_i of a factored l-weight expanded through u^order, factor by factor."""
    out = USeries(order, (qp(lw.weight.pair_h(i)),))
    for x, k in lw.roots[i - 1]:
        lin = USeries(order, (ONE, -x))
        for _ in range(abs(k)):
            out = series_product(out, lin if k > 0 else series_inverse(lin))
    return out


def test_lweight_validation():
    lam = Weight(1, (-2,))
    LWeight(lam, (frozenset({(qp(-1), -1)}),))
    with pytest.raises(ValueError):
        LWeight(lam, (frozenset(),) * 2)


def test_lweight_product_multiplies_componentwise():
    l = 2
    p = prefundamental(l, 1, 1, qp(2))
    n = prefundamental(l, 2, -1, qp(-1))
    s = shift_weight(Weight(l, (1, -1)))
    prod = lweight_product(p, n, s)
    assert prod.weight == Weight(l, (1, -1))
    # q (1 - q^2 u) and q^-1 / (1 - u/q)
    assert prod.roots == (frozenset({(qp(2), 1)}), frozenset({(qp(-1), -1)}))
    assert _psi_series(prod, 1, 3) == URational((qp(1), -qp(3))).expand(3)
    with pytest.raises(ValueError):
        lweight_product()


def test_prefundamental_pair_cancels():
    x = -qp(3) * QRational.from_int(2)
    for l in (1, 3):
        for i in range(1, l + 1):
            pair = lweight_product(prefundamental(l, i, 1, x), prefundamental(l, i, -1, x))
            assert pair == shift_weight(Weight.zero(l))
    # multiplicities add without cancelling when the roots differ
    sq = lweight_product(prefundamental(1, 1, -1, x), prefundamental(1, 1, -1, x))
    assert sq.roots == (frozenset({(x, -2)}),)


def test_prefundamental_validation():
    with pytest.raises(ValueError):
        prefundamental(2, 1, 2, qp(1))
    with pytest.raises(IndexError):
        prefundamental(2, 3, 1, qp(1))
    # x = 0 would be the factor 1 - 0 u = 1, the trivial l-weight, not a prefundamental one
    with pytest.raises(ValueError, match="^prefundamental parameter must be nonzero$"):
        prefundamental(3, 2, 1, QRational.zero())


def test_oscillator_lweight_defaults_to_the_highest_vector():
    spec = RepSpec(2, 3)
    assert oscillator_lweight(spec) == oscillator_lweight(spec, (0, 0))
    for m in ((1, 0), (2, 1)):
        lw = oscillator_lweight(spec, m)
        assert lw.weight == oscillator_lweight(spec, m).weight
        for i in (1, 2):
            assert _psi_series(lw, i, 6) == closed_psi(i, spec, m).expand(6)


_LAW_TWISTS = (qp(3), -2 * qp(-1), ONE / QRational.from_int(2), -ONE)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_psi_roots_cancel_on_exponents_as_on_scalars(l):
    # merging the integer exponents c, then building q**c zeff, gives the
    # roots that building every factor first and merging scalars gives
    for zs in _LAW_TWISTS:
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar, zs)
                for m in itertools.product(range(3), repeat=l):
                    s = lweights._prefix(m)
                    for i in range(1, l + 1):
                        want = psi_roots_by_scalars(i, spec, m)
                        assert lweights._psi_roots(i, spec, s) == want, (spec, m, i)


def test_the_exponent_zero_is_a_root():
    # c = 0 is the factor 1 - zs u, not the factor one that x = 0 would be
    for zs in _LAW_TWISTS:
        assert oscillator_lweight(RepSpec(2, 2, False, zs)).roots[0] == frozenset({(zs, 1)})
        # at l = 20 the module a = l has it at node l - 1
        e0, roots = lweights._psi_roots(19, RepSpec(20, 20, False, zs), lweights._prefix((0,) * 20))
        assert (zs, 1) in roots
        assert (e0, roots) == psi_roots_by_scalars(19, RepSpec(20, 20, False, zs), (0,) * 20)


class _CountingTable(tuple):
    """A prefix table that counts the entries read from it."""

    reads = 0

    def __getitem__(self, k):
        _CountingTable.reads += 1
        return tuple.__getitem__(self, k)


def test_one_module_reads_o_of_l_occupation_entries(monkeypatch):
    # at most 4 prefix-table entries per node, whatever the module and m
    prefix = lweights._prefix
    monkeypatch.setattr(lweights, "_prefix", lambda m: _CountingTable(prefix(m)))
    l = 40
    m = tuple(k % 3 for k in range(l))
    for a in range(1, l + 2):
        for bar in (False, True):
            spec = RepSpec(l, a, bar)
            _CountingTable.reads = 0
            oscillator_lweight(spec, m)
            assert 0 < _CountingTable.reads <= 4 * l, (a, bar, _CountingTable.reads)


def test_a_root_cancels_and_comes_back():
    # x**+1 x**-1 x**+1: the node empties after two factors and refills
    l, x = 3, -2 * qp(-1)
    up, down = prefundamental(l, 2, 1, x), prefundamental(l, 2, -1, x)
    assert lweight_product(up, down) == shift_weight(Weight.zero(l))
    for got in (lweight_product(up, down, up), lweight_product(lweight_product(up, down), up)):
        assert got == up == lweight_product_at_once(up, down, up)
    assert lweight_product(up, up, down, down).roots == (frozenset(),) * l


def test_empty_nodes_pass_through_untouched():
    # a factor's empty nodes leave the other factor's nodes as they are, and
    # a twist leaves an empty node as it is
    lw = oscillator_lweight(RepSpec(4, 4, False, qp(1)), (1, 0, 2, 0))
    assert not lw.roots[0] and lw.roots[3]
    empty = shift_weight(Weight(4, (1, 0, -1, 2)))
    for prod in (lweight_product(lw, empty), lweight_product(empty, lw)):
        assert all(x is y for x, y in zip(prod.roots, lw.roots) if y)
        assert prod == lweight_product_at_once(lw, empty)
    assert all(x is y for x, y in zip(empty.twisted(qp(3)).roots, empty.roots))


# -------------------------------------------------------------- factorization

@given(st.integers(1, 2), st.integers(-2, 3))
@settings(max_examples=20, deadline=None)
def test_factorizations_hold_at_q_power_twists(l, k):
    zs = qp(k)
    for a in range(1, l + 2):
        assert factor_check("osc", l, a, zs)
    for i in range(1, l + 1):
        assert factor_check("pref-minus", l, i, zs)
        assert factor_check("pref-plus", l, i, zs)
    assert factor_check("full-tensor", l, zs_list=[qp(k + j) for j in range(l + 1)])


def test_factorizations_hold_at_generic_scalars():
    # the identities are rational in the twist, not tied to q-powers
    zs = -qp(3) * QRational.from_int(2)
    for a in range(1, 3):
        assert factor_check("osc", 1, a, zs)
    assert factor_check("full-tensor", 1, zs_list=[zs, zs * qp(2)])


def test_a_twist_scales_every_root():
    # a twisted module is the untwisted one at u -> z u, the mirrored ones
    # (zeff = +-zs) included, at every occupation vector
    for l in (1, 2, 3, 4):
        for a in range(1, l + 2):
            for bar in (False, True):
                for m in itertools.product((0, 1), repeat=l):
                    plain = oscillator_lweight(RepSpec(l, a, bar), m)
                    for z in _LAW_TWISTS:
                        assert oscillator_lweight(RepSpec(l, a, bar, z), m) == plain.twisted(z), \
                            (l, a, bar, m, z)


def test_twisted_roots_of_different_factors_cancel():
    # theta_a has the root q**(a-l-1) zs_a at node a and theta_{a+1} the root
    # q**(a-l+1) zs_{a+1} at the same node, with opposite multiplicities; with
    # zs_{a+1} = q**-2 zs_a the two coincide and every root of the tensor cancels
    for l in (1, 2, 3, 4):
        for z in _LAW_TWISTS:
            zs_list = [z * qp(-2 * a) for a in range(l + 1)]
            factors = [oscillator_lweight(RepSpec(l, a)).twisted(zs_list[a - 1])
                       for a in range(1, l + 2)]
            assert all(any(f.roots) for f in factors)
            want = LWeight(Weight(l, (-2,) * l), (frozenset(),) * l)
            assert lweight_product(*factors) == want, (l, z)
            assert factor_check("full-tensor", l, zs_list=zs_list), (l, z)


def test_factor_reads_do_not_outlive_a_call(monkeypatch, capsys):
    # a catalog edit between two runs of one process reaches the second run
    argv = ["factor", "--l", "3", "--kind", "all", "--json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    with monkeypatch.context() as mp:
        _perturbed_parts(mp, lambda m: 1, "e0")
        assert cli.main(argv) == 1
        found = json.loads(capsys.readouterr().out.splitlines()[-1])["discrepancies"]
        assert len(found) == 11
    assert cli.main(argv) == 0


def test_running_products_are_the_per_identity_products(monkeypatch):
    # each family's running product, twisted per identity, is the product the
    # oracle forms for that identity alone, as data and not only as a value
    for l in range(1, 9):
        for kind in ("pref-minus", "pref-plus"):
            jobs = [(kind, i) for i in range(1, l + 1)]
            for z in _LAW_TWISTS:
                for (lhs, rhs), (_, i) in zip(lweights.factor_sides(l, jobs, z), jobs):
                    want = factor_rhs_by_products(l, kind, i, z)
                    assert rhs == want and lhs == rhs, (l, kind, i, z)
    # one identity reads only its own factors: --index i builds its chain up to i
    read = []
    real = lweights.oscillator_lweight
    monkeypatch.setattr(lweights, "oscillator_lweight",
                        lambda spec, m=None: read.append(spec.a) or real(spec, m))
    l = 6
    for kind, i, bs in (("pref-minus", 2, [1, 2]), ("pref-plus", 4, [7, 6, 5])):
        read.clear()
        assert lweights.factor_check(kind, l, i, qp(2))
        assert read == bs


def _faulty_theta(monkeypatch, b):
    # theta_b gains the root 7 at node 1, a root no other factor has at any twist
    real = lweights.oscillator_lweight

    def faulty(spec, m=None):
        lw = real(spec, m)
        if spec.a != b:
            return lw
        return LWeight(lw.weight, (lw.roots[0] | {(QRational.from_int(7), 1)},) + lw.roots[1:])

    monkeypatch.setattr(lweights, "oscillator_lweight", faulty)


def _factor_lines(capsys, *args):
    # the verdict lines of one factor run, without the summary line
    cli.main(["factor", *args, "--zs=-2*q^-1"])
    return capsys.readouterr().out.splitlines()[:-1]


@pytest.mark.parametrize("l", [3, 4])
def test_a_faulty_factor_fails_only_the_identities_that_contain_it(monkeypatch, capsys, l):
    # a fault in theta_b reaches P_i for i >= b and S_i for i < b, and nothing else
    for b in (1, (l + 2) // 2, l + 1):
        want = ({f"osc[{b}]", "full-tensor"} | {f"pref-minus[{i}]" for i in range(b, l + 1)}
                | {f"pref-plus[{i}]" for i in range(1, b)})
        with monkeypatch.context() as mp:
            _faulty_theta(mp, b)
            lines = _factor_lines(capsys, "--l", str(l), "--kind", "all")
            assert len(lines) == 3 * l + 2
            assert {line.split(":")[0] for line in lines if line.endswith("MISMATCH")} == want
            # each identity on its own gives its line of the run over all of them
            for line in lines:
                label = line.split(":")[0]
                if label == "full-tensor":
                    args = ("--kind", "full-tensor")
                else:
                    kind, index = label.rstrip("]").split("[")
                    args = ("--kind", kind, "--index", index)
                assert _factor_lines(capsys, "--l", str(l), *args) == [line], (b, line)


def test_factor_check_rejects_unknown_kind():
    with pytest.raises(ValueError):
        factor_check("nope", 1, 1)


def test_factorizations_hold_at_rank_twelve():
    l = 12
    zs = -QRational.from_int(2) * qp(-3)
    for a in range(1, l + 2):
        assert factor_check("osc", l, a, zs)
    for i in range(1, l + 1):
        assert factor_check("pref-minus", l, i, zs)
        assert factor_check("pref-plus", l, i, zs)
    signs = (1, -1, -2, 2)
    zs_list = [QRational.from_int(signs[j % 4]) * qp(j % 7 - 3) for j in range(l + 1)]
    assert factor_check("full-tensor", l, zs_list=zs_list)
    assert factor_check("full-tensor", l, zs=zs)


def test_perturbed_prefundamental_breaks_the_factorization():
    # theta_a = shift * L+_{a-1}(q^(a-l) zs) * L-_a(q^(a-l-1) zs) for 1 < a < l+1;
    # moving either prefundamental parameter by a factor q breaks it
    l, zs = 3, -qp(2)
    for a in range(2, l + 1):
        lhs = oscillator_lweight(RepSpec(l, a, False, zs))
        x_plus, x_minus = qp(a - l) * zs, qp(a - l - 1) * zs
        for dp, dm in ((ONE, ONE), (qp(1), ONE), (ONE, qp(1))):
            rhs = lweight_product(shift_weight(xi_osc(l, a)),
                                  prefundamental(l, a - 1, 1, x_plus * dp),
                                  prefundamental(l, a, -1, x_minus * dm))
            assert (lhs == rhs) == (dp == dm == ONE)


_twists = st.builds(lambda s, c, k: QRational.from_int(s * c) * qp(k),
                    st.sampled_from((1, -1)), st.integers(1, 2), st.integers(-3, 3))


@given(st.integers(1, 3), st.data())
@settings(max_examples=30, deadline=None)
def test_product_expansion_is_the_product_of_expansions(l, data):
    # the series layer is an independent oracle for root-multiplicity addition
    factors = []
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(("osc", "pref", "shift")))
        if kind == "osc":
            a = data.draw(st.integers(1, l + 1))
            m = tuple(data.draw(st.lists(st.integers(0, 2), min_size=l, max_size=l)))
            factors.append(oscillator_lweight(RepSpec(l, a, data.draw(st.booleans()),
                                                      data.draw(_twists)), m))
        elif kind == "pref":
            factors.append(prefundamental(l, data.draw(st.integers(1, l)),
                                          data.draw(st.sampled_from((1, -1))),
                                          data.draw(_twists)))
        else:
            omega = data.draw(st.lists(st.integers(-3, 3), min_size=l, max_size=l))
            factors.append(shift_weight(Weight(l, tuple(omega))))
    prod = lweight_product(*factors)
    for i in range(1, l + 1):
        want = USeries(5, (ONE,))
        for f in factors:
            want = series_product(want, _psi_series(f, i, 5))
        assert _psi_series(prod, i, 5) == want


@given(st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_lweight_product_is_the_all_at_once_merge(l, data):
    # folding the later factors' nonempty nodes into the first factor's is
    # the node-by-node merge over all factors at once
    x = data.draw(_twists)
    factors = []
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(("osc", "pref", "shift")))
        if kind == "osc":
            a = data.draw(st.integers(1, l + 1))
            m = tuple(data.draw(st.lists(st.integers(0, 2), min_size=l, max_size=l)))
            factors.append(oscillator_lweight(RepSpec(l, a, data.draw(st.booleans()),
                                                      data.draw(_twists)), m))
        elif kind == "pref":
            # one shared parameter, so that roots meet and cancel across factors
            factors.append(prefundamental(l, data.draw(st.integers(1, l)),
                                          data.draw(st.sampled_from((1, -1))), x))
        else:
            omega = data.draw(st.lists(st.integers(-3, 3), min_size=l, max_size=l))
            factors.append(shift_weight(Weight(l, tuple(omega))))
    assert lweight_product(*factors) == lweight_product_at_once(*factors)


# a pool of roots small enough that the factors of a product share some
_SPARSE_ROOTS = (ONE, -ONE, qp(2), -2 * qp(-1), ONE / QRational.from_int(2), -qp(-3))


@st.composite
def _sparse_lweights(draw, l: int, count: int):
    """count l-weights at rank l, each with roots at up to 3 nodes and every
    empty node its own frozenset object."""
    out = []
    for _ in range(count):
        roots = [frozenset(set()) for _ in range(l)]
        for j in draw(st.lists(st.integers(0, l - 1), max_size=3, unique=True)):
            xs = draw(st.lists(st.sampled_from(_SPARSE_ROOTS), min_size=1, max_size=3, unique=True))
            roots[j] = frozenset((x, draw(st.sampled_from((1, -1, 2, -2)))) for x in xs)
        omega = draw(st.lists(st.integers(-3, 3), min_size=l, max_size=l))
        out.append(LWeight(Weight(l, tuple(omega)), tuple(roots)))
    return out


@given(st.integers(1, 40), st.data())
@settings(max_examples=60, deadline=None)
def test_twists_and_products_visit_only_nonempty_nodes(l, data):
    # twisted and lweight_product, which skip empty nodes, against the oracles
    # that visit every node; each empty node of a result is an operand's node
    factors = data.draw(_sparse_lweights(l, data.draw(st.integers(1, 4))))
    z = data.draw(st.sampled_from(_LAW_TWISTS) | _twists)
    for lw in factors:
        got = lw.twisted(z)
        assert got == twisted_by_nodes(lw, z)
        assert all(g is node for g, node in zip(got.roots, lw.roots) if not node)
    prod = lweight_product(*factors)
    assert prod == lweight_product_at_once(*factors)
    for j, nodes in enumerate(zip(*(f.roots for f in factors))):
        full = [node for node in nodes if node]
        if len(full) <= 1:
            # no factor or one fills node j: it passes through as that factor's object
            assert prod.roots[j] is (full[0] if full else nodes[0]), j
    # the twist of a product is the product of the twists
    assert prod.twisted(z) == lweight_product(*(f.twisted(z) for f in factors))


def test_a_twist_multiplies_once_per_root(monkeypatch):
    # at l = 2,000 with three nonempty nodes, a twist costs one scalar
    # product per root and none per empty node; a product merges only the
    # nodes that two factors fill
    l, z = 2000, -2 * qp(-1)
    nodes = {7: {(ONE, 1), (qp(2), -1)}, 1000: {(-ONE, 2)}, 1999: {(qp(-3), -1), (ONE, 1), (qp(5), 1)}}
    lw = LWeight(Weight.zero(l), tuple(frozenset(nodes.get(j, ())) for j in range(l)))
    calls = []
    mul = QRational.__mul__
    monkeypatch.setattr(QRational, "__mul__", lambda x, y: calls.append(y) or mul(x, y))
    got = lw.twisted(z)
    assert calls == [z] * 6
    monkeypatch.undo()
    assert got == twisted_by_nodes(lw, z)
    pref = prefundamental(l, 1001, -1, QRational.from_int(5))  # at roots[1000]
    merged = []
    roots = lweights._roots
    monkeypatch.setattr(lweights, "_roots", lambda pairs: merged.append(1) or roots(pairs))
    assert lweight_product(lw, pref, got) == lweight_product_at_once(lw, pref, got)
    assert len(merged) == 4  # roots[1000] twice, roots[7] and roots[1999] once


def test_a_wrong_length_twist_list_fails_before_any_module_is_read(monkeypatch, capsys):
    read = []
    monkeypatch.setattr(lweights, "oscillator_lweight", lambda spec, m=None: read.append(spec))
    with pytest.raises(SystemExit) as err:
        cli.main(["factor", "--l", "300", "--kind", "all", "--zs-list=q,q"])
    assert err.value.code == 2
    out, errs = capsys.readouterr()
    assert out == "" and errs.endswith("error: need one twist per tensor factor\n")
    with pytest.raises(ValueError, match="^need one twist per tensor factor$"):
        next(lweights.factor_sides(3, [("osc", 1), ("full-tensor", 0)], zs_list=[ONE] * 3))
    assert read == []
