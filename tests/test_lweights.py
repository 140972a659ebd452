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
from oracles import (check_vector_at, pade, phi_series_at, qh_exponent, reduced, table_lambda,
                     verify_grid_at)

import qloop
from qloop import cli, lweights
from qloop.borelrep import Evaluator, Gen, RepSpec, Sum, get_evaluator
from qloop.exactfield import QRational, URational, USeries, qrational_to_json, series_invert
from qloop.lweights import (LWeight, NotDiagonal, VectorChecks, Weight,
                            closed_lambda, closed_psi,
                            factor_check, lweight_product,
                            oscillator_lweight, phi_series, prefundamental,
                            shift_weight, verify_grid, xi_osc)
from qloop.rootsys import CartanExponent

ONE = QRational.one()
qp = QRational.q_power


# ------------------------------------------------------------------- weights

def test_weight_algebra():
    w = Weight(3, (1, -2, 0))
    v = Weight.fundamental(3, 2, 5)
    assert (w + v).omega == (1, 3, 0)
    assert (-w).omega == (-1, 2, 0)
    assert (w - w) == Weight.zero(3)
    assert w.pair_h(1) == 1 and w.pair_h(2) == -2 and w.pair_h(3) == 0
    # the affine node sees minus the total, so the central charge vanishes
    assert w.pair_h(0) == 1
    assert sum(w.pair_h(j) for j in range(4)) == 0
    assert w.iota().omega == (0, -2, 1)
    with pytest.raises(ValueError):
        Weight(2, (1,))


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
                        seen += got.den_degree > 0 and got.num_degree > 0
    assert seen > 100


def test_closed_lambda_spot_values():
    assert closed_lambda(RepSpec(1, 1), (0,)) == Weight(1, (-2,))
    assert closed_lambda(RepSpec(3, 2), (0, 0, 0)) == Weight(3, (2, -3, 0))
    assert closed_lambda(RepSpec(3, 4), (0, 0, 0)) == Weight(3, (0, 0, 0))
    # occupation dependence: one quantum in the last mode of the first module
    assert closed_lambda(RepSpec(2, 1), (0, 1)) == Weight(2, (-4, -1))


def test_highest_weight_matches_the_shift_of_the_factorization():
    # at m = 0 the weight is exactly the shift weight xi_a
    for l in (1, 2, 3):
        for a in range(1, l + 2):
            assert closed_lambda(RepSpec(l, a), (0,) * l) == xi_osc(l, a)


def test_bar_closed_forms_are_reflections():
    # rank one: the reflection sends u -> u, a -> l-a+2, i -> l-i+1
    for m in ((0,), (1,), (2,)):
        assert closed_psi(1, RepSpec(1, 1, True), m) == closed_psi(1, RepSpec(1, 2), m)
        assert closed_psi(1, RepSpec(1, 2, True), m) == closed_psi(1, RepSpec(1, 1), m)
    # rank two: the reflection also flips the sign of u; for these (<= 2, <= 2)
    # functions agreement through u^8 is equality
    for m in ((0, 0), (1, 0), (0, 2)):
        lhs = closed_psi(1, RepSpec(2, 1, True), m).expand(8)
        rhs = closed_psi(2, RepSpec(2, 3), m).expand(8).scale_var(-ONE)
        assert lhs == rhs
    # bar weights are the reversed unbar weights
    for l in (1, 2, 3):
        for a in range(1, l + 2):
            m = tuple(range(l))
            assert closed_lambda(RepSpec(l, a, True), m) == \
                closed_lambda(RepSpec(l, l - a + 2), m).iota()


def test_twist_scales_the_spectral_variable():
    zs = qp(3)
    spec0 = RepSpec(2, 2)
    spec = RepSpec(2, 2, False, zs)
    for m in ((0, 0), (1, 1)):
        for i in (1, 2):
            # (<= 2, <= 2) functions: agreement through u^8 is equality
            want = closed_psi(i, spec0, m).expand(8).scale_var(zs)
            assert closed_psi(i, spec, m).expand(8) == want


def test_constant_term_law_links_the_two_catalogs():
    # closed_lambda reads lambda off Psi_i(0) = q^<lambda, h_i>; the oracle
    # table enters it independently, per module
    rng = random.Random(8)
    for l in range(1, 21):
        ms = [(0,) * l] + [tuple(rng.randrange(4) for _ in range(l)) for _ in range(3)]
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar)
                for m in ms + list(itertools.product(range(2), repeat=l) if l <= 3 else ()):
                    lam = closed_lambda(spec, m)
                    assert lam == table_lambda(spec, m), (l, a, bar, m)
                    for i in range(1, l + 1):
                        assert closed_psi(i, spec, m).constant_term() == qp(lam.pair_h(i))


def test_scalar_work_repeats_between_interpreters():
    # the closed side multiplies its roots in a canonical order, not in the
    # address order of a frozenset, so two runs intern the same scalars
    code = ("import sys; from qloop import cli, exactfield; "
            "assert cli.main(sys.argv[1:]) == 0; print(len(exactfield._VALUES))")
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


@pytest.mark.parametrize("l", [1, 2, 3])
def test_phi_series_is_the_per_m_oracle(l):
    # the symbolic operator series specialized at m is the series built from
    # e'_{n delta} applied to v_m
    for zs in (ONE, 2 * qp(-2), -qp(3)):
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar, zs)
                for m in itertools.product(range(3), repeat=l):
                    for i in range(1, l + 1):
                        assert phi_series(i, spec, m, 5) == phi_series_at(i, spec, m, 5), \
                            (spec, m, i)


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
                    lam = closed_lambda(spec, m)
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
    for zs in (ONE, 2 * qp(-2), -qp(3), -2 * qp(-3)):
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar, zs)
                for i in range(1, l + 1):
                    polys = lweights._poly_series(*lweights._symbolic_forms(i, spec), order)
                    for m in itertools.product(range(3), repeat=l):
                        want = closed_psi(i, spec, m).expand(order)
                        got = tuple(lweights._poly_at(p, m) for p in polys)
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
    # its prefactor exponent e0, which moves the weight as well
    psi_parts = lweights._psi_parts

    def mutated(i, l, a, m):
        e0, num, den = psi_parts(i, l, a, m)
        if where == "e0":
            return e0 + shift(m), num, den
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


def test_phi_series_input_validation():
    with pytest.raises(IndexError):
        phi_series(3, RepSpec(2, 1), (0, 0), 4)
    with pytest.raises(IndexError):
        closed_psi(0, RepSpec(2, 1), (0, 0))
    with pytest.raises(ValueError):
        closed_lambda(RepSpec(2, 1), (0,))


# ------------------------------------------------------------------ l-weights

def _psi_series(lw: LWeight, i: int, order: int) -> USeries:
    """Psi_i of a factored l-weight expanded through u^order, factor by factor."""
    out = USeries(order, (qp(lw.weight.pair_h(i)),))
    for x, k in lw.roots[i - 1]:
        lin = USeries(order, (ONE, -x))
        for _ in range(abs(k)):
            out = out * (lin if k > 0 else series_invert(lin))
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


def test_oscillator_lweight_defaults_to_the_highest_vector():
    spec = RepSpec(2, 3)
    assert oscillator_lweight(spec) == oscillator_lweight(spec, (0, 0))
    for m in ((1, 0), (2, 1)):
        lw = oscillator_lweight(spec, m)
        assert lw.weight == closed_lambda(spec, m)
        for i in (1, 2):
            assert _psi_series(lw, i, 6) == closed_psi(i, spec, m).expand(6)


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


_LAW_TWISTS = (qp(3), -2 * qp(-1), ONE / QRational.from_int(2), -ONE)


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
        want = USeries.one(5)
        for f in factors:
            want = want * _psi_series(f, i, 5)
        assert _psi_series(prod, i, 5) == want
