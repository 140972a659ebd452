"""Acceptance gate: the nine exact end-to-end checks, one test per criterion.

Every comparison is exact (zero tolerance).  Each test prints one
"CRITERION k PASS" or "CRITERION k FAIL" line on the real stdout so the
verdicts survive pytest's capture.

 1. untwisted grid: phi_i(u) eigenvalue series to order u^6 vs closed forms,
    l in {1,2,3}, all modules a, all nodes i, all occupations <= 2
 2. the same grid for the mirrored modules, whose closed forms are the
    reflected ones at u -> -(-1)^l u
 3. diagonality: e'_{n delta, alpha_i} with n <= 6 acts as an exact scalar on
    every grid vector of (1)-(2)
 4. weight exponents of every q^(h_j) match <lambda_{m,a}, h_j>, and the
    central element acts trivially
 5. q-Serre and weight relations on occupations <= 3, all pairs, all a, both
    families, l <= 3
 6. all generator images arise from the base module by the rotation and flip
    twists, word for word as the explicit tables in tests/oracles.py state
    them, l <= 4; the rotation has order l+1 and the flip is an involution
 7. factorization of oscillator l-weights into shifted prefundamental ones,
    l <= 3, spectral values at integer powers of q
 8. loop relation [chi_{i,n}, xi+_{j,m}] = (1/n) [n a_ij] xi+_{j,n+m} on
    occupations <= 2 for l <= 2, n <= 2, m <= 1, with the vanishing rows
 9. Pade reconstruction at degrees (2,2) of every series of (1) re-expands to
    the series and equals the closed form
"""

import itertools

from oracles import DegreeMismatch, pade, qh_exponent, twist_consistency
from qloop.borelrep import RepSpec, get_evaluator, serre_check, weight_relation_check
from qloop.exactfield import QRational
from qloop.lweights import closed_psi, factor_check, oscillator_lweight, phi_series
from qloop.rootsys import CartanExponent
from qloop.rootvectors import drinfeld_check, e_prime_imag, e_real

ORDER = 6
M_MAX = 2
GRID_RANKS = (1, 2, 3)

_GRID = {}


def _verdict(capsys, k: int, ok: bool) -> None:
    # bypass capture so the verdict lines land in the real test transcript
    with capsys.disabled():
        print(f"CRITERION {k} {'PASS' if ok else 'FAIL'}", flush=True)


def _grid_points(l: int):
    for a in range(1, l + 2):
        for m in itertools.product(range(M_MAX + 1), repeat=l):
            for i in range(1, l + 1):
                yield a, i, m


def _grid_data(l: int, bar: bool):
    """(a, i, m, operator series, closed form) for the whole grid, cached."""
    key = (l, bar)
    if key not in _GRID:
        rows = []
        for a, i, m in _grid_points(l):
            spec = RepSpec(l, a, bar)
            rows.append((a, i, m, phi_series(i, spec, m, ORDER), closed_psi(i, spec, m)))
        _GRID[key] = rows
    return _GRID[key]


def test_criterion_1_untwisted_grid(capsys):
    bad = []
    for l in GRID_RANKS:
        for a, i, m, series, closed in _grid_data(l, False):
            if series != closed.expand(ORDER):
                bad.append((l, a, i, m))
    _verdict(capsys, 1, not bad)
    assert not bad, bad[:5]


def test_criterion_2_mirrored_grid(capsys):
    bad = []
    for l in GRID_RANKS:
        for a, i, m, series, closed in _grid_data(l, True):
            if series != closed.expand(ORDER):
                bad.append((l, a, i, m))
    _verdict(capsys, 2, not bad)
    assert not bad, bad[:5]


def test_criterion_3_diagonality(capsys):
    bad = []
    for l in GRID_RANKS:
        for bar in (False, True):
            seen = set()
            for a, i, m, _, _ in _grid_data(l, bar):
                if (a, i, m) in seen:
                    continue
                seen.add((a, i, m))
                ev = get_evaluator(RepSpec(l, a, bar))
                for n in range(1, ORDER + 1):
                    out = ev.apply_basis(e_prime_imag(l, i, i + 1, n), m)
                    if not set(dict(out.items())) <= {m}:
                        bad.append((l, a, bar, i, n, m))
    _verdict(capsys, 3, not bad)
    assert not bad, bad[:5]


def test_criterion_4_weights_and_central_element(capsys):
    bad = []
    for l in GRID_RANKS:
        for bar in (False, True):
            for a in range(1, l + 2):
                spec = RepSpec(l, a, bar)
                ev = get_evaluator(spec)
                for m in itertools.product(range(M_MAX + 1), repeat=l):
                    lam = oscillator_lweight(spec, m).weight
                    exps = [qh_exponent(ev, CartanExponent.h(l, j), m) for j in range(l + 1)]
                    if any(t != lam.pair_h(j) for j, t in enumerate(exps)):
                        bad.append(("weight", l, a, bar, m))
                    if sum(exps) != 0:
                        bad.append(("central", l, a, bar, m))
    _verdict(capsys, 4, not bad)
    assert not bad, bad[:5]


def test_criterion_5_serre_and_weight_relations(capsys):
    bad = []
    for l in GRID_RANKS:
        samples = list(itertools.product(range(4), repeat=l))
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar)
                for i in range(l + 1):
                    for j in range(l + 1):
                        if i != j and not serre_check(i, j, spec, samples):
                            bad.append(("serre", l, a, bar, i, j))
                        if not weight_relation_check(i, CartanExponent.h(l, j), spec, samples):
                            bad.append(("weight-rel", l, a, bar, i, j))
    _verdict(capsys, 5, not bad)
    assert not bad, bad[:5]


def test_criterion_6_twist_consistency(capsys):
    bad = []
    for l in (1, 2, 3, 4):
        idx = list(range(l + 1))
        for _ in range(l + 1):
            idx = [(k + 1) % (l + 1) for k in idx]
        if idx != list(range(l + 1)):
            bad.append(("rotation-order", l))
        tau = [0] + [l - k + 1 for k in range(1, l + 1)]
        if any(tau[tau[k]] != k for k in range(l + 1)):
            bad.append(("flip-involution", l))
        for a in range(1, l + 2):
            for bar in (False, True):
                for i in range(l + 1):
                    if not twist_consistency(l, a, bar, i):
                        bad.append(("twist", l, a, bar, i))
    _verdict(capsys, 6, not bad)
    assert not bad, bad[:5]


def test_criterion_7_factorizations(capsys):
    bad = []
    qp = QRational.q_power
    for l in GRID_RANKS:
        for k in (-1, 0, 2):
            zs = qp(k)
            for a in range(1, l + 2):
                if not factor_check("osc", l, a, zs):
                    bad.append(("osc", l, a, k))
            for i in range(1, l + 1):
                if not factor_check("pref-minus", l, i, zs):
                    bad.append(("pref-minus", l, i, k))
                if not factor_check("pref-plus", l, i, zs):
                    bad.append(("pref-plus", l, i, k))
            if not factor_check("full-tensor", l, zs_list=[qp(k + j) for j in range(l + 1)]):
                bad.append(("full-tensor", l, k))
    _verdict(capsys, 7, not bad)
    assert not bad, bad[:5]


def test_criterion_8_loop_relation_spot_check(capsys):
    bad = []
    for l in (1, 2):
        samples = list(itertools.product(range(3), repeat=l))
        for a in range(1, l + 2):
            for bar in (False, True):
                spec = RepSpec(l, a, bar)
                for i in range(1, l + 1):
                    for j in range(1, l + 1):
                        for n in (1, 2):
                            for mm in (0, 1):
                                if not drinfeld_check(i, j, n, mm, spec, samples):
                                    bad.append(("loop", l, a, bar, i, j, n, mm))
        # vanishing rows: e'_{n delta, alpha_i} for i <= a-2, and the level
        # collapse of the real tower at i = a-1
        for a in range(1, l + 2):
            spec = RepSpec(l, a)
            ev = get_evaluator(spec)
            for m in samples:
                for i in range(1, a - 1):
                    for n in (1, 2):
                        if not ev.apply_basis(e_prime_imag(l, i, i + 1, n), m).is_zero():
                            bad.append(("ladder", l, a, i, n, m))
                if a >= 2:
                    for n in (1, 2):
                        if not ev.apply_basis(e_real(l, a - 1, a, n), m).is_zero():
                            bad.append(("collapse", l, a, n, m))
    _verdict(capsys, 8, not bad)
    assert not bad, bad[:5]


def test_criterion_9_pade_redundancy(capsys):
    bad = []
    for l in GRID_RANKS:
        for a, i, m, series, closed in _grid_data(l, False):
            try:
                rec = pade(series, 2, 2)
            except DegreeMismatch:
                bad.append(("mismatch", l, a, i, m))
                continue
            if rec.expand(ORDER) != series or rec != closed:
                bad.append(("value", l, a, i, m))
    _verdict(capsys, 9, not bad)
    assert not bad, bad[:5]
