"""Affine root system of sl(l+1): Cartan data, roots, Cartan exponents."""

import itertools
import random

import pytest

from qloop.rootsys import CartanExponent, RootIndex, _pairing, bilinear, cartan_entry, o_sign


# ----------------------------------------------------------------- Cartan data

def test_extended_cartan_entries_rank_one():
    # the affine sl(2) matrix has off-diagonal entries -2
    assert cartan_entry(1, 0, 0) == 2
    assert cartan_entry(1, 1, 1) == 2
    assert cartan_entry(1, 0, 1) == -2
    assert cartan_entry(1, 1, 0) == -2


def test_extended_cartan_entries_general():
    for l in (2, 3, 4):
        n = l + 1
        for i in range(n):
            for j in range(n):
                want = 2 if i == j else (-1 if min((i - j) % n, (j - i) % n) == 1 else 0)
                assert cartan_entry(l, i, j) == want


def test_finite_cartan_drops_the_affine_node():
    # nodes 1..l of the extended matrix are the finite A_l matrix
    for l in range(1, 9):
        for i in range(1, l + 1):
            for j in range(1, l + 1):
                want = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
                assert cartan_entry(l, i, j) == want
    # at l = 1 the finite matrix is just (2), unlike the extended one
    assert cartan_entry(1, 1, 1) == 2


def test_o_sign_alternates():
    for l in (1, 2, 3, 4):
        for i in range(1, l):
            assert o_sign(i, l) * o_sign(i + 1, l) == -1
        for i in range(1, l + 1):
            assert o_sign(i, l) in (1, -1)


# ----------------------------------------------------------------- root index

def test_simple_roots_and_delta():
    l = 3
    d = RootIndex.delta(l)
    assert d.coeffs == (1, 1, 1, 1)
    total = RootIndex(l, (0,) * (l + 1))
    for i in range(l + 1):
        total = total + RootIndex.simple(l, i)
    assert total == d


def test_alpha_interval():
    # alpha_{ij} = alpha_i + ... + alpha_{j-1}
    l = 3
    assert RootIndex.alpha(l, 1, 4).coeffs == (0, 1, 1, 1)
    assert RootIndex.alpha(l, 2, 3) == RootIndex.simple(l, 2)
    with pytest.raises(ValueError):
        RootIndex.alpha(l, 3, 3)


# ------------------------------------------------------------ node vectors

@pytest.mark.parametrize("cls,coeffs,text", [
    (RootIndex, (1, 1, 1), "RootIndex(l=2, coeffs=(1, 1, 1))"),
    (CartanExponent, (1, 0, -1), "CartanExponent(l=2, coeffs=(1, 0, -1))"),
], ids=["RootIndex", "CartanExponent"])
def test_node_vector_arithmetic_keeps_the_class(cls, coeffs, text):
    x, y = cls(2, coeffs), cls(2, (0, 2, 1))
    for got, want in ((x + y, tuple(a + b for a, b in zip(coeffs, y.coeffs))),
                      (x - y, tuple(a - b for a, b in zip(coeffs, y.coeffs))),
                      (3 * x, tuple(3 * a for a in coeffs)),
                      (x * 3, tuple(3 * a for a in coeffs))):
        assert type(got) is cls and got == cls(2, want)
    for bad in (lambda: x + cls(3, (0,) * 4), lambda: x - cls(1, (0, 0))):
        with pytest.raises(ValueError, match="^rank mismatch$"):
            bad()
    assert repr(x) == text


# ------------------------------------------------------------ Cartan exponents

def test_cartan_exponent_algebra():
    l = 2
    h1 = CartanExponent.h(l, 1)
    h2 = CartanExponent.h(l, 2)
    assert h1.coeffs == (0, 1, 0)
    assert (h1 + h2 - h1) == h2
    assert (-h1).coeffs == (0, -1, 0)
    assert (h1 * 3).coeffs == (0, 3, 0)
    assert CartanExponent.zero(l).coeffs == (0, 0, 0)
    with pytest.raises(ValueError):
        CartanExponent(l, (1, 0))


def test_pair_root_uses_the_extended_matrix():
    for l in (1, 2, 3):
        for i in range(l + 1):
            for j in range(l + 1):
                h = CartanExponent.h(l, i)
                assert h.pair_root(RootIndex.simple(l, j)) == cartan_entry(l, j, i)
    # delta pairs to zero with every h_i
    for l in (1, 2, 3):
        d = RootIndex.delta(l)
        for i in range(l + 1):
            assert CartanExponent.h(l, i).pair_root(d) == 0


def test_pair_root_is_the_bilinear_form_on_the_same_coefficients():
    # q**x acts on a root vector of root r by q**(x|r), for x read as a root
    for l in (1, 2, 3):
        vectors = list(itertools.product(range(-1, 2), repeat=l + 1))
        for x in vectors[::5]:
            for r in vectors[::7]:
                assert CartanExponent(l, x).pair_root(RootIndex(l, r)) == \
                    bilinear(RootIndex(l, x), RootIndex(l, r))
    with pytest.raises(ValueError, match="rank mismatch"):
        CartanExponent.h(2, 0).pair_root(RootIndex.delta(3))
    with pytest.raises(ValueError, match="rank mismatch"):
        bilinear(RootIndex.delta(2), RootIndex.delta(3))


@pytest.mark.parametrize("l", range(1, 8))
def test_pairing_reads_the_cyclic_neighbours_only(l):
    # the full double sum over the extended matrix, on sparse and dense
    # random vectors; at l = 1 the one neighbour carries the double bond
    rng = random.Random(l)
    n = l + 1
    for _ in range(200):
        x, y = ([rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(2))
        want = sum(x[i] * y[j] * cartan_entry(l, i, j) for i in range(n) for j in range(n))
        assert _pairing(l, tuple(x), tuple(y)) == want
