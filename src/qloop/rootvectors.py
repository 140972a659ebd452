"""Root vectors of the positive Borel subalgebra as operator expressions.

All root vectors are built from the generators e_0 .. e_l with the
q-commutator

    [x, y]_q = x y - q**(-(rx|ry)) y x

graded by the roots rx, ry of its arguments.  Every level-zero root vector
is built from one cached chain, _chain(l, ks) = [e_{k1}, [e_{k2}, ...
e_{kr}]_q ...]_q; each suffix of a chain is a chain, so chains share their
nodes.  The families:

- real, e_{alpha_{ij} + n delta}: at n = 0 the chain of (i, ..., j-1), and
  for n >= 1 the level step
  [2]_q**-1 [e_{alpha_{ij} + (n-1) delta}, e'_{delta, alpha_{ij}}]_q;

- dual real, e_{(delta - alpha_{ij}) + n delta}: at n = 0 the q-commutator
  [P_i, S_j]_q of the chains P_i of (i-1, ..., 1), root alpha_{1i}, and
  S_j of (j, ..., l, 0), root delta - alpha_{1j} (S_j alone when i = 1);
  for n >= 1 the level step [2]_q**-1 [e'_{delta, alpha_{ij}}, .]_q;

- primed imaginary, e'_{n delta, gamma} = [e_{gamma + (n-1) delta},
  e_{delta - gamma}]_q;

- unprimed imaginary, defined by -kappa_q e_{delta,gamma}(u) =
  log(1 - kappa_q e'_{delta,gamma}(u)) and built by its log-derivative
  recursion n e_{n delta} = n e'_{n delta} + kappa_q sum_{k<n} k e_{k delta}
  e'_{(n-k) delta}, which holds because the e'_{k delta,gamma} commute.

The Drinfeld generators xi+_{i,n}, xi-_{i,n} (n > 0) and chi_{i,n} are sign-
decorated root vectors for the simple gamma = alpha_i.  Operator nodes are
interned (see borelrep), so a rebuilt tree is the same object, which the
evaluator applies once for every m; the lru_caches only save build time.
"""

from __future__ import annotations

from functools import lru_cache

from .exactfield import QRational, kappa, qnum
from .borelrep import CartanPower, Compose, Gen, OpExpr, RepSpec, Scale, Sum, _vanishes_on
from .rootsys import CartanExponent, RootIndex, bilinear, cartan_entry, o_sign

_MINUS_ONE = QRational.from_int(-1)


def qcomm(x: OpExpr, rx: RootIndex, y: OpExpr, ry: RootIndex) -> OpExpr:
    """The graded q-commutator [x, y]_q = x y - q**(-(rx|ry)) y x."""
    c = -QRational.q_power(-bilinear(rx, ry))
    return Sum((Compose(x, y), Scale(c, Compose(y, x))))


@lru_cache(maxsize=None)
def _chain(l: int, ks: tuple) -> OpExpr:
    """The right-nested chain [e_{k1}, [e_{k2}, ... e_{kr}]_q ...]_q of the
    distinct nodes ks; its root is the sum of their simple roots."""
    if len(ks) == 1:
        return Gen(ks[0])
    rest = frozenset(ks[1:])
    root = RootIndex(l, tuple(int(k in rest) for k in range(l + 1)))
    return qcomm(Gen(ks[0]), RootIndex.simple(l, ks[0]), _chain(l, ks[1:]), root)


@lru_cache(maxsize=None)
def e_real(l: int, i: int, j: int, n: int) -> OpExpr:
    """Root vector of alpha_{ij} + n delta."""
    gamma = RootIndex.alpha(l, i, j)
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return _chain(l, tuple(range(i, j)))
    prev_root = gamma + (n - 1) * RootIndex.delta(l)
    return Scale(
        qnum(2).inv(),
        qcomm(e_real(l, i, j, n - 1), prev_root, e_prime_imag(l, i, j, 1), RootIndex.delta(l)),
    )


@lru_cache(maxsize=None)
def e_dual(l: int, i: int, j: int, n: int) -> OpExpr:
    """Root vector of (delta - alpha_{ij}) + n delta.

    At n = 0 it is the nested chain [e_{i-1}, [... [e_1, S_j]_q ...]_q]_q,
    where S_j = [e_j, [... [e_l, e_0]_q ...]_q]_q = e_{delta - alpha_{1j}}.
    The generators e_2 .. e_{i-1} commute with every generator of S_j (e_0
    and e_j .. e_l, j >= i + 1), and their roots are orthogonal to its root.
    For such a z, q-Jacobi gives [z, [y, x]_q]_q = [[z, y]_q, x]_q, so the
    nested chain rebrackets, one generator at a time, into [P_i, S_j]_q with
    P_i = [e_{i-1}, [... [e_2, e_1]_q ...]_q]_q = e_{alpha_{1i}}.  The identity
    holds in U_q(b+) itself, not only in the oscillator modules.  The S_j
    are the suffixes of one chain and the P_i of another, so a module's
    trees hold O(l) nodes, not O(l**2).
    """
    gamma = RootIndex.alpha(l, i, j)
    if n < 0:
        raise ValueError("need n >= 0")
    delta = RootIndex.delta(l)
    if n == 0:
        s = _chain(l, tuple(range(j, l + 1)) + (0,))
        if i == 1:
            return s
        return qcomm(_chain(l, tuple(range(i - 1, 0, -1))), RootIndex.alpha(l, 1, i),
                     s, delta - RootIndex.alpha(l, 1, j))
    prev_root = delta - gamma + (n - 1) * delta
    return Scale(
        qnum(2).inv(),
        qcomm(e_prime_imag(l, i, j, 1), delta, e_dual(l, i, j, n - 1), prev_root),
    )


@lru_cache(maxsize=None)
def e_prime_imag(l: int, i: int, j: int, n: int) -> OpExpr:
    """Primed imaginary root vector e'_{n delta, alpha_{ij}}."""
    gamma = RootIndex.alpha(l, i, j)
    if n < 1:
        raise ValueError("need n >= 1")
    prev_root = gamma + (n - 1) * RootIndex.delta(l)
    return qcomm(e_real(l, i, j, n - 1), prev_root, e_dual(l, i, j, 0), RootIndex.delta(l) - gamma)


@lru_cache(maxsize=None)
def e_unprimed_imag(l: int, i: int, n: int) -> OpExpr:
    """Unprimed imaginary root vector e_{n delta, alpha_i} for simple alpha_i.

    The e'_{k delta, alpha_i} of one node commute, so differentiating
    -kappa_q E(u) = log(1 - kappa_q E'(u)) in u gives

        n e_{n delta} = n e'_{n delta} + kappa_q sum_{k=1}^{n-1} k e_{k delta} e'_{(n-k) delta},

    one product per lower level: each tree holds the trees of the levels below.
    """
    kq = kappa()
    # e_prime_imag, built first, refuses a bad i (through RootIndex.alpha), then a bad n
    return Sum((e_prime_imag(l, i, i + 1, n),) + tuple(
        Scale(kq * QRational.from_int(k) / QRational.from_int(n),
              Compose(e_unprimed_imag(l, i, k), e_prime_imag(l, i, i + 1, n - k)))
        for k in range(1, n)))


@lru_cache(maxsize=None)
def xi_plus(l: int, i: int, n: int) -> OpExpr:
    """Drinfeld generator xi+_{i,n} = (-1)**n o_i**n e_{alpha_i + n delta}, n >= 0."""
    if n < 0:
        raise ValueError("need n >= 0")
    sign = (-o_sign(i, l)) ** n
    return Scale(QRational.from_int(sign), e_real(l, i, i + 1, n))


@lru_cache(maxsize=None)
def xi_minus(l: int, i: int, n: int) -> OpExpr:
    """Drinfeld generator xi-_{i,n} = (-1)**n o_i**(n+1) e_{(delta-alpha_i)+(n-1)delta} q**h_i, n > 0."""
    if n < 1:
        raise ValueError("the positive Borel subalgebra contains xi- only for n > 0")
    sign = (-1) ** n * o_sign(i, l) ** (n + 1)
    return Scale(
        QRational.from_int(sign),
        Compose(e_dual(l, i, i + 1, n - 1), CartanPower(CartanExponent.h(l, i))),
    )


@lru_cache(maxsize=None)
def chi(l: int, i: int, n: int) -> OpExpr:
    """Drinfeld generator chi_{i,n} = (-1)**(n+1) o_i**n e_{n delta, alpha_i}, n > 0."""
    if n < 1:
        raise ValueError("need n >= 1")
    sign = (-1) ** (n + 1) * o_sign(i, l) ** n
    return Scale(QRational.from_int(sign), e_unprimed_imag(l, i, n))


def chi_bracket(l: int, i: int, j: int, n: int, m: int, xi, sign: int) -> OpExpr:
    """[chi_{i,n}, xi_{j,m}] - sign (1/n) [n a_ij]_q xi_{j,n+m}, a tree that must vanish.

    Not cached: a_ij is read when the tree is built.  The CLI builds each tree
    once per command and decides it in every module.
    """
    x = chi(l, i, n)
    y = xi(l, j, m)
    c = qnum(n * cartan_entry(l, i, j)) / QRational.from_int(n)
    return Sum((Compose(x, y), Scale(_MINUS_ONE, Compose(y, x)),
                Scale(-c if sign > 0 else c, xi(l, j, n + m))))


def _commutator(xy: OpExpr, yx: OpExpr):
    """(x, y) when xy and yx are the terms x y and -1 y x of [x, y], else None.

    The -1 must be literal: a q-commutator with another y x coefficient fails."""
    if (type(xy) is Compose and type(yx) is Scale and yx.c == _MINUS_ONE
            and type(yx.child) is Compose
            and yx.child.left is xy.right and yx.child.right is xy.left):
        return xy.left, xy.right
    return None


def _level_step(prev: OpExpr, x: OpExpr):
    """(rho, D, hs) when x is the level step of prev, else None; rho = b c / a.

    xi+: prev = a E and x = b (c [E, D]), so x = rho [prev, D]; hs = ().
    xi-: prev = a E H and x = b ((c [D, E]) H), so x = rho [D, prev] once H
    and D commute; hs = (H,).
    """
    if type(prev) is not Scale or type(x) is not Scale or not prev.c:
        return None
    step, h = x.child, ()
    if type(step) is Compose:
        step, h = step.left, (step.right,)
    if type(step) is not Scale or type(step.child) is not Sum or len(step.child.children) != 2:
        return None
    pair = _commutator(*step.child.children)
    if pair is None:
        return None
    rho = x.c * step.c / prev.c
    e = prev.child
    if not h and pair[0] is e:
        return rho, pair[1], h
    if h and type(e) is Compose and e.right is h[0] and pair[1] is e.left:
        return rho, pair[0], h
    return None


def _bracket_parts(tree: OpExpr):
    """(C, X, c, Y) when tree is [C, X] + c Y as chi_bracket builds it, else None."""
    if type(tree) is not Sum or len(tree.children) != 3:
        return None
    xy, yx, last = tree.children
    pair = _commutator(xy, yx)
    if pair is None or type(last) is not Scale:
        return None
    return pair[0], pair[1], last.c, last.child


def loop_step(prev: OpExpr, tree: OpExpr):
    """The operators that make tree vanish with m symbolic wherever prev does.

    prev and tree are chi_bracket trees [C, X] + c Y and [C, X'] + c Y' with
    the same C and c, where X' and Y' are the level steps of X and Y with one
    rho and D, both of xi+ or both of xi-.  If C, D (and the q**h of a xi- step) act with only the
    zero shift, they commute in the shift algebra, and the Jacobi identity
    gives tree = rho [prev, D] (xi+) or rho [D, prev] (xi-): so an empty
    symbolic(prev) makes symbolic(tree) empty.  Returns those operators, or
    None when the trees have another shape.
    """
    a, b = _bracket_parts(prev), _bracket_parts(tree)
    if a is None or b is None or a[0] is not b[0] or a[2] != b[2]:
        return None
    step = _level_step(a[1], b[1])
    if step is None or step != _level_step(a[3], b[3]):
        return None
    return (a[0], step[1]) + step[2]


def drinfeld_check(i: int, j: int, n: int, m: int, spec: RepSpec, samples) -> bool:
    """[chi_{i,n}, xi+_{j,m}] = (1/n) [n a_ij]_q xi+_{j,n+m} on sample basis vectors."""
    return _vanishes_on(spec, chi_bracket(spec.l, i, j, n, m, xi_plus, 1), samples)


def drinfeld_check_minus(i: int, j: int, n: int, m: int, spec: RepSpec, samples) -> bool:
    """[chi_{i,n}, xi-_{j,m}] = -(1/n) [n a_ij]_q xi-_{j,n+m} on sample basis vectors, m > 0."""
    return _vanishes_on(spec, chi_bracket(spec.l, i, j, n, m, xi_minus, -1), samples)
