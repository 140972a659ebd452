"""The affine root system of type A_l^(1).

Positive roots of the affine algebra come in three families built from the
finite positive roots alpha_{ij} = alpha_i + ... + alpha_{j-1} (1 <= i < j <=
l+1) and the imaginary root delta = alpha_0 + alpha_1 + ... + alpha_l:

    real     alpha_{ij} + n*delta          n >= 0
    imaginary  n*delta                     n >= 1
    dual     (delta - alpha_{ij}) + n*delta  n >= 0

A root is stored by its coefficient vector over the simple roots alpha_0 ..
alpha_l.  There is one Cartan matrix, the extended one (cartan_entry); its
nodes 1..l give the finite A_l matrix.  The bilinear form is induced by it;
for l = 1 the two nodes of the Dynkin diagram are joined by a double bond, so
a_{01} = a_{10} = -2 there.  Cartan exponents (the integer vectors x with
q**x in the algebra) live here too, and share one node-vector arithmetic
with root indices.
"""

from __future__ import annotations

from .record import Record


class NotAPositiveRoot(ValueError):
    """Coefficient vector is not a positive root of A_l^(1)."""


def cartan_entry(l: int, i: int, j: int) -> int:
    """Extended Cartan matrix entry a_{ij}, indices 0..l; on 1..l it is the
    finite A_l matrix (at l = 1, a_11 = 2)."""
    if not (0 <= i <= l and 0 <= j <= l):
        raise IndexError("Cartan index out of range")
    if i == j:
        return 2
    if l == 1:
        return -2
    return -1 if (i - j) % (l + 1) in (1, l) else 0


def o_sign(i: int, l: int) -> int:
    """The alternating sign o_i = -(-1)**i on the finite nodes 1..l."""
    if not (1 <= i <= l):
        raise IndexError("node index out of range")
    return -1 if i % 2 == 0 else 1


class _NodeVector(Record):
    """An integer vector over the nodes 0..l, added, subtracted and scaled
    componentwise; each operation returns the operand's own class."""

    __slots__ = ("l", "coeffs")

    def __init__(self, l: int, coeffs: tuple):
        if l < 1 or len(coeffs) != l + 1:
            raise ValueError("coefficient vector must have length l+1")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "coeffs", coeffs)

    def __add__(self, other):
        if self.l != other.l:
            raise ValueError("rank mismatch")
        return type(self)(self.l, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if self.l != other.l:
            raise ValueError("rank mismatch")
        return type(self)(self.l, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, n: int):
        return type(self)(self.l, tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__


class RootIndex(_NodeVector):
    """An element of the positive root lattice of A_l^(1)."""

    __slots__ = ()

    @staticmethod
    def simple(l: int, i: int) -> "RootIndex":
        if not (0 <= i <= l):
            raise IndexError("simple root index out of range")
        return RootIndex(l, tuple(1 if k == i else 0 for k in range(l + 1)))

    @staticmethod
    def alpha(l: int, i: int, j: int) -> "RootIndex":
        """The finite positive root alpha_{ij} = alpha_i + ... + alpha_{j-1}."""
        if not (1 <= i < j <= l + 1):
            raise NotAPositiveRoot("finite root alpha_{ij} needs 1 <= i < j <= l+1")
        return RootIndex(l, tuple(1 if i <= k < j else 0 for k in range(l + 1)))

    @staticmethod
    def delta(l: int) -> "RootIndex":
        return RootIndex(l, (1,) * (l + 1))


def _pairing(l: int, x: tuple, y: tuple) -> int:
    """sum_ij x_i y_j a_ij over the extended Cartan matrix of rank l.

    Row i of that matrix is zero off i and its cyclic neighbours i - 1 and
    i + 1 (mod l + 1), one node at l = 1, so each nonzero x_i reads at most
    three entries: O(nnz(x)), whatever l is."""
    n = l + 1
    total = 0
    for i, xi in enumerate(x):
        if xi:
            total += xi * sum(y[j] * cartan_entry(l, i, j) for j in {i, (i - 1) % n, (i + 1) % n})
    return total


def bilinear(a: RootIndex, b: RootIndex) -> int:
    """Symmetric form (a|b) induced by the extended Cartan matrix."""
    if a.l != b.l:
        raise ValueError("rank mismatch")
    return _pairing(a.l, a.coeffs, b.coeffs)


class CartanExponent(_NodeVector):
    """Integer vector x over h_0..h_l, labelling the group-like q**(nu x)."""

    __slots__ = ()

    @staticmethod
    def h(l: int, i: int) -> "CartanExponent":
        if not (0 <= i <= l):
            raise IndexError("Cartan index out of range")
        return CartanExponent(l, tuple(1 if k == i else 0 for k in range(l + 1)))

    @staticmethod
    def zero(l: int) -> "CartanExponent":
        return CartanExponent(l, (0,) * (l + 1))

    def __neg__(self) -> "CartanExponent":
        return self * -1

    def pair_root(self, root: RootIndex) -> int:
        """The eigenvalue exponent <root, x> = sum_j x_j a_{j i} c_i."""
        if self.l != root.l:
            raise ValueError("rank mismatch")
        return _pairing(self.l, self.coeffs, root.coeffs)
