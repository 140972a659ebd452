"""The Borel generators acting on l-fold q-oscillator Fock spaces.

A single base homomorphism rho sends the Borel generators e_0 .. e_l and the
group-likes q**(nu h_i) into the l-fold q-oscillator algebra.  The whole
family of representations is generated from it by diagram twists: rotating by
powers of the cyclic symmetry sigma (e_i -> e_{i+1 mod l+1}) gives the
representations indexed by a = 1 .. l+1, and composing with the flip tau
(e_0 -> e_0, e_i -> e_{l-i+1}) gives their mirrored counterparts.  image_e
and image_qh are exactly that composition: untwisted_index maps e_i to the
row of the base homomorphism that the twists send it to.

Operator images are OscWords: a scalar times an ordered product of b, bdag
and q**(sum d_j N_j) factors.  Composite operators (q-commutators, divided
powers, Serre sums, root vectors) are hash-consed OpExpr trees over the
generators.  Evaluator applies a tree to v_m with m symbolic, as terms
c Q**v v_{m+s} with Q**v = q**(v.m) and a shift s independent of m (one
shift for a homogeneous tree).  It memoizes the nodes that can be read
again (roots, Sums, leaves, Scales, Compose factors) and streams the
products of a Sum's Compose children into the Sum's own accumulator, so a
q-commutator's two products are never stored.  A product term pairs a left
term (sl, vl) with a right term (sr, vr) as c_L c_R q**(vl.sr) at shift
sl + sr; a diagonal right term (sr = 0, such as chi, e'_delta or q**h) adds
no shift and no twist, so the kernel skips both.  A Sum child x y
followed by c y x, the shape that qcomm and chi_bracket build, is one pass
over the term pairs of x and y: both products of the pair (sx, vx), (sy, vy)
land on the key (sx + sy, vx + vy), so it adds c_x c_y (q**(vx.sy) +
c q**(vy.sx)).  With c = -q**k that cancels exactly when vx.sy - vy.sx = k,
a test on integers, so such a pair does no scalar arithmetic and adds no
key.  Whether a node acts by the zero shift only (zero_shift) is memoized
beside its terms.
terms(expr, m) specializes that at one m, exactly: specializing Q = q**m is
a ring homomorphism, and a lowering step from occupation 0 carries
[0]_q = 0, so a target outside the Fock space sums to 0 and _merge drops
it.  apply_basis is the FockState view of terms.

One lifetime rule holds for process state.  The tables of interned objects
live for the process, and nothing clears them, since a hash-consing table must
outlive every value it interned: exactfield's _VALUES with its core tables,
_MUL, _ADD and _NEG, _NODES here and the rootvectors lru_caches.  Evaluator
memos live for one command: cli.main clears _EVALUATORS before it runs one.
"""

from __future__ import annotations

import operator

from .exactfield import QRational, kappa, qfactorial, qrational_to_json
from .fock import MINUS, PLUS, FockState
from .record import Frozen, Record
from .rootsys import CartanExponent, RootIndex, cartan_entry

_ONE = QRational.one()
_ZERO = QRational.zero()  # the one zero: the hot loops test scalars by identity
_KAPPA_INV = kappa().inv()


class RepSpec(Record):
    """Which representation: rank l, index a, mirrored or not, spectral twist zs."""

    __slots__ = ("l", "a", "bar", "zs")

    def __init__(self, l: int, a: int, bar: bool = False, zs: QRational = _ONE):
        if l < 1:
            raise ValueError("need l >= 1")
        if not (1 <= a <= l + 1):
            raise ValueError("need 1 <= a <= l+1")
        if zs.is_zero():
            raise ValueError("spectral twist must be nonzero")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "bar", bar)
        object.__setattr__(self, "zs", zs)

    def pattern(self) -> tuple:
        """Slot kinds of theta_a: l-a+1 minus, then a-1 plus; mirrored, a-1 minus."""
        minus = self.a - 1 if self.bar else self.l - self.a + 1
        return (MINUS,) * minus + (PLUS,) * (self.l - minus)


def _qn_form(pattern: tuple, d: tuple) -> tuple:
    """(t0, v) with q**(sum d_j N_j) v_m = q**(t0 + v.m) v_m: q**N has the
    eigenvalue q**m on a plus slot and q**-(m+1) on a minus slot."""
    v = tuple(dj if kind == PLUS else -dj for dj, kind in zip(d, pattern))
    return sum(vj for vj, kind in zip(v, pattern) if kind != PLUS), v


def _dot(x: tuple, y: tuple) -> int:
    return sum(map(operator.mul, x, y))


def _vadd(x: tuple, y: tuple) -> tuple:
    return tuple(map(operator.add, x, y))


class OscWord(Record):
    """A scalar multiple of an ordered product of oscillator generators.

    Atoms are ('b', mode), ('bdag', mode) or ('qN', d) with d an integer
    vector over the modes; the rightmost atom acts first.
    """

    __slots__ = ("l", "coeff", "atoms")

    def __init__(self, l: int, coeff: QRational, atoms=()):
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "atoms", tuple(atoms))

    def terms(self, pattern: tuple) -> tuple:
        """This word on v_m with m symbolic: ((shift, v), c) pairs meaning the
        sum of c Q**v v_{m+shift}, Q**v = q**(v.m); a word has one shift."""
        t = [0] * self.l
        poly = {(0,) * self.l: self.coeff}
        for tag, arg in reversed(self.atoms):
            if tag == "qN":
                t0, dv = _qn_form(pattern, arg)
                k = t0 + _dot(dv, t)
                poly = {_vadd(v, dv): c.shifted(k) for v, c in poly.items()}
                continue
            j = arg - 1
            if (tag == "b") != (pattern[j] == PLUS):
                t[j] += 1
                continue
            # lowering: [m_j + t_j]_q = (Q_j q**t_j - Q_j**-1 q**-t_j) / (q - q**-1),
            # negated for bdag
            c0 = _KAPPA_INV if tag == "b" else -_KAPPA_INV
            up, down = c0.shifted(t[j]), -c0.shifted(-t[j])
            poly = dict(_merge(
                p for v, c in poly.items()
                for p in ((v[:j] + (v[j] + 1,) + v[j + 1:], c * up),
                          (v[:j] + (v[j] - 1,) + v[j + 1:], c * down))))
            t[j] -= 1
        s = tuple(t)
        return tuple(((s, v), c) for v, c in poly.items())

    def __repr__(self):
        parts = [f"({self.coeff!r})"]
        for atom in self.atoms:
            if atom[0] == "qN":
                parts.append(f"qN{list(atom[1])}")
            else:
                parts.append(f"{atom[0]}[{atom[1]}]")
        return " ".join(parts)

    def to_json(self) -> dict:
        atoms = []
        for atom in self.atoms:
            if atom[0] == "qN":
                atoms.append(["qN", list(atom[1])])
            else:
                atoms.append([atom[0], atom[1]])
        return {"coeff": qrational_to_json(self.coeff), "atoms": atoms}


def _base_e_word(l: int, i: int) -> OscWord:
    """The base homomorphism on e_i (the representation with a = l+1)."""
    if i == 0:
        # bdag_1 q**(N_2 + ... + N_l); the exponent is empty at l = 1
        atoms = [("bdag", 1)]
        if l > 1:
            atoms.append(("qN", tuple(0 if j == 0 else 1 for j in range(l))))
        return OscWord(l, QRational.one(), atoms)
    if i == l:
        # -kappa**-1 b_l q**(N_l)
        d = tuple(1 if j == l else 0 for j in range(1, l + 1))
        return OscWord(l, -kappa().inv(), (("b", l), ("qN", d)))
    # -b_i bdag_{i+1} q**(N_i - N_{i+1} - 1)
    d = tuple((1 if j == i else 0) - (1 if j == i + 1 else 0) for j in range(1, l + 1))
    return OscWord(l, -QRational.q_power(-1), (("b", i), ("bdag", i + 1), ("qN", d)))


def _base_h_vec(l: int, i: int) -> tuple:
    """The base homomorphism on h_i as a vector over N_1 .. N_l."""
    if i == 0:
        return tuple(2 if j == 1 else 1 for j in range(1, l + 1))
    if i == l:
        return tuple(-2 if j == l else -1 for j in range(1, l + 1))
    return tuple((1 if j == i + 1 else 0) - (1 if j == i else 0) for j in range(1, l + 1))


def untwisted_index(i: int, spec: RepSpec) -> int:
    """The base-homomorphism row that the diagram twists send e_i to.

    theta_a reads row sigma**-a(i); its mirrored partner reads row
    tau(sigma**(1-a)(i)).
    """
    l, a = spec.l, spec.a
    if not spec.bar:
        return (i - a) % (l + 1)
    k = (i - a + 1) % (l + 1)
    return 0 if k == 0 else l - k + 1


def image_e(i: int, spec: RepSpec) -> OscWord:
    """Image of e_i: the base homomorphism composed with the diagram twists."""
    if not (0 <= i <= spec.l):
        raise IndexError("generator index out of range")
    return _base_e_word(spec.l, untwisted_index(i, spec))


def image_qh(x: CartanExponent, spec: RepSpec) -> OscWord:
    """Image of q**x as a q**(sum d_j N_j) word, through the same twists."""
    l = spec.l
    if x.l != l:
        raise ValueError("rank mismatch")
    dsum = [0] * l
    for i, ci in enumerate(x.coeffs):
        if ci:
            for j, d in enumerate(_base_h_vec(l, untwisted_index(i, spec))):
                dsum[j] += ci * d
    if any(dsum):
        return OscWord(l, QRational.one(), (("qN", tuple(dsum)),))
    return OscWord(l, QRational.one(), ())


# ---------------------------------------------------------------------------
# operator expression trees

_NODES = {}
# a root vector's tree doubles at each q-commutator level, so its repr shows
# this many levels of Sum, Scale and Compose and elides the rest
_REPR_DEPTH = 8


class OpExpr(Frozen):
    """Node of an operator expression over the Borel generators.

    Hash-consed: a node whose class and fields (the subclass's __slots__, in
    order) equal an existing node's is that node, so identity is equality.
    """

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, fields)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields, strict=True):
                object.__setattr__(node, name, value)
            _NODES[key] = node
        return node

    def __init__(self, *fields):
        """A no-op (__new__ sets the fields); perfbench's tracer counts constructions here."""

    def __reduce__(self):
        # rebuilt through __new__, so a copy or an unpickled node is the interned one
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        return self._show(_REPR_DEPTH)

    def _show(self, depth: int) -> str:
        """The repr, with Sum, Scale and Compose levels below depth shown as ...;
        a leaf prints in full."""
        raise NotImplementedError


class Gen(OpExpr):
    """A Borel generator e_i."""

    __slots__ = ("i",)

    def _show(self, depth):
        return f"e[{self.i}]"


class CartanPower(OpExpr):
    """A group-like q**x for a Cartan exponent x; the zero exponent is the identity."""

    __slots__ = ("x",)

    def _show(self, depth):
        return f"q^{list(self.x.coeffs)}"


class Sum(OpExpr):
    __slots__ = ("children",)

    def _show(self, depth):
        if not depth:
            return "..."
        return "(" + " + ".join(child._show(depth - 1) for child in self.children) + ")"


class Scale(OpExpr):
    __slots__ = ("c", "child")

    def _show(self, depth):
        if not depth:
            return "..."
        return f"({self.c!r})*{self.child._show(depth - 1)}"


class Compose(OpExpr):
    """left after right: (left*right) v = left (right v)."""

    __slots__ = ("left", "right")

    def _show(self, depth):
        if not depth:
            return "..."
        return f"{self.left._show(depth - 1)}*{self.right._show(depth - 1)}"


def identity(l: int) -> OpExpr:
    return CartanPower(CartanExponent.zero(l))


def power(expr: OpExpr, k: int, l: int) -> OpExpr:
    if k < 0:
        raise ValueError("operator powers must be >= 0")
    if k == 0:
        return identity(l)
    out = expr
    for _ in range(k - 1):
        out = Compose(out, expr)
    return out


class Evaluator:
    """Applies operator expressions in one fixed representation.

    symbolic(expr) is expr on v_m with m symbolic.  Nodes are interned, so a
    rebuilt tree is the same key.  The memo (_cache) holds each node that is
    evaluated on its own, once: roots, Sums, leaves, Scales and Compose
    factors.  A Sum's children Compose(L, R) and Scale(c, Compose(L, R)),
    such as a q-commutator's two products, are streamed instead: the Sum adds
    the products of the memoized L and R straight into its own sum, and they
    get no memo entry (one shared by several Sums is multiplied out in each).
    In a product, a right term of the zero shift keeps the left term's shift
    and needs no twist q**(vl.sr); any other takes the twist as an exponent
    add (QRational.shifted).  A child Compose(x, y) followed by
    Scale(c, Compose(y, x)), matched by node identity, is one pass over the
    term pairs of x and y: the pair adds c_x c_y (q**(vx.sy) + c q**(vy.sx)),
    and with c = -q**k a pair whose integer exponents give vx.sy - vy.sx = k
    cancels and is skipped (see _sum).  zero_shift(expr) is memoized in
    _zero_shift.  terms(expr, m) specializes symbolic(expr) at one basis
    vector, and apply_basis wraps the pairs in a FockState.
    """

    def __init__(self, spec: RepSpec):
        self.spec = spec
        self.pattern = spec.pattern()
        self._e_words = tuple(image_e(i, spec) for i in range(spec.l + 1))
        self._cache = {}
        self._zero_shift = {}

    def symbolic(self, expr: OpExpr) -> tuple:
        """expr on v_m with m symbolic, in the form of OscWord.terms; no c is zero."""
        out = self._cache.get(expr)
        if out is not None:
            return out
        kind = type(expr)
        if kind is Sum:
            out = self._sum(expr.children)
        elif kind is Compose:
            out = self._sum((expr,))
        elif kind is Scale:
            c = expr.c
            out = () if c is _ZERO else tuple((k, c * x) for k, x in self.symbolic(expr.child))
        elif kind is Gen:
            out = self._e_words[expr.i].terms(self.pattern)
        elif kind is CartanPower:
            out = image_qh(expr.x, self.spec).terms(self.pattern)
        else:
            raise TypeError(f"unknown operator node {kind.__name__}")
        self._cache[expr] = out
        return out

    def _sum(self, children) -> tuple:
        """The sum of children in one accumulator.  A child Compose(L, R) or
        Scale(c, Compose(L, R)) is streamed: its products are added here and
        it gets no memo entry.  Every other child is read through symbolic.

        A child Compose(x, y) followed by Scale(c, Compose(y, x)), c nonzero,
        is streamed as one pass over the term pairs of x and y.  Both
        products of a pair (sx, vx, c_x), (sy, vy, c_y) land on the key
        (sx + sy, vx + vy), so the pair adds c_x c_y (q**a + c q**b) with
        a = vx.sy and b = vy.sx: one product c_x c_y, one c_x (c c_y) and
        two exponent adds.  When c = -q**k the pair cancels exactly when
        a - b = k, so it is skipped on that integer test, with no scalar
        arithmetic and no key.  As for any product, y is read first and x
        not at all when y gives no terms."""
        acc = {}
        i, n = 0, len(children)
        while i < n:
            child = children[i]
            i += 1
            c = None
            if type(child) is Scale and type(child.child) is Compose:
                c, child = child.c, child.child
                if c is _ZERO:
                    continue
            if type(child) is not Compose:
                for k, x in self.symbolic(child):
                    y = acc.get(k)
                    acc[k] = x if y is None else y + x
                continue
            # the left factor acts on v_{m+sr}, where its Q**vl reads q**(vl.(m+sr));
            # it is read once, and not at all when the right factor gives 0
            right = self.symbolic(child.right)
            pair = children[i] if c is None and i < n else None
            fused = (type(pair) is Scale and pair.c is not _ZERO and type(pair.child) is Compose
                     and pair.child.left is child.right and pair.child.right is child.left)
            if fused:
                i += 1
            if not right:
                continue
            left = self.symbolic(child.left)
            if fused:
                # x y + c y x in one pass over the term pairs; kc is the k of
                # c = -q**k, or None, which no integer a - b equals
                c = pair.c
                kc = (-c).as_q_power()
                for (sy, vy), cy in right:
                    ccy = c * cy if kc is None else -cy.shifted(kc)
                    for (sx, vx), cx in left:
                        a, b = _dot(vx, sy), _dot(vy, sx)
                        if a - b == kc:
                            continue
                        k = (_vadd(sx, sy), _vadd(vx, vy))
                        x = (cx * cy).shifted(a) + (cx * ccy).shifted(b)
                        y = acc.get(k)
                        acc[k] = x if y is None else y + x
                continue
            for (sr, vr), cr in right:
                if c is not None:
                    cr = c * cr
                if any(sr):
                    for (sl, vl), cl in left:
                        k = (_vadd(sl, sr), _vadd(vl, vr))
                        x = (cl * cr).shifted(_dot(vl, sr))
                        y = acc.get(k)
                        acc[k] = x if y is None else y + x
                    continue
                # a diagonal right factor: the shift is sl and the twist q**0
                for (sl, vl), cl in left:
                    k = (sl, _vadd(vl, vr))
                    x = cl * cr
                    y = acc.get(k)
                    acc[k] = x if y is None else y + x
        return tuple((k, x) for k, x in acc.items() if x is not _ZERO)

    def zero_shift(self, expr: OpExpr) -> bool:
        """expr acts with m symbolic by terms of the zero shift only; any two
        such operators commute, as their terms c Q**v are polynomials in Q.
        Memoized in _zero_shift, a function of the memoized symbolic(expr)."""
        out = self._zero_shift.get(expr)
        if out is None:
            out = self._zero_shift[expr] = not any(any(s) for (s, _), _ in self.symbolic(expr))
        return out

    def terms(self, expr: OpExpr, m: tuple) -> tuple:
        """expr v_m as (target, coefficient) pairs: distinct targets, no zero coefficient."""
        return _merge((_vadd(m, s), c.shifted(_dot(v, m))) for (s, v), c in self.symbolic(expr))

    def apply_basis(self, expr: OpExpr, m: tuple) -> FockState:
        """expr v_m as a FockState: the view of terms(expr, m)."""
        return FockState(self.spec.l, dict(self.terms(expr, m)))


def _merge(pairs) -> tuple:
    """Sparse sum of (target, coefficient) pairs: equal targets add, zero sums drop."""
    acc = {}
    for t, x in pairs:
        y = acc.get(t)
        acc[t] = x if y is None else y + x
    return tuple((t, x) for t, x in acc.items() if x is not _ZERO)


_EVALUATORS = {}


def get_evaluator(spec: RepSpec) -> Evaluator:
    """Shared evaluator per (l, a, bar); the spectral twist never acts here."""
    key = (spec.l, spec.a, spec.bar)
    ev = _EVALUATORS.get(key)
    if ev is None:
        ev = Evaluator(RepSpec(spec.l, spec.a, spec.bar))
        _EVALUATORS[key] = ev
    return ev


def _vanishes_on(spec: RepSpec, expr: OpExpr, samples) -> bool:
    """expr specializes to no terms on every sample basis vector.  The
    samples are iterated at most once, and none is a ValueError: a check of
    nothing must not pass.

    Decided with m symbolic first: terms(expr, m) only specializes
    symbolic(expr), so an empty symbolic result vanishes on every vector
    and reads no sample but the first.  A nonempty one can still vanish on
    every sample (a lowering from occupation 0), so then the samples decide."""
    samples = iter(samples)
    if (first := next(samples, None)) is None:
        raise ValueError("need at least one sample basis vector")
    ev = get_evaluator(spec)
    if not ev.symbolic(expr):
        return True
    return not ev.terms(expr, first) and not any(ev.terms(expr, m) for m in samples)


def serre_sum(l: int, i: int, j: int) -> OpExpr:
    """The q-Serre sum for the pair (i, j), a tree that must vanish."""
    if i == j:
        raise ValueError("Serre relation needs i != j")
    n = 1 - cartan_entry(l, i, j)
    terms = []
    for k in range(n + 1):
        c = (qfactorial(n - k) * qfactorial(k)).inv()
        if k % 2:
            c = -c
        expr = Compose(power(Gen(i), n - k, l), Compose(Gen(j), power(Gen(i), k, l)))
        terms.append(Scale(c, expr))
    return Sum(tuple(terms))


def serre_check(i: int, j: int, spec: RepSpec, samples) -> bool:
    """The q-Serre sum for the pair (i, j) vanishes on sample basis vectors."""
    return _vanishes_on(spec, serre_sum(spec.l, i, j), samples)


def weight_relation_check(i: int, x: CartanExponent, spec: RepSpec, samples) -> bool:
    """q**x e_i q**(-x) - q**<alpha_i, x> e_i vanishes on sample basis vectors."""
    c = -QRational.q_power(x.pair_root(RootIndex.simple(spec.l, i)))
    diff = Sum((Compose(CartanPower(x), Compose(Gen(i), CartanPower(-x))), Scale(c, Gen(i))))
    return _vanishes_on(spec, diff, samples)
