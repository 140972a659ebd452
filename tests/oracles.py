"""Independent second implementations that the tests compare qloop against.

- Explicit generator tables: the image of every e_i and q**h_i written out
  per (a, bar) branch, where qloop derives them from one base homomorphism
  through the diagram twists (borelrep.image_e, borelrep.image_qh).
- Mode-by-mode Fock action: each oscillator generator applied to a state one
  tensor slot at a time, where qloop applies a whole word to a basis vector
  (borelrep.OscWord.apply_basis).
- Specialization at an integer q: an operator tree applied with every scalar
  a fractions.Fraction, through the explicit tables and the mode-by-mode
  action, where qloop computes over Q(q) (borelrep.Evaluator).  It checks the
  scalar layer from outside the field.
"""

from fractions import Fraction

from qloop.borelrep import (CartanPower, Compose, Gen, OscWord, RepSpec, Scale,
                            Sum, image_e, image_qh)
from qloop.exactfield import QRational, kappa, qnum
from qloop.fock import PLUS, FockState, ModePattern
from qloop.rootsys import CartanExponent

# ------------------------------------------------------ explicit image tables


def _pair_word(l: int, k: int) -> OscWord:
    # -b_k bdag_{k+1} q**(N_k - N_{k+1} - 1)
    d = tuple((1 if j == k else 0) - (1 if j == k + 1 else 0) for j in range(1, l + 1))
    return OscWord(l, -QRational.q_power(-1), (("b", k), ("bdag", k + 1), ("qN", d)))


def _creation_word(l: int) -> OscWord:
    # bdag_1 q**(N_2 + ... + N_l); the exponent is empty at l = 1
    atoms = [("bdag", 1)]
    if l > 1:
        atoms.append(("qN", tuple(0 if j == 0 else 1 for j in range(l))))
    return OscWord(l, QRational.one(), atoms)


def _kappa_word(l: int) -> OscWord:
    # -kappa**-1 b_l q**(N_l)
    d = tuple(1 if j == l else 0 for j in range(1, l + 1))
    return OscWord(l, -kappa().inv(), (("b", l), ("qN", d)))


def table_image_e(i: int, spec: RepSpec) -> OscWord:
    """Image of e_i from the explicit per-representation tables.

    Branch membership is decided modulo l+1, so the edge representations
    a = 1 and a = l+1 read their wrapped rows correctly.
    """
    l, a = spec.l, spec.a
    r = (i - a) % (l + 1)
    if not spec.bar:
        if r == 0:
            return _creation_word(l)
        if r == l:
            return _kappa_word(l)
        if i <= a - 2:
            return _pair_word(l, l + i - a + 1)
        return _pair_word(l, i - a)
    if r == 0:
        return _kappa_word(l)
    if r == l:
        return _creation_word(l)
    if i <= a - 2:
        return _pair_word(l, a - i - 1)
    return _pair_word(l, l + a - i)


def table_image_qh(x: CartanExponent, spec: RepSpec) -> OscWord:
    """Image of q**x as a q**(sum d_j N_j) word, from the explicit tables."""
    l, a = spec.l, spec.a
    dsum = [0] * l

    def hvec(i: int) -> tuple:
        r = (i - a) % (l + 1)
        if not spec.bar:
            if r == 0:
                return tuple(2 if j == 1 else 1 for j in range(1, l + 1))
            if r == l:
                return tuple(-2 if j == l else -1 for j in range(1, l + 1))
            k = l + i - a + 1 if i <= a - 2 else i - a
            return tuple((1 if j == k + 1 else 0) - (1 if j == k else 0) for j in range(1, l + 1))
        if r == 0:
            return tuple(-2 if j == l else -1 for j in range(1, l + 1))
        if r == l:
            return tuple(2 if j == 1 else 1 for j in range(1, l + 1))
        k = a - i - 1 if i <= a - 2 else l + a - i
        return tuple((1 if j == k + 1 else 0) - (1 if j == k else 0) for j in range(1, l + 1))

    for i, ci in enumerate(x.coeffs):
        if ci:
            for j, d in enumerate(hvec(i)):
                dsum[j] += ci * d
    if any(dsum):
        return OscWord(l, QRational.one(), (("qN", tuple(dsum)),))
    return OscWord(l, QRational.one(), ())


def twist_consistency(l: int, a: int, bar: bool, i: int) -> bool:
    """The explicit tables agree word for word with qloop's twisted base images."""
    spec = RepSpec(l, a, bar)
    if table_image_e(i, spec) != image_e(i, spec):
        return False
    x = CartanExponent.h(l, i)
    return table_image_qh(x, spec) == image_qh(x, spec)


# ------------------------------------------------- mode-by-mode Fock action


def _mode_on_basis(op, mode: int, kind: str, m: tuple):
    """Action of one oscillator generator on one basis vector.

    Returns (coefficient, new occupation vector) or None when the vector is
    annihilated.  op is 'b', 'bdag', or ('qN', k) for q**(k N).
    """
    j = mode - 1
    mj = m[j]
    if op == "b":
        if kind == PLUS:
            if mj == 0:
                return None
            return qnum(mj), m[:j] + (mj - 1,) + m[j + 1:]
        return QRational.one(), m[:j] + (mj + 1,) + m[j + 1:]
    if op == "bdag":
        if kind == PLUS:
            return QRational.one(), m[:j] + (mj + 1,) + m[j + 1:]
        if mj == 0:
            return None
        return -qnum(mj), m[:j] + (mj - 1,) + m[j + 1:]
    tag, k = op
    if tag != "qN":
        raise ValueError(f"unknown oscillator generator {op!r}")
    t = k * mj if kind == PLUS else -k * (mj + 1)
    return QRational.q_power(t), m


def apply_mode(op, mode: int, pattern: ModePattern, state: FockState) -> FockState:
    """Apply b, bdag or q**(k N) in one tensor slot to a state."""
    if not (1 <= mode <= pattern.l):
        raise IndexError("mode out of range")
    if state.l != pattern.l:
        raise ValueError("rank mismatch")
    kind = pattern.kinds[mode - 1]
    out = {}
    for m, c in state.items():
        hit = _mode_on_basis(op, mode, kind, m)
        if hit is None:
            continue
        coeff, m2 = hit
        acc = out.get(m2)
        out[m2] = coeff * c if acc is None else acc + coeff * c
    return FockState(pattern.l, out)


# ------------------------------------------------ specialization at integer q


def specialize(x: QRational, q: int) -> Fraction:
    """num(q) / den(q) for a QRational x."""
    return (Fraction(sum(c * q ** k for k, c in enumerate(x.num)))
            / sum(c * q ** k for k, c in enumerate(x.den)))


def _qnum_at(n: int, q: Fraction) -> Fraction:
    # [n]_q = (q**n - q**-n) / (q - q**-1)
    return (q ** n - q ** -n) / (q - 1 / q)


def _word_at(word: OscWord, pattern: ModePattern, m: tuple, q: int):
    """An image word on v_m at the integer q, one atom and one slot at a time:
    (Fraction, occupation vector) or None when v_m is annihilated."""
    coeff = specialize(word.coeff, q)
    q = Fraction(q)
    for atom in reversed(word.atoms):
        if atom[0] == "qN":
            for j, k in enumerate(atom[1]):
                t = k * m[j] if pattern.kinds[j] == PLUS else -k * (m[j] + 1)
                coeff *= q ** t
            continue
        op, mode = atom
        j = mode - 1
        mj = m[j]
        raising = (op == "bdag") == (pattern.kinds[j] == PLUS)
        if raising:
            m = m[:j] + (mj + 1,) + m[j + 1:]
            continue
        if mj == 0:
            return None
        coeff *= _qnum_at(mj, q) if op == "b" else -_qnum_at(mj, q)
        m = m[:j] + (mj - 1,) + m[j + 1:]
    return coeff, m


def apply_at(expr, spec: RepSpec, m: tuple, q: int, memo: dict) -> dict:
    """expr on v_m as {occupation vector: Fraction} with q a fixed integer.

    Generators and group-likes come from the explicit tables; memo maps
    (node, m) to results and is owned by the caller.
    """
    key = (expr, m)
    if key in memo:
        return memo[key]
    pattern = spec.pattern()
    if isinstance(expr, (Gen, CartanPower)):
        word = table_image_e(expr.i, spec) if isinstance(expr, Gen) else table_image_qh(expr.x, spec)
        hit = _word_at(word, pattern, m, q)
        out = {} if hit is None else {hit[1]: hit[0]}
    elif isinstance(expr, Scale):
        c = specialize(expr.c, q)
        out = {v: c * x for v, x in apply_at(expr.child, spec, m, q, memo).items()}
    elif isinstance(expr, Sum):
        out = {}
        for child in expr.children:
            for v, x in apply_at(child, spec, m, q, memo).items():
                out[v] = out.get(v, 0) + x
    elif isinstance(expr, Compose):
        out = {}
        for v, x in apply_at(expr.right, spec, m, q, memo).items():
            for w, y in apply_at(expr.left, spec, v, q, memo).items():
                out[w] = out.get(w, 0) + x * y
    else:
        raise TypeError(f"unknown operator node {type(expr).__name__}")
    out = {v: x for v, x in out.items() if x}
    memo[key] = out
    return out
