"""Independent second implementations that the tests compare qloop against.

- Explicit generator tables: the image of every e_i and q**h_i written out
  per (a, bar) branch, where qloop derives them from one base homomorphism
  through the diagram twists (borelrep.image_e, borelrep.image_qh).
- Mode-by-mode Fock action: each oscillator generator applied to a state one
  tensor slot at a time, where qloop applies a whole word to v_m with m
  symbolic (borelrep.OscWord.terms).
- Specialization at an integer q: an operator tree applied with every scalar
  a fractions.Fraction, through the explicit tables and the mode-by-mode
  action, where qloop computes over Q(q) (borelrep.Evaluator).  It checks the
  scalar layer from outside the field.
- Symbolic action node by node: every Compose, Scale and Sum of a tree
  evaluated and kept on its own (symbolic_by_nodes), where qloop streams a
  Sum's products into one accumulator, evaluates a q-commutator pair
  x y + c y x in one pass over term pairs, skipping the pairs that cancel on
  their integer exponents, and keeps only the nodes read again
  (borelrep.Evaluator.symbolic).
- The weight table: lambda_{m, a} typed in per module, where qloop reads it
  off Psi_i(0) (lweights.oscillator_lweight(spec, m).weight).
- The checks decided at one m at a time: per basis vector, the exponent of
  every q**h_j (qh_exponent) against the closed weight at that m, and the
  operator series built from e'_{n delta} applied to v_m (phi_series_at)
  against the closed Psi_i multiplied out and expanded, where qloop builds
  each check once with m symbolic and specializes what differs
  (lweights.VectorChecks, lweights.phi_series).
- The series truncated through an order with m symbolic: the operator
  series from every e'_{n delta} tree (_operator_series) and the closed
  Psi_i expanded factor by factor (_poly_series), where qloop sums the
  e'_{n delta} by the level-geometric lemma and compares the two sides as
  fractions to all orders (lweights._operator_fraction).
- The unprimed imaginary root vectors e_{n delta, alpha_i} as the expanded
  logarithm, a sum over all 2**(n-1) ordered compositions of n
  (e_unprimed_by_compositions), where qloop builds them by the
  log-derivative recursion (rootvectors.e_unprimed_imag).
- The dual real root vectors e_{delta - alpha_ij} as one nested chain,
  climbed from e_0 through e_l .. e_j and then e_1 .. e_{i-1}
  (e_dual_nested), where qloop brackets two shared chains, [P_i, S_j]_q
  (rootvectors.e_dual).
- The prefundamental factorizations' right sides as one product per
  identity, multiplicities merged in a dict (factor_rhs_by_products), where
  qloop keeps one running product per family and call and twists it per
  identity (lweights.factor_sides).
- Catalog roots cancelled as scalars: every factor q**c zeff of
  lweights._psi_forms built first and equal roots merged afterwards
  (psi_roots_by_scalars), where qloop merges the integer exponents c
  (lweights._psi_roots); and l-weight products merged node by node over all
  factors at once (lweight_product_at_once), where qloop folds each later
  factor's nonempty nodes into the first factor's (lweights.lweight_product).
- A twist applied node by node: every node of an l-weight visited and each
  of its roots scaled (twisted_by_nodes), where qloop visits only the
  nonempty nodes (lweights.LWeight.twisted).
- State arithmetic that qloop does not need: sums, differences, scalar
  multiples and coefficients of FockStates.
- Algebra in u that qloop does not need: truncated series sums,
  differences, products, inverses and truncation, with num * inverse(den)
  as the reference for URational.expand; the substitution u -> c u, the
  degrees and constant term of a URational, the formal logarithm, the gcd
  over Q(q)[u] (reduced) and Pade reconstruction.
"""

import itertools
from fractions import Fraction

from qloop import lweights
from qloop.borelrep import (CartanPower, Compose, Gen, OscWord, RepSpec, Scale,
                            Sum, _dot, _vadd, get_evaluator, image_e, image_qh)
from qloop.exactfield import (QRational, URational, USeries, ZeroConstantTerm,
                              _utrim, kappa, qnum, qrational_to_json)
from qloop.fock import PLUS, FockState
from qloop.lweights import NotDiagonal, Weight, discrepancy
from qloop.rootsys import CartanExponent, RootIndex, o_sign
from qloop.rootvectors import e_prime_imag, qcomm

_ZERO = QRational.zero()

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


def apply_mode(op, mode: int, pattern: tuple, state: FockState) -> FockState:
    """Apply b, bdag or q**(k N) in one tensor slot, of the kind pattern gives, to a state."""
    if not (1 <= mode <= len(pattern)):
        raise IndexError("mode out of range")
    if state.l != len(pattern):
        raise ValueError("rank mismatch")
    kind = pattern[mode - 1]
    out = {}
    for m, c in state.items():
        hit = _mode_on_basis(op, mode, kind, m)
        if hit is None:
            continue
        coeff, m2 = hit
        acc = out.get(m2)
        out[m2] = coeff * c if acc is None else acc + coeff * c
    return FockState(state.l, out)


def apply_word(word: OscWord, pattern: tuple, state: FockState) -> FockState:
    """Apply a word to a state atom by atom, each q**(dN) one slot at a time."""
    for atom in reversed(word.atoms):
        if atom[0] == "qN":
            for j, d in enumerate(atom[1]):
                if d:
                    state = apply_mode(("qN", d), j + 1, pattern, state)
        else:
            state = apply_mode(atom[0], atom[1], pattern, state)
    return state_scale(state, word.coeff)


def state_coefficient(state: FockState, m) -> QRational:
    """The coefficient of v_m in a state."""
    return dict(state.items()).get(tuple(m), _ZERO)


def state_scale(state: FockState, c: QRational) -> FockState:
    """c times a state; FockState drops the zero coefficients."""
    return FockState(state.l, {m: c * x for m, x in state.items()})


def state_add(a: FockState, b: FockState) -> FockState:
    """The sum of two states of one rank."""
    if a.l != b.l:
        raise ValueError("rank mismatch")
    terms = dict(a.items())
    for m, c in b.items():
        terms[m] = terms[m] + c if m in terms else c
    return FockState(a.l, terms)


def state_sub(a: FockState, b: FockState) -> FockState:
    """The difference of two states of one rank."""
    return state_add(a, state_scale(b, QRational.from_int(-1)))


# ------------------------------------------------ specialization at integer q


def specialize(x: QRational, q: int) -> Fraction:
    """num(q) / den(q) for a QRational x."""
    return (Fraction(sum(c * q ** k for k, c in enumerate(x.num)))
            / sum(c * q ** k for k, c in enumerate(x.den)))


def _qnum_at(n: int, q: Fraction) -> Fraction:
    # [n]_q = (q**n - q**-n) / (q - q**-1)
    return (q ** n - q ** -n) / (q - 1 / q)


def _word_at(word: OscWord, pattern: tuple, m: tuple, q: int):
    """An image word on v_m at the integer q, one atom and one slot at a time:
    (Fraction, occupation vector) or None when v_m is annihilated."""
    coeff = specialize(word.coeff, q)
    q = Fraction(q)
    for atom in reversed(word.atoms):
        if atom[0] == "qN":
            for j, k in enumerate(atom[1]):
                t = k * m[j] if pattern[j] == PLUS else -k * (m[j] + 1)
                coeff *= q ** t
            continue
        op, mode = atom
        j = mode - 1
        mj = m[j]
        raising = (op == "bdag") == (pattern[j] == PLUS)
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


# ------------------------------------------------ symbolic action node by node


def _merge_into(acc: dict, pairs) -> None:
    """Add (key, coefficient) pairs into acc; zero sums stay until the caller drops them."""
    for k, x in pairs:
        acc[k] = acc[k] + x if k in acc else x


def symbolic_by_nodes(ev, expr, memo=None) -> dict:
    """expr on v_m with m symbolic as {(shift, v): c}, evaluated node by node.

    Every Compose, Scale and Sum is its own result: a Compose multiplies its
    factors' results, a Scale scales its child's and a Sum merges its
    children's, each dropping zero sums.  qloop instead streams a Sum's
    Compose children into one accumulator and fuses a q-commutator pair
    (Evaluator.symbolic).  memo maps nodes to results and is owned by the
    caller; ev is read only for its representation.
    """
    if memo is None:
        memo = {}
    out = memo.get(expr)
    if out is not None:
        return out
    out = {}
    if isinstance(expr, Gen):
        _merge_into(out, image_e(expr.i, ev.spec).terms(ev.pattern))
    elif isinstance(expr, CartanPower):
        _merge_into(out, image_qh(expr.x, ev.spec).terms(ev.pattern))
    elif isinstance(expr, Scale):
        _merge_into(out, ((k, expr.c * x) for k, x in symbolic_by_nodes(ev, expr.child, memo).items()))
    elif isinstance(expr, Sum):
        for child in expr.children:
            _merge_into(out, symbolic_by_nodes(ev, child, memo).items())
    elif isinstance(expr, Compose):
        # the left factor acts on v_{m+sr}: its Q**vl reads q**(vl.(m+sr))
        left = symbolic_by_nodes(ev, expr.left, memo)
        right = symbolic_by_nodes(ev, expr.right, memo)
        _merge_into(out, (
            ((tuple(map(sum, zip(sl, sr))), tuple(map(sum, zip(vl, vr)))),
             cl * cr * QRational.q_power(sum(a * b for a, b in zip(vl, sr))))
            for (sr, vr), cr in right.items() for (sl, vl), cl in left.items()))
    else:
        raise TypeError(f"unknown operator node {type(expr).__name__}")
    out = {k: x for k, x in out.items() if x}
    memo[expr] = out
    return out


# ------------------------------------- unprimed imaginary roots by compositions


def _compositions(n: int):
    """Ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def e_unprimed_by_compositions(l: int, i: int, n: int):
    """e_{n delta, alpha_i} from -kappa E(u) = log(1 - kappa E'(u)) expanded:

        e_{n delta} = sum_{j >= 1} (kappa**(j-1) / j)
                      sum_{k_1 + ... + k_j = n} e'_{k_1 delta} ... e'_{k_j delta},

    the inner sum over ordered compositions, 2**(n-1) products in all."""
    terms = []
    for comp in _compositions(n):
        expr = e_prime_imag(l, i, i + 1, comp[0])
        for k in comp[1:]:
            expr = Compose(expr, e_prime_imag(l, i, i + 1, k))
        terms.append(Scale(kappa() ** (len(comp) - 1) / QRational.from_int(len(comp)), expr))
    return Sum(tuple(terms))


# ------------------------------------------------------ dual roots by one chain


def e_dual_nested(l: int, i: int, j: int):
    """e_{delta - alpha_ij} as one chain seeded by e_0 = e_{delta - theta}:
    [e_k, e_{delta - alpha_{1,k+1}}]_q for k = l .. j, then
    [e_k, e_{delta - alpha_{k,j}}]_q for k = 1 .. i-1."""
    delta = RootIndex.delta(l)
    expr = Gen(0)
    for k in range(l, j - 1, -1):
        cur = delta - RootIndex.alpha(l, 1, k + 1)
        expr = qcomm(Gen(k), RootIndex.simple(l, k), expr, cur)
    for k in range(1, i):
        cur = delta - RootIndex.alpha(l, k, j)
        expr = qcomm(Gen(k), RootIndex.simple(l, k), expr, cur)
    return expr


# ------------------------------------------------------------- weight table


def _msum(m: tuple, lo: int, hi: int) -> int:
    """m_lo + ... + m_hi, 1-indexed and inclusive; empty when lo > hi."""
    return sum(m[j - 1] for j in range(lo, hi + 1))


def table_lambda(spec: RepSpec, m: tuple) -> Weight:
    """The weight lambda_{m, a} of v_m, typed in per module; the mirrored
    weight is iota(lambda_{m, l-a+2}), its omega reversed."""
    l = spec.l
    if spec.bar:
        return Weight(l, table_lambda(RepSpec(l, l - spec.a + 2), m).omega[::-1])
    a = spec.a
    c = [0] * (l + 1)
    if a == 1:
        c[1] = -(2 * m[0] + _msum(m, 2, l) + l + 1)
        for i in range(2, l + 1):
            c[i] = -(m[i - 1] - m[i - 2])
    elif a == l + 1:
        for i in range(1, l):
            c[i] = m[i] - m[i - 1]
        c[l] = -(_msum(m, 1, l - 1) + 2 * m[l - 1])
    else:
        for i in range(1, a - 1):
            c[i] = m[l + i - a + 1] - m[l + i - a]
        for i in range(a + 1, l + 1):
            c[i] = -(m[i - a] - m[i - a - 1])
        c[a - 1] = (
            _msum(m, 1, l - a + 1) - _msum(m, l - a + 2, l - 1) - 2 * m[l - 1] + l - a + 1
        )
        c[a] = -(2 * m[0] + _msum(m, 2, l - a + 1) - _msum(m, l - a + 2, l) + l - a + 2)
    return Weight(l, tuple(c[1:]))


# ------------------------------------------------------ factorization sides


def factor_rhs_by_products(l: int, kind: str, i: int, zs: QRational) -> lweights.LWeight:
    """The right side of pref-minus[i] or pref-plus[i]: the product of theta_b
    twisted by q**(l+i-2b+1) zs over b = 1 .. i or b = i+1 .. l+1, each factor
    built and twisted on its own and their roots merged here."""
    bs = range(1, i + 1) if kind == "pref-minus" else range(i + 1, l + 2)
    omega = [0] * l
    mult = [{} for _ in range(l)]
    for b in bs:
        z = QRational.q_power(l + i - 2 * b + 1) * zs
        lw = lweights.oscillator_lweight(RepSpec(l, b, False, z))
        omega = [x + y for x, y in zip(omega, lw.weight.omega)]
        for node, roots in zip(mult, lw.roots):
            for x, k in roots:
                node[x] = node.get(x, 0) + k
    return lweights.LWeight(Weight(l, tuple(omega)), tuple(
        frozenset((x, k) for x, k in node.items() if k) for node in mult))


# --------------------------------------------- catalog roots and products


def _merged(pairs) -> frozenset:
    """(x, k) pairs with equal x added; zero multiplicities drop out."""
    mult = {}
    for x, k in pairs:
        mult[x] = mult.get(x, 0) + k
    return frozenset((x, k) for x, k in mult.items() if k)


def psi_roots_by_scalars(i: int, spec: RepSpec, m: tuple) -> tuple:
    """(e0, roots) of Psi_i on v_m: each uncancelled factor of
    lweights._psi_forms made the scalar q**c zeff, then equal scalars merged."""
    s = tuple(itertools.accumulate(m, initial=0))
    e0, pairs, zeff = lweights._psi_forms(i, spec, s)
    return e0, _merged((QRational.q_power(c) * zeff, k) for c, k in pairs)


def node_product(*nodes) -> frozenset:
    """One node of a product: a node that at most one factor fills passes
    through unchanged, else all the factors' roots merged at once."""
    full = [node for node in nodes if node]
    return _merged(itertools.chain.from_iterable(full)) if len(full) > 1 else (full or nodes)[0]


def lweight_product_at_once(*factors) -> lweights.LWeight:
    """The product of l-weights: weights added, every node merged over all
    factors in one pass (node_product)."""
    omega = [sum(col) for col in zip(*(f.weight.omega for f in factors))]
    return lweights.LWeight(Weight(len(omega), tuple(omega)),
                            tuple(map(node_product, *(f.roots for f in factors))))


def twisted_by_nodes(lw: lweights.LWeight, z: QRational) -> lweights.LWeight:
    """The l-weight at u -> z u: every node visited, each root x made z x."""
    return lweights.LWeight(lw.weight, tuple(
        frozenset((x * z, k) for x, k in node) for node in lw.roots))


# ------------------------------------------------------ per-m series checks


def qh_exponent(ev, x: CartanExponent, m: tuple) -> int:
    """Integer t with q**x v_m = q**t v_m."""
    ((_, c),) = ev.terms(CartanPower(x), m)
    return c.as_q_power()


def phi_series_at(i: int, spec: RepSpec, m: tuple, order: int) -> USeries:
    """The eigenvalue series of phi_i(u) on v_m, each e'_{n delta, alpha_i}
    applied to v_m itself; NotDiagonal as lweights.phi_series raises it."""
    l = spec.l
    ev = get_evaluator(spec)
    c0 = QRational.q_power(qh_exponent(ev, CartanExponent.h(l, i), m))
    kc0 = kappa() * c0
    coeffs = [c0]
    for n in range(1, order + 1):
        pairs = ev.terms(lweights.e_prime_imag(l, i, i + 1, n), m)
        off = [p for p in pairs if p[0] != m]
        if off:
            raise NotDiagonal(spec, i, n, m, off)
        s = pairs[0][1] if pairs else _ZERO
        c = kc0 * s
        coeffs.append(c if _phi_sign(i, l, n) > 0 else -c)
    series = USeries(order, coeffs)
    if spec.zs != QRational.one():
        series = scale_var(series, spec.zs)
    return series


def _add_term(poly: dict, v: tuple, c: QRational) -> None:
    """poly += c Q**v, in place; a zero sum drops out."""
    s = poly[v] + c if v in poly else c
    if s:
        poly[v] = s
    else:
        poly.pop(v, None)


def _phi_sign(i: int, l: int, n: int) -> int:
    """The sign of kappa q**h_i e'_{n delta, alpha_i} u**n in phi_i(u)."""
    return (-1) ** (n + 1) * o_sign(i, l) ** n


def _operator_series(ev, spec: RepSpec, i: int, order: int) -> tuple:
    """phi_i(u) = q**h_i (1 - kappa e'_{delta, alpha_i}(-o_i zs u)) on v_m, m
    symbolic, through u**order, from every e'_{n delta, alpha_i} tree:
    (series, off), one Laurent polynomial {v: c} in Q = q**m per power of u
    for the action back onto v_m, and the n whose e'_{n delta} also has a
    term with a nonzero shift."""
    l = spec.l
    (((_, vh), ch),) = ev.symbolic(CartanPower(CartanExponent.h(l, i)))
    series = [{vh: ch}]
    off = []
    scale = kappa() * ch
    for n in range(1, order + 1):
        scale = scale * spec.zs
        terms = ev.symbolic(lweights.e_prime_imag(l, i, i + 1, n))
        if any(any(s) for (s, _), _ in terms):
            off.append(n)
        c = scale if _phi_sign(i, l, n) > 0 else -scale
        poly = {}
        for (s, v), x in terms:
            if not any(s):
                _add_term(poly, _vadd(v, vh), c * x)
        series.append(poly)
    return series, off


def _poly_series(e0, pairs, zeff: QRational, order: int) -> list:
    """The closed Psi_i with m symbolic (lweights._symbolic_forms), expanded
    through u**order.

    One Laurent polynomial {v: c} in Q = q**m per power of u: q**e0 is
    q**e0.c Q**e0.v and a root is zeff q**c.c Q**c.v.  Each factor
    multiplies (k = 1) or divides (k = -1) in place on the truncated list,
    the products first.  Specializing at m gives
    closed_psi(i, spec, m).expand(order): Q -> q**m is a ring homomorphism.
    """
    c = [{e0.v: QRational.q_power(e0.c)}] + [{} for _ in range(order)]
    for x, k in sorted(pairs, key=lambda p: -p[1]):
        xc = QRational.q_power(x.c) * zeff
        if k > 0:
            xc, steps = -xc, range(order, 0, -1)
        else:
            steps = range(1, order + 1)
        for n in steps:
            for v, y in c[n - 1].items():
                _add_term(c[n], _vadd(v, x.v), y * xc)
    return c


def _poly_at(poly: dict, m: tuple) -> QRational:
    """A Laurent polynomial {v: c} in Q at Q = q**m."""
    out = _ZERO
    for v, c in poly.items():
        out = out + c * QRational.q_power(_dot(v, m))
    return out


def check_vector_at(spec: RepSpec, m: tuple, order: int) -> list:
    """The discrepancies of v_m, decided at that m alone.

    Reads the closed l-weight of v_m, compares every q**h_j exponent with
    its weight and every phi_i series with its closed Psi_i expanded; the
    entries are those of lweights.VectorChecks.check.
    """
    l = spec.l
    ev = get_evaluator(spec)
    lam = lweights.oscillator_lweight(spec, m).weight
    found = []
    for j in range(l + 1):
        t = qh_exponent(ev, CartanExponent.h(l, j), m)
        if t != lam.pair_h(j):
            found.append(discrepancy(spec.a, spec.bar, j, m, "weight-mismatch",
                                     f"q^{lam.pair_h(j)}", f"q^{t}"))
    for i in range(1, l + 1):
        closed = lweights.closed_psi(i, spec, m)
        try:
            series = phi_series_at(i, spec, m, order)
        except NotDiagonal as exc:
            off = [[list(t), qrational_to_json(c)] for t, c in sorted(exc.off, key=lambda p: p[0])]
            found.append(discrepancy(spec.a, spec.bar, i, m, "not-diagonal", repr(closed), off))
            continue
        if closed.expand(order) != series:
            found.append(discrepancy(spec.a, spec.bar, i, m, "psi-mismatch",
                                     repr(closed), repr(series)))
    return found


def verify_grid_at(l: int, order: int, m_max: int, bar: bool, zs: QRational) -> list:
    """check_vector_at over every module and every m with entries up to m_max."""
    found = []
    for a in range(1, l + 2):
        spec = RepSpec(l, a, bar, zs)
        for m in itertools.product(range(m_max + 1), repeat=l):
            found.extend(check_vector_at(spec, m, order))
    return found


# ------------------------------------------- series and rational functions in u


def series_truncate(s: USeries, order: int) -> USeries:
    """s through u**order, order at most s.order."""
    if order > s.order:
        raise ValueError("cannot extend a truncated series")
    return USeries(order, s.coeffs[: order + 1])


def series_sum(a: USeries, b: USeries) -> USeries:
    """a + b through the lower of the two orders."""
    return USeries(min(a.order, b.order), [x + y for x, y in zip(a.coeffs, b.coeffs)])


def series_difference(a: USeries, b: USeries) -> USeries:
    """a - b through the lower of the two orders."""
    return USeries(min(a.order, b.order), [x - y for x, y in zip(a.coeffs, b.coeffs)])


def series_product(a: USeries, b: USeries) -> USeries:
    """a * b through the lower of the two orders, as the Cauchy product."""
    k = min(a.order, b.order)
    out = [_ZERO] * (k + 1)
    for i in range(k + 1):
        for j in range(k + 1 - i):
            out[i + j] = out[i + j] + a.coeffs[i] * b.coeffs[j]
    return USeries(k, out)


def series_inverse(s: USeries) -> USeries:
    """1/s for a series with any nonzero constant term c0:
    t_0 = 1/c0 and t_n = -(sum_{k=1}^n s_k t_{n-k}) / c0."""
    c0 = s.coeff(0)
    if c0.is_zero():
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    out = [c0.inv()]
    for n in range(1, s.order + 1):
        acc = _ZERO
        for k in range(1, n + 1):
            acc = acc + s.coeff(k) * out[n - k]
        out.append(-acc / c0)
    return USeries(s.order, out)


def expand_fraction(num, den, order: int) -> USeries:
    """num/den through u**order as num * inverse(den), with den as given:
    the reference for URational(num, den).expand(order)."""
    return series_product(USeries(order, num), series_inverse(USeries(order, den)))


def scale_var(s: USeries, c: QRational) -> USeries:
    """s with u -> c*u substituted."""
    out, p = [], QRational.one()
    for x in s.coeffs:
        out.append(x * p)
        p = p * c
    return USeries(s.order, out)


def num_degree(r: URational) -> int:
    """Degree in u of r's numerator, -1 for r = 0."""
    return len(r.num) - 1 if r.num else -1


def den_degree(r: URational) -> int:
    """Degree in u of r's denominator."""
    return len(r.den) - 1


def constant_term(r: URational) -> QRational:
    """r at u = 0."""
    return r.num[0] if r.num else _ZERO


class ConstantTermNotOne(ValueError):
    """Series logarithm needs constant term exactly one."""


def derivative(s: USeries) -> USeries:
    """d/du of a series, one order shorter."""
    if s.order == 0:
        return USeries(0)
    return USeries(s.order - 1, tuple(k * s.coeffs[k] for k in range(1, s.order + 1)))


def series_log(s: USeries) -> USeries:
    """log of a series with constant term one, via termwise-integrated s'/s."""
    if s.coeff(0) != QRational.one():
        raise ConstantTermNotOne("series logarithm needs constant term 1")
    if s.order == 0:
        return USeries(0)
    r = series_product(derivative(s), series_inverse(series_truncate(s, s.order - 1)))
    return USeries(s.order, [_ZERO] + [r.coeff(n - 1) / n for n in range(1, s.order + 1)])


def _umod(a, b):
    r = list(a)
    db = len(b) - 1
    ib = b[-1].inv()
    while len(r) - 1 >= db:
        c = r[-1] * ib
        k = len(r) - 1 - db
        for idx in range(db + 1):
            r[k + idx] = r[k + idx] - c * b[idx]
        r.pop()
        while r and r[-1].is_zero():
            r.pop()
    return tuple(r)


def _udivexact(a, b):
    if not a:
        return ()
    r = list(a)
    db = len(b) - 1
    ib = b[-1].inv()
    out = [_ZERO] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = r[k + db] * ib
        out[k] = c
        if not c.is_zero():
            for idx in range(db + 1):
                r[k + idx] = r[k + idx] - c * b[idx]
    if any(not x.is_zero() for x in r):
        raise ArithmeticError("inexact polynomial division in u")
    return _utrim(out)


def _ugcd(a, b):
    a, b = _utrim(a), _utrim(b)
    while b:
        a, b = b, _umod(a, b)
    if not a:
        return ()
    ia = a[-1].inv()
    return tuple(c * ia for c in a)


def reduced(num, den) -> URational:
    """num/den as a URational for any pair: their gcd over Q(q)[u] is divided
    out first, since URational takes a coprime pair."""
    g = _ugcd(num, den)
    if len(g) > 1:
        num, den = _udivexact(num, g), _udivexact(den, g)
    return URational(num, den)


class DegreeMismatch(ValueError):
    """No rational function of the requested degrees reproduces the series."""


def _nullspace_vector(rows, width):
    """One nonzero solution of rows . x = 0 over QRational, x of length width."""
    rows = [list(r) for r in rows]
    pivots = {}  # column -> reduced row, kept in full reduced echelon form
    for row in rows:
        for col, prow in pivots.items():
            c = row[col]
            if not c.is_zero():
                for k in range(width):
                    row[k] = row[k] - c * prow[k]
        lead = next((k for k in range(width) if not row[k].is_zero()), None)
        if lead is None:
            continue
        inv = row[lead].inv()
        row = [c * inv for c in row]
        for prow in pivots.values():
            c = prow[lead]
            if not c.is_zero():
                for k in range(width):
                    prow[k] = prow[k] - c * row[k]
        pivots[lead] = row
    free = next(k for k in range(width) if k not in pivots)
    x = [_ZERO] * width
    x[free] = QRational.one()
    for col, prow in pivots.items():
        acc = _ZERO
        for k in range(width):
            if k != col and not prow[k].is_zero():
                acc = acc + prow[k] * x[k]
        x[col] = -acc
    return x


def pade(s: USeries, num_deg: int, den_deg: int) -> URational:
    """Reconstruct the rational function of the given degrees from a series.

    The linearized system num = den * s (mod u**(num_deg+den_deg+1)) is solved
    for the denominator by a nullspace computation, and the candidate is
    re-expanded (expand_fraction) and compared against s through order
    num_deg + den_deg; any mismatch raises DegreeMismatch.  The series must
    carry at least that many coefficients.
    """
    if num_deg < 0 or den_deg < 0:
        raise ValueError("pade degrees must be >= 0")
    k = num_deg + den_deg
    if s.order < k:
        raise ValueError("series order too small for the requested pade degrees")
    c = s.coeff
    rows = [
        [c(num_deg + 1 + r - j) if num_deg + 1 + r - j >= 0 else _ZERO
         for j in range(den_deg + 1)]
        for r in range(den_deg)
    ]
    b = _nullspace_vector(rows, den_deg + 1)
    num = []
    for kk in range(num_deg + 1):
        acc = _ZERO
        for j in range(min(kk, den_deg) + 1):
            if not b[j].is_zero():
                acc = acc + b[j] * c(kk - j)
        num.append(acc)
    try:
        cand = reduced(num, b)
    except ZeroConstantTerm as exc:
        raise DegreeMismatch("series is not a (num_deg, den_deg) rational function") from exc
    if num_degree(cand) > num_deg or den_degree(cand) > den_deg:
        raise DegreeMismatch("series is not a (num_deg, den_deg) rational function")
    again = expand_fraction(cand.num, cand.den, k)
    if any(again.coeff(j) != c(j) for j in range(k + 1)):
        raise DegreeMismatch("series is not a (num_deg, den_deg) rational function")
    return cand
