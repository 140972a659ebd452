"""Command-line front end.

Subcommands mirror the library checks: verify (grids of series against
closed forms), lweight (closed l-weight of one basis vector, checked against
the operator series), serre (q-Serre relations), drinfeld (loop relations),
factor (factorization identities) and dump-op (operator images).  Exit code
0 means every requested check passed, 1 means some comparison failed, 2 is
a usage error, and 3 means a check could not be decided (a hypothesis of the
level-geometric lemma failed; the node and the failed hypotheses go to
stderr).  JSON output is deterministic: keys are sorted and scalars
use the canonical exact encodings from exactfield.

drinfeld decides the loop relations chain by chain: the relations of one
(i, j, n) and sign, over k.  The first relation of a chain is evaluated.  A
later one, R_k, passes without evaluation when (a) rootvectors.loop_step
matches R_k and the relation just before it, R_{k-1}, as the same bracket
with chi_{i,n}, one scalar and xi_{j,k}, xi_{j,n+k} the level steps of the
xi before them (checked once per command; the matched operators are the
relation's follows), (b) chi_{i,n}, e'_{delta,alpha_j} and, for xi-, q**h_j
act with only the zero shift in the module, and (c) R_{k-1} is empty with m
symbolic in that module.  Then R_k is a commutator of R_{k-1} with
e'_{delta,alpha_j} (the Jacobi identity), so it is empty too.  Where a
hypothesis fails, R_k is evaluated like every other relation.

The spectral twist is given as a tiny exact expression over q: factors
separated by '*', each an integer, a ratio like '3/2', or a power 'q^-2'
('q' alone is allowed).  Each q^k needs |k| <= 1000, and so does the sum of
all the exponents of a twist.  Examples: 'q^3', '-2*q^-1', '1/2'.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .borelrep import RepSpec, _vanishes_on, get_evaluator, image_e, image_qh, serre_sum
from .exactfield import QRational, qrational_to_json, urational_to_json
from .lweights import (Undecided, VectorChecks, closed_psi, discrepancy, factor_sides,
                       oscillator_lweight, verify_grid)
from .rootsys import CartanExponent
from .rootvectors import (chi_bracket, e_dual, e_prime_imag, e_real, e_unprimed_imag,
                          loop_step, xi_minus, xi_plus)

_DEFAULT_ORDER = 6

# a twist q^k meets other powers of q in sums, whose dense coefficient tuples
# span |k| exponents, so a larger combined exponent is refused
MAX_TWIST_EXPONENT = 1000
_ZS_HELP = (f"spectral twist, e.g. 'q^3' or '-2*q^-1'; |k| <= {MAX_TWIST_EXPONENT} "
            "in each q^k and in their product")


def parse_zs(text: str) -> QRational:
    """Parse an exact scalar expression: '*'-separated integers, ratios, q-powers."""
    out = QRational.one()
    shift = 0
    for raw in text.split("*"):
        tok = raw.strip()
        neg = False
        while tok.startswith("-"):
            neg = not neg
            tok = tok[1:].strip()
        if not tok:
            raise ValueError(f"empty factor in scalar expression {text!r}")
        if tok == "q":
            shift += 1
            f = QRational.q_power(1)
        elif tok.startswith("q^"):
            k = int(tok[2:])
            if abs(k) > MAX_TWIST_EXPONENT:
                raise ValueError(f"twist exponent {k} is beyond +-{MAX_TWIST_EXPONENT}")
            shift += k
            f = QRational.q_power(k)
        elif "/" in tok:
            a, b = (int(x) for x in tok.split("/", 1))
            if b == 0:
                raise ValueError(f"zero denominator in scalar expression {text!r}")
            f = QRational.from_int(a) / QRational.from_int(b)
        else:
            f = QRational.from_int(int(tok))
        if neg:
            f = -f
        out = out * f
    if abs(shift) > MAX_TWIST_EXPONENT:
        raise ValueError(f"combined twist exponent {shift} is beyond +-{MAX_TWIST_EXPONENT}")
    if out.is_zero():
        raise ValueError("spectral twist must be nonzero")
    return out


def _emit(args, payload: dict, lines) -> None:
    for line in lines:
        print(line)
    if args.json or args.output:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ValueError(f"cannot write {args.output}: {exc.strerror}") from None
        else:
            print(text)


def _meta(l: int, a, bar: bool, order, zs: QRational) -> dict:
    return {
        "l": l,
        "a": a,
        "bar": bar,
        "order": order,
        "zs": repr(zs),
    }


def _report(args, lines, found: list, meta: dict, lam=(), psi=()) -> int:
    """Emit the lines and the meta/lambda/psi/discrepancies payload; 1 on any discrepancy."""
    payload = {"meta": meta, "lambda": list(lam), "psi": list(psi), "discrepancies": found}
    _emit(args, payload, lines)
    return 0 if not found else 1


def _families(args) -> list:
    """The requested (bar, a) families: one or both bars, one or every a."""
    bars = (True,) if args.bar else (False, True)
    a_values = (args.a,) if args.a is not None else range(1, args.l + 2)
    return [(bar, a) for bar in bars for a in a_values]


def _cmd_verify(args) -> int:
    zs = parse_zs(args.zs)
    families = _families(args)
    found = []
    for bar, a in families:
        found.extend(verify_grid(args.l, args.order, m_max=args.mmax, bar=bar,
                                 zs=zs, a_values=(a,)))
    lines = [f"verified {len(families)} representation families at l={args.l}, "
             f"order {args.order}, occupations <= {args.mmax}"]
    for d in found:
        lines.append(f"MISMATCH a={d['a']} bar={d['bar']} i={d['i']} m={d['m']}: "
                     f"{d['status']}: expected {d['expected']}, got {d['computed']}")
    lines.append("all checks passed" if not found else f"{len(found)} discrepancies")
    return _report(args, lines, found, _meta(args.l, args.a, args.bar, args.order, zs))


def _cmd_lweight(args) -> int:
    zs = parse_zs(args.zs)
    spec = RepSpec(args.l, args.a, args.bar, zs)
    m = tuple(int(x) for x in args.m.split(","))
    lam = oscillator_lweight(spec, m).weight
    psi = [closed_psi(i, spec, m) for i in range(1, args.l + 1)]
    found = VectorChecks(spec, args.order).check(m)
    lines = [f"weight: {' '.join(f'omega_{k+1}:{c}' for k, c in enumerate(lam.omega))}"]
    for i, f in enumerate(psi, start=1):
        lines.append(f"Psi_{i}(u) = {f!r}")
    if found:
        lines.append(f"{len(found)} discrepancies against the operator series")
    return _report(args, lines, found, _meta(args.l, args.a, args.bar, args.order, zs),
                   lam.omega, [urational_to_json(f) for f in psi])


def _decide(args, relations: list, what: str) -> int:
    """Decide every (i, index, tree, status, follows) relation in every
    requested module, in that order; 1 on any failure.  A relation tree
    does not depend on the module, so each is built once per command.

    follows is None or ops: rootvectors.loop_step matched the relation
    before this one and this tree, so this tree vanishes with m symbolic
    wherever the one before does, once every operator in ops acts with only
    the zero shift.  When the relation before is known to be empty with m
    symbolic in this module and the ops are, the relation passes and is not
    evaluated.  Every other relation (every Serre relation, the first of
    each loop chain, and any relation after a nonempty one) is evaluated."""
    samples = list(itertools.product(range(args.mmax + 1), repeat=args.l))
    found = []
    families = _families(args)
    for bar, a in families:
        spec = RepSpec(args.l, a, bar)
        ev = get_evaluator(spec)
        empty = False  # the relation before is empty with m symbolic here
        for i, index, tree, status, follows in relations:
            if follows is not None and empty and all(ev.zero_shift(op) for op in follows):
                continue
            if _vanishes_on(spec, tree, samples):
                empty = not ev.symbolic(tree)
            else:
                found.append(discrepancy(a, bar, i, index, status))
                empty = False
    lines = [f"checked {len(families) * len(relations)} {what}",
             "all checks passed" if not found else f"{len(found)} failures"]
    return _report(args, lines, found, _meta(args.l, args.a, args.bar, None, QRational.one()))


def _cmd_serre(args) -> int:
    l = args.l
    relations = [(i, [j], serre_sum(l, i, j), "serre-failure", None)
                 for i in range(l + 1) for j in range(l + 1) if i != j]
    return _decide(args, relations, f"Serre relations at l={l}, occupations <= {args.mmax}")


def _loop_relations(l: int, nmax: int) -> list:
    """(i, [j, n, k], difference tree, status, follows) for every loop
    relation, in report order.  The relations of one (i, j, n) and sign form
    a chain over k; after the first, follows is what loop_step returns for
    the relation before and this one, else None (see _decide)."""
    out = []
    for i in range(1, l + 1):
        for j in range(1, l + 1):
            for n in range(1, nmax + 1):
                for xi, sign, k0, status in ((xi_plus, 1, 0, "drinfeld-plus-failure"),
                                             (xi_minus, -1, 1, "drinfeld-minus-failure")):
                    for k in range(k0, nmax + 1):
                        tree = chi_bracket(l, i, j, n, k, xi, sign)
                        ops = loop_step(out[-1][2], tree) if k > k0 else None
                        out.append((i, [j, n, k], tree, status, ops))
    return out


def _cmd_drinfeld(args) -> int:
    return _decide(args, _loop_relations(args.l, args.nmax),
                   f"loop relations at l={args.l}, n <= {args.nmax}, occupations <= {args.mmax}")


# the families that take --index, each over 1 .. l + extra
_INDEXED_KINDS = {"osc": 1, "pref-minus": 0, "pref-plus": 0}


def _cmd_factor(args) -> int:
    if args.index is not None and args.kind not in _INDEXED_KINDS:
        raise ValueError(f"--index does not apply to --kind {args.kind}")
    if args.zs_list is not None and args.kind in _INDEXED_KINDS:
        raise ValueError(f"--zs-list does not apply to --kind {args.kind}")
    if args.zs is not None and args.zs_list is not None and args.kind == "full-tensor":
        raise ValueError("--zs does not apply to --kind full-tensor with --zs-list")
    zs = parse_zs("q^2" if args.zs is None else args.zs)
    jobs = []
    for name, extra in _INDEXED_KINDS.items():
        if args.kind not in (name, "all"):
            continue
        indices = range(1, args.l + extra + 1)
        if args.index is not None:
            if args.index not in indices:
                raise ValueError(f"{name} needs 1 <= index <= {args.l + extra}")
            indices = (args.index,)
        jobs += [(name, index) for index in indices]
    if args.kind in ("full-tensor", "all"):
        jobs.append(("full-tensor", 0))
    zs_list = None
    if args.zs_list is not None:
        zs_list = tuple(parse_zs(tok) for tok in args.zs_list.split(","))
    found = []
    lines = []
    for (name, index), (lhs, rhs) in zip(jobs, factor_sides(args.l, jobs, zs, zs_list)):
        ok = lhs == rhs
        label = f"{name}" + (f"[{index}]" if name != "full-tensor" else "")
        lines.append(f"{label}: {'ok' if ok else 'MISMATCH'}")
        if not ok:
            found.append(discrepancy(index, False, 0, [], f"{name}-mismatch",
                                     "equal l-weights", "unequal"))
    lines.append("all checks passed" if not found else f"{len(found)} failures")
    return _report(args, lines, found, _meta(args.l, args.index, False, None, zs))


_ROOT_BUILDERS = {
    "real": e_real,
    "dual": e_dual,
    "prime": e_prime_imag,
    "imag": e_unprimed_imag,
}


def _cmd_dump_op(args) -> int:
    spec = RepSpec(args.l, args.a, args.bar)
    lines = []
    if args.gen is not None:
        word = image_e(args.gen, spec)
        hw = image_qh(CartanExponent.h(args.l, args.gen), spec)
        lines.append(f"e_{args.gen} -> {word!r}")
        lines.append(f"q^h_{args.gen} -> {hw!r}")
        payload = {
            "meta": _meta(args.l, args.a, args.bar, None, QRational.one()),
            "op": f"e_{args.gen}",
            "image": word.to_json(),
            "cartan": hw.to_json(),
        }
        _emit(args, payload, lines)
        return 0
    try:
        family, rest = args.root.split(":", 1)
        nums = [int(x) for x in rest.split(",")]
        builder = _ROOT_BUILDERS[family]
    except (KeyError, ValueError):
        raise ValueError(f"cannot parse root spec {args.root!r}; "
                         "use e.g. real:1,2,0 or imag:1,2") from None
    if family == "imag" and len(nums) == 2:
        i, n = nums
        head = (args.l, i)
        name = f"e_{n}delta,alpha_{i}"
    elif family == "prime" and len(nums) == 2:
        i, n = nums
        head = (args.l, i, i + 1)
        name = f"e'_{n}delta,alpha_{i}"
    elif family != "imag" and len(nums) == 3:
        i, j, n = nums
        head = (args.l, i, j)
        name = f"{family}:{i},{j},{n}"
    else:
        raise ValueError(f"wrong arity in root spec {args.root!r}")
    # every family's tree holds its lower levels; evaluating them first,
    # from the lowest up, lets each level read the memo of the one below,
    # so the recursion of the evaluator stays shallow
    ev = get_evaluator(spec)
    for k in range(0 if family in ("real", "dual") else 1, n):
        ev.symbolic(builder(*head, k))
    expr = builder(*head, n)
    action = []
    for m in itertools.product(range(args.mmax + 1), repeat=args.l):
        out = sorted(ev.terms(expr, m), key=lambda t: t[0])
        action.append({"m": list(m), "out": [[list(mm), qrational_to_json(c)] for mm, c in out]})
        shown = " + ".join(f"({c!r}) v{list(mm)}" for mm, c in out) or "0"
        lines.append(f"{name} v{list(m)} = {shown}")
    payload = {
        "meta": _meta(args.l, args.a, args.bar, None, QRational.one()),
        "op": name,
        "action": action,
    }
    _emit(args, payload, lines)
    return 0


def _add_common(sub, *, a_required=False, with_order=True):
    sub.add_argument("--l", type=int, required=True, help="rank l >= 1")
    if a_required:
        sub.add_argument("--a", type=int, required=True, help="representation index, 1..l+1")
    else:
        sub.add_argument("--a", type=int, default=None, help="restrict to one representation index")
    sub.add_argument("--bar", action="store_true", help="mirrored family")
    if with_order:
        sub.add_argument("--order", type=int, default=_DEFAULT_ORDER,
                         help=f"series comparison order (default {_DEFAULT_ORDER})")
    sub.add_argument("--json", action="store_true", help="print a JSON report")
    sub.add_argument("--output", default=None, help="write the JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qloop",
        description="Exact checks of q-oscillator Borel representations and their l-weights.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="series vs closed forms on an occupation grid")
    _add_common(p)
    p.add_argument("--mmax", type=int, default=2, help="max occupation per mode")
    p.add_argument("--zs", default="1", help=_ZS_HELP)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("lweight", help="closed l-weight of one basis vector")
    _add_common(p, a_required=True)
    p.add_argument("--m", required=True, help="occupation vector, e.g. '1,0,2'")
    p.add_argument("--zs", default="1", help=_ZS_HELP)
    p.set_defaults(func=_cmd_lweight)

    p = subs.add_parser("serre", help="q-Serre relations on sample vectors")
    _add_common(p, with_order=False)
    p.add_argument("--mmax", type=int, default=1, help="max occupation per mode")
    p.set_defaults(func=_cmd_serre)

    p = subs.add_parser("drinfeld", help="loop-generator relations on sample vectors")
    _add_common(p, with_order=False)
    p.add_argument("--mmax", type=int, default=1, help="max occupation per mode")
    p.add_argument("--nmax", type=int, default=2, help="max loop degree")
    p.set_defaults(func=_cmd_drinfeld)

    p = subs.add_parser("factor", help="factorization identities between l-weights")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--kind", default="all",
                   choices=["osc", "pref-minus", "pref-plus", "full-tensor", "all"])
    p.add_argument("--index", type=int, default=None, help="a or i, depending on kind")
    p.add_argument("--zs", default=None, help=_ZS_HELP + " (default q^2)")
    p.add_argument("--zs-list", default=None,
                   help="comma-separated twists for full-tensor, one per factor")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_factor)

    p = subs.add_parser("dump-op", help="operator images and actions on basis vectors")
    _add_common(p, a_required=True, with_order=False)
    p.add_argument("--gen", type=int, default=None, help="Borel generator index 0..l")
    p.add_argument("--root", default=None,
                   help="root vector, e.g. real:1,2,0 dual:1,2,0 prime:1,1 imag:1,2")
    p.add_argument("--mmax", type=int, default=1, help="max occupation per mode")
    p.set_defaults(func=_cmd_dump_op)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads the value '--' in '--opt=--' as an empty list
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    if args.l < 1:
        parser.error("need l >= 1")
    if getattr(args, "a", None) is not None and not (1 <= args.a <= args.l + 1):
        parser.error("need 1 <= a <= l+1")
    # a grid without vectors or loop degrees would check nothing and pass
    if getattr(args, "mmax", 0) < 0:
        parser.error("need mmax >= 0")
    if getattr(args, "nmax", 1) < 1:
        parser.error("need nmax >= 1")
    if args.command == "dump-op" and (args.gen is None) == (args.root is None):
        parser.error("dump-op needs exactly one of --gen or --root")
    if getattr(args, "gen", None) is not None and not (0 <= args.gen <= args.l):
        parser.error("need 0 <= gen <= l")
    if getattr(args, "order", 2) < 2:
        parser.error("need order >= 2")
    try:
        return args.func(args)
    except Undecided as exc:
        print(f"qloop {args.command}: undecided: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
