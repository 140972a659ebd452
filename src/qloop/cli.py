"""Command-line front end.

Subcommands mirror the library checks: verify (grids of series against
closed forms), lweight (closed l-weight of one basis vector, checked against
the operator series), serre (q-Serre relations), drinfeld (loop relations),
factor (factorization identities) and dump-op (operator images).  Exit code
0 means every requested check passed, 1 means some comparison failed, 2 is
a usage error.  JSON output is deterministic: keys are sorted and scalars
use the canonical exact encodings from exactfield.

The spectral twist is given as a tiny exact expression over q: factors
separated by '*', each an integer, a ratio like '3/2', or a power 'q^-2'
('q' alone is allowed).  Each q^k needs |k| <= 1000, and so does the sum of
all the exponents of a twist.  Examples: 'q^3', '-2*q^-1', '1/2'.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .borelrep import RepSpec, get_evaluator, image_e, image_qh, serre_check
from .exactfield import QRational, qrational_to_json, urational_to_json
from .lweights import (check_vector, closed_lambda, closed_psi, factor_check,
                       verify_grid)
from .rootsys import CartanExponent
from .rootvectors import (drinfeld_check, drinfeld_check_minus, e_dual,
                          e_prime_imag, e_real, e_unprimed_imag)

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


def _parse_m(text: str, l: int) -> tuple:
    m = tuple(int(x) for x in text.split(","))
    if len(m) != l or any(x < 0 for x in m):
        raise ValueError(f"occupation vector needs {l} nonnegative entries")
    return m


def _default_order() -> int:
    text = os.environ.get("QLOOP_ORDER", str(_DEFAULT_ORDER))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"QLOOP_ORDER must be an integer, not {text!r}") from None


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


def _failure(a, bar: bool, i: int, m: list, status: str) -> dict:
    return {"a": a, "bar": bar, "i": i, "m": m, "status": status,
            "expected": "0", "computed": "nonzero"}


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
    m = _parse_m(args.m, args.l)
    lam = closed_lambda(spec, m)
    psi = [closed_psi(i, spec, m) for i in range(1, args.l + 1)]
    found = check_vector(spec, m, args.order)
    lines = [f"weight: {' '.join(f'omega_{k+1}:{c}' for k, c in enumerate(lam.omega))}"]
    for i, f in enumerate(psi, start=1):
        lines.append(f"Psi_{i}(u) = {f!r}")
    if found:
        lines.append(f"{len(found)} discrepancies against the operator series")
    return _report(args, lines, found, _meta(args.l, args.a, args.bar, args.order, zs),
                   lam.omega, [urational_to_json(f) for f in psi])


def _cmd_serre(args) -> int:
    samples = list(itertools.product(range(args.mmax + 1), repeat=args.l))
    found = []
    pairs = 0
    for bar, a in _families(args):
        spec = RepSpec(args.l, a, bar)
        for i in range(args.l + 1):
            for j in range(args.l + 1):
                if i == j:
                    continue
                pairs += 1
                if not serre_check(i, j, spec, samples):
                    found.append(_failure(a, bar, i, [j], "serre-failure"))
    lines = [f"checked {pairs} Serre relations at l={args.l}, occupations <= {args.mmax}",
             "all checks passed" if not found else f"{len(found)} failures"]
    return _report(args, lines, found, _meta(args.l, args.a, args.bar, None, QRational.one()))


def _cmd_drinfeld(args) -> int:
    samples = list(itertools.product(range(args.mmax + 1), repeat=args.l))
    found = []
    count = 0
    for bar, a in _families(args):
        spec = RepSpec(args.l, a, bar)
        for i in range(1, args.l + 1):
            for j in range(1, args.l + 1):
                for n in range(1, args.nmax + 1):
                    for k in range(0, args.nmax + 1):
                        count += 1
                        if not drinfeld_check(i, j, n, k, spec, samples):
                            found.append(_failure(a, bar, i, [j, n, k], "drinfeld-plus-failure"))
                    for k in range(1, args.nmax + 1):
                        count += 1
                        if not drinfeld_check_minus(i, j, n, k, spec, samples):
                            found.append(_failure(a, bar, i, [j, n, k], "drinfeld-minus-failure"))
    lines = [f"checked {count} loop relations at l={args.l}, n <= {args.nmax}, "
             f"occupations <= {args.mmax}",
             "all checks passed" if not found else f"{len(found)} failures"]
    return _report(args, lines, found, _meta(args.l, args.a, args.bar, None, QRational.one()))


_KIND_ALIASES = {
    "osc_to_pref": "osc",
    "pref_minus": "pref-minus",
    "pref_plus": "pref-plus",
    "full_tensor": "full-tensor",
}

# the families that take --index, each over 1 .. l + extra
_INDEXED_KINDS = {"osc": 1, "pref-minus": 0, "pref-plus": 0}


def _cmd_factor(args) -> int:
    kind = _KIND_ALIASES.get(args.kind, args.kind)
    if args.index is not None and kind not in _INDEXED_KINDS:
        raise ValueError(f"--index does not apply to --kind {kind}")
    if args.zs_list is not None and kind in _INDEXED_KINDS:
        raise ValueError(f"--zs-list does not apply to --kind {kind}")
    if args.zs is not None and args.zs_list is not None and kind == "full-tensor":
        raise ValueError("--zs does not apply to --kind full-tensor with --zs-list")
    zs = parse_zs("q^2" if args.zs is None else args.zs)
    jobs = []
    for name, extra in _INDEXED_KINDS.items():
        if kind not in (name, "all"):
            continue
        indices = range(1, args.l + extra + 1)
        if args.index is not None:
            if args.index not in indices:
                raise ValueError(f"{name} needs 1 <= index <= {args.l + extra}")
            indices = (args.index,)
        jobs += [(name, index) for index in indices]
    if kind in ("full-tensor", "all"):
        jobs.append(("full-tensor", 0))
    zs_list = None
    if args.zs_list:
        zs_list = tuple(parse_zs(tok) for tok in args.zs_list.split(","))
    found = []
    lines = []
    for name, index in jobs:
        ok = factor_check(name, args.l, index, zs, zs_list)
        label = f"{name}" + (f"[{index}]" if name != "full-tensor" else "")
        lines.append(f"{label}: {'ok' if ok else 'MISMATCH'}")
        if not ok:
            found.append({"a": index, "bar": False, "i": 0, "m": [],
                          "status": f"{name}-mismatch",
                          "expected": "equal l-weights", "computed": "unequal"})
    lines.append("all checks passed" if not found else f"{len(found)} failures")
    return _report(args, lines, found, _meta(args.l, args.index, False, None, zs))


_ROOT_BUILDERS = {
    "real": lambda l, i, j, n: e_real(l, i, j, n),
    "dual": lambda l, i, j, n: e_dual(l, i, j, n),
    "prime": lambda l, i, j, n: e_prime_imag(l, i, j, n),
    "imag": lambda l, i, j, n: e_unprimed_imag(l, i, n),
}


def _cmd_dump_op(args) -> int:
    spec = RepSpec(args.l, args.a, args.bar)
    lines = []
    if args.gen is not None:
        word = image_e(args.gen, spec).normalized()
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
        print(f"cannot parse root spec {args.root!r}; use e.g. real:1,2,0 or imag:1,2",
              file=sys.stderr)
        return 2
    if family == "imag" and len(nums) == 2:
        i, n = nums
        if not (1 <= i <= args.l):
            raise ValueError("imaginary root vectors need 1 <= i <= l")
        expr = builder(args.l, i, i + 1, n)
        name = f"e_{n}delta,alpha_{i}"
    elif family == "prime" and len(nums) == 2:
        i, n = nums
        expr = builder(args.l, i, i + 1, n)
        name = f"e'_{n}delta,alpha_{i}"
    elif len(nums) == 3:
        i, j, n = nums
        expr = builder(args.l, i, j, n)
        name = f"{family}:{i},{j},{n}"
    else:
        print(f"wrong arity in root spec {args.root!r}", file=sys.stderr)
        return 2
    ev = get_evaluator(spec)
    action = []
    for m in itertools.product(range(args.mmax + 1), repeat=args.l):
        out = ev.apply_basis(expr, m)
        terms = [[list(mm), qrational_to_json(c)]
                 for mm, c in sorted(out.items(), key=lambda t: t[0])]
        action.append({"m": list(m), "out": terms})
        shown = " + ".join(f"({c!r}) v{list(mm)}" for mm, c in sorted(out.items())) or "0"
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
        sub.add_argument("--order", type=int, default=None,
                         help="series comparison order (default QLOOP_ORDER or 6)")
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
                   choices=["osc", "pref-minus", "pref-plus", "full-tensor", "all",
                            "osc_to_pref", "pref_minus", "pref_plus", "full_tensor"])
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
    try:
        if hasattr(args, "order"):
            if args.order is None:
                args.order = _default_order()
            if args.order < 2:
                parser.error("need order >= 2")
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
