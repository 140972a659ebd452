"""Non-vacuity probe: exact results of the layer each workload's verdict rests on.

A Serre or Drinfeld relation also holds when every operator acts as zero,
and a factorization identity also holds when every l-weight is trivial, so a
passing verdict alone does not show that anything was computed.  The probe
re-evaluates a seeded handful of entries after the timed CLI call (untimed,
in the same process, so it sees the evaluator the CLI used) and compares
their serialized exact values with digests recorded from a known-good tree:

- verify-grid: e'_{n delta, alpha_i} applied to every occupation vector;
- drinfeld-loop: chi_{i,n}, xi+_{i,n} and xi-_{i,n} applied likewise;
- factor-closed: the closed Psi_1 .. Psi_l of theta_a at m = 0 and a twist.

Run `python3 perfbench/probe.py --record` from the repository root to
rewrite digests.json; only do so when the exact values are meant to change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import workloads

DIGESTS = Path(__file__).resolve().parent / "digests.json"
PICKS = 6


def candidates(name: str, p: dict) -> list:
    """Every probe key of a workload at the given parameters."""
    l = p["l"]
    if name == "verify-grid":
        return [f"{int(bar)}:{a}:{i}:{n}" for bar in (0, 1) for a in range(1, l + 2)
                for i in range(1, l + 1) for n in range(1, p["order"] + 1)]
    if name == "drinfeld-loop":
        n = p["nmax"]
        ops = ([f"chi:{i}:{k}" for i in range(1, l + 1) for k in range(1, n + 1)]
               + [f"xi+:{i}:{k}" for i in range(1, l + 1) for k in range(0, n + 1)]
               + [f"xi-:{i}:{k}" for i in range(1, l + 1) for k in range(1, n + 1)])
        return [f"{int(bar)}:{a}:{op}" for bar in (0, 1) for a in range(1, l + 2)
                for op in ops]
    if name == "factor-closed":
        return [f"{a}:{t}" for a in range(1, l + 2) for t in workloads.twist_domain()]
    raise KeyError(name)


def pick(name: str, p: dict, seed: int, table: dict) -> list:
    """The seeded keys one repetition checks, drawn from the recorded ones.
    factor-closed checks the twists its own argv used."""
    rng = random.Random(f"probe:{name}:{seed}")
    if name == "factor-closed":
        keys = []
        for a in rng.sample(range(1, p["l"] + 2), PICKS // 2):
            keys += [f"{a}:{p['zs']}", f"{a}:{p['zs_list'][a - 1]}"]
        return keys
    return rng.sample(sorted(table), PICKS)


def _state_json(state) -> list:
    from qloop.exactfield import qrational_to_json
    return [[list(m), qrational_to_json(c)] for m, c in sorted(state.items())]


def value(name: str, p: dict, key: str):
    """The exact JSON value behind one probe key."""
    from qloop import rootvectors
    from qloop.borelrep import RepSpec, get_evaluator
    l = p["l"]
    if name == "factor-closed":
        from qloop.cli import parse_zs
        from qloop.exactfield import urational_to_json
        from qloop.lweights import closed_psi
        a, twist = key.split(":", 1)
        spec = RepSpec(l, int(a), False, parse_zs(twist))
        return [urational_to_json(closed_psi(i, spec, (0,) * l)) for i in range(1, l + 1)]
    bar, a, rest = key.split(":", 2)
    if name == "verify-grid":
        i, n = map(int, rest.split(":"))
        expr = rootvectors.e_prime_imag(l, i, i + 1, n)
    else:
        op, i, n = rest.split(":")
        builder = {"chi": rootvectors.chi, "xi+": rootvectors.xi_plus,
                   "xi-": rootvectors.xi_minus}[op]
        expr = builder(l, int(i), int(n))
    ev = get_evaluator(RepSpec(l, int(a), bool(int(bar))))
    return [[list(m), _state_json(ev.apply_basis(expr, m))]
            for m in itertools.product(range(p["mmax"] + 1), repeat=l)]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def check(name: str, size: str, p: dict, seed: int, recorded: dict) -> list:
    """Keys whose value differs from (or is missing in) the recorded digests."""
    table = recorded[name][size]
    return [key for key in pick(name, p, seed, table)
            if table.get(key) != digest(value(name, p, key))]


def _vacuous(name: str, v) -> bool:
    # an operator that kills every probed vector proves nothing
    return name != "factor-closed" and not any(out for _, out in v)


def record() -> dict:
    out = {}
    for name, sizes in workloads.SIZES.items():
        out[name] = {}
        for size, p in sizes.items():
            values = {key: value(name, p, key) for key in candidates(name, p)}
            out[name][size] = {key: digest(v) for key, v in values.items()
                               if not _vacuous(name, v)}
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/probe.py --record")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    table = record()
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(len(t) for s in table.values() for t in s.values())} digests to {DIGESTS}")
