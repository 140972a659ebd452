"""The benchmark's workloads: seeded CLI argv, expected check counts, verdicts.

Each workload is one `qloop` subcommand at a fixed size.  The seed only
chooses spectral twists (and which probe entries are checked); it never
changes how many checks a workload makes.  Twists are drawn from the finite
domain +-c*q^k with c in {1, 2} and -3 <= k <= 3, so that the probe digests
in digests.json can cover every twist a seed can produce.
"""

from __future__ import annotations

import random
import re

# Full sizes are what the benchmark times; smoke sizes exercise the same code
# paths in well under a second each, for the benchmark's own tests.  The
# host's speed drifts by 10-30% over tens of seconds, so a run needs many
# short repetitions for its median to hold still: the occupation grids are
# cut to mmax 1-2 (a repetition takes about 2 s), which keeps every operator
# tree (order 8, nmax 3) and the Drinfeld check count as they are.
SIZES = {
    "verify-grid": {
        "full": {"l": 3, "order": 8, "mmax": 2},
        "smoke": {"l": 2, "order": 3, "mmax": 1},
    },
    "drinfeld-loop": {
        "full": {"l": 3, "nmax": 3, "mmax": 1},
        "smoke": {"l": 2, "nmax": 1, "mmax": 1},
    },
    "factor-closed": {
        "full": {"l": 20},
        "smoke": {"l": 3},
    },
}

# The drinfeld subcommand takes no free input, so its argv ignores the seed.
SEED_APPLIES = {"verify-grid": True, "drinfeld-loop": False, "factor-closed": True}

TWIST_COEFFS = (1, 2)
TWIST_EXPONENTS = range(-3, 4)


def twist_domain() -> list:
    """Every twist text the generator can produce, in a fixed order."""
    return [twist_text(s * c, k) for s in (1, -1) for c in TWIST_COEFFS
            for k in TWIST_EXPONENTS]


def twist_text(c: int, k: int) -> str:
    return f"{c}*q^{k}"


def random_twist(rng: random.Random, negative: bool = False) -> str:
    sign = -1 if negative or rng.random() < 0.5 else 1
    return twist_text(sign * rng.choice(TWIST_COEFFS), rng.choice(TWIST_EXPONENTS))


def inputs(name: str, size: str, seed: int) -> dict:
    """The workload's parameters plus the seeded twists it runs with."""
    params = dict(SIZES[name][size])
    rng = random.Random(f"{name}:{seed}")
    if name == "verify-grid":
        params["zs"] = random_twist(rng)
    elif name == "factor-closed":
        params["zs"] = random_twist(rng)
        twists = [random_twist(rng) for _ in range(params["l"] + 1)]
        if not any(t.startswith("-") for t in twists):
            # every run covers a negative twist on the argv
            twists[rng.randrange(len(twists))] = random_twist(rng, negative=True)
        params["zs_list"] = twists
    return params


def argv(name: str, p: dict) -> list:
    """The exact CLI argv.  Twists go as --zs=<expr>: a leading '-' in a
    separate argument would be read by argparse as an option."""
    if name == "verify-grid":
        return ["verify", "--l", str(p["l"]), "--order", str(p["order"]),
                "--mmax", str(p["mmax"]), f"--zs={p['zs']}"]
    if name == "drinfeld-loop":
        return ["drinfeld", "--l", str(p["l"]), "--nmax", str(p["nmax"]),
                "--mmax", str(p["mmax"])]
    if name == "factor-closed":
        return ["factor", "--l", str(p["l"]), "--kind", "all", f"--zs={p['zs']}",
                f"--zs-list={','.join(p['zs_list'])}"]
    raise KeyError(name)


def expected_checks(name: str, p: dict) -> int:
    """Checks the workload decides, computed from its parameters alone."""
    l = p["l"]
    if name == "verify-grid":
        # both families, every module a, every occupation vector, every node
        return 2 * (l + 1) * (p["mmax"] + 1) ** l * l
    if name == "drinfeld-loop":
        n = p["nmax"]
        # chi_{i,n} against xi+_{j,k} (k = 0..n) and xi-_{j,k} (k = 1..n)
        return 2 * (l + 1) * l * l * n * ((n + 1) + n)
    if name == "factor-closed":
        # theta_a for every a, both prefundamental families, the full tensor
        return (l + 1) + l + l + 1
    raise KeyError(name)


_VERIFY_LINE = re.compile(
    r"^verified (\d+) representation families at l=(\d+), order (\d+), occupations <= (\d+)$")
_DRINFELD_LINE = re.compile(
    r"^checked (\d+) loop relations at l=(\d+), n <= (\d+), occupations <= (\d+)$")
_FACTOR_OK = re.compile(r"^(osc\[\d+\]|pref-minus\[\d+\]|pref-plus\[\d+\]|full-tensor): ok$")


def reported_checks(name: str, p: dict, text: str) -> int:
    """The check count the CLI reports on stdout; -1 when it reports none
    or reports parameters other than the ones it was given."""
    lines = text.splitlines()
    if not lines or lines[-1] != "all checks passed":
        return -1
    if name == "factor-closed":
        return sum(1 for line in lines if _FACTOR_OK.match(line))
    pattern = _VERIFY_LINE if name == "verify-grid" else _DRINFELD_LINE
    hit = next((m for m in map(pattern.match, lines) if m), None)
    if hit is None:
        return -1
    count, l, deg, mmax = map(int, hit.groups())
    wanted = p["order"] if name == "verify-grid" else p["nmax"]
    if (l, deg, mmax) != (p["l"], wanted, p["mmax"]):
        return -1
    if name == "verify-grid":
        # the CLI reports families; each family covers the whole grid
        return count * (mmax + 1) ** l * l
    return count
