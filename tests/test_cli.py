"""Command-line interface: exit codes, JSON schema, determinism."""

import argparse
import contextlib
import copy
import hashlib
import inspect
import io
import itertools
import json
import shlex
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qloop import borelrep, cli, exactfield, lweights, rootvectors
from qloop.exactfield import QRational, qnum, urational_to_json
from qloop.lweights import Weight, closed_psi
from qloop.borelrep import CartanPower, Compose, Gen, RepSpec, Scale, Sum, identity, serre_check
from qloop.rootsys import CartanExponent, RootIndex, bilinear, o_sign
from qloop.lweights import discrepancy
from qloop.rootvectors import (chi, drinfeld_check, drinfeld_check_minus, e_dual, e_prime_imag,
                               e_real, qcomm, xi_minus, xi_plus)

ONE = QRational.one()
qp = QRational.q_power


# ------------------------------------------------------------------ zs parser

def test_parse_zs_values():
    assert cli.parse_zs("1") == ONE
    assert cli.parse_zs("q") == qp(1)
    assert cli.parse_zs("q^3") == qp(3)
    assert cli.parse_zs("q^-2") == qp(-2)
    assert cli.parse_zs("-q") == -qp(1)
    assert cli.parse_zs("2*q^-1") == QRational.from_int(2) * qp(-1)
    assert cli.parse_zs("3/2") == QRational.from_int(3) / QRational.from_int(2)
    assert cli.parse_zs("-1/2*q^2") == -qp(2) / QRational.from_int(2)
    assert cli.parse_zs(f"q^-{cli.MAX_TWIST_EXPONENT}") == qp(-cli.MAX_TWIST_EXPONENT)
    # the bound is on the combined exponent
    assert cli.parse_zs("q^1000*q^-1000*q") == qp(1)


def test_parse_zs_rejects_bad_input():
    for bad in ("0", "", "q^", "x", "q*", "1/0", f"q^{cli.MAX_TWIST_EXPONENT + 1}",
                "2*q^-1000000000", "q^1000*q", "q^-600*2*q^-600",
                "*".join(["q^1000"] * 1000)):
        with pytest.raises(ValueError):
            cli.parse_zs(bad)


# ----------------------------------------------------------------- exit codes

def test_verify_passes(capsys):
    assert cli.main(["verify", "--l", "1", "--order", "4", "--mmax", "1"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_usage_errors_exit_two(tmp_path, capsys):
    for argv in (
        ["lweight", "--l", "0", "--a", "1", "--m", "0"],
        ["lweight", "--l", "1", "--a", "3", "--m", "0"],
        ["verify", "--l", "1", "--order", "1"],
        ["lweight", "--l", "1", "--a", "1", "--m", "0", "--zs", "0"],
        ["lweight", "--l", "2", "--a", "1", "--m", "0"],
        ["dump-op", "--l", "1", "--a", "1"],
        ["dump-op", "--l", "1", "--a", "1", "--gen", "2"],
        ["nonsense"],
        ["verify", "--l", "2", "--zs", "1/0"],
        ["factor", "--l", "3", "--kind", "pref-minus", "--index", "0"],
        ["factor", "--l", "3", "--kind", "pref-plus", "--index", "4"],
        ["verify", "--l", "1", "--order", "2", "--mmax", "0",
         "--output", str(tmp_path / "missing" / "x.json")],
        # a run that examines nothing must not report a pass
        ["verify", "--l", "1", "--mmax", "-1"],
        ["serre", "--l", "1", "--mmax", "-1"],
        ["drinfeld", "--l", "1", "--nmax", "0"],
        ["drinfeld", "--l", "1", "--mmax", "-1"],
        # flags the chosen kind has no use for are refused, not ignored
        ["factor", "--l", "2", "--kind", "full-tensor", "--index", "1"],
        ["factor", "--l", "2", "--kind", "all", "--index", "1"],
        ["factor", "--l", "2", "--kind", "osc", "--zs-list", "q,q,q"],
        ["factor", "--l", "2", "--kind", "pref-minus", "--zs-list", "q,q,q"],
        # full-tensor with --zs-list has no use for --zs
        ["factor", "--l", "1", "--kind", "full-tensor", "--zs", "q^5", "--zs-list", "q,q"],
        ["factor", "--l", "1", "--kind", "full-tensor", "--zs", "q^2", "--zs-list", "q,q"],
        # an empty --zs-list is refused, not read as absent
        ["factor", "--l", "1", "--kind", "full-tensor", "--zs-list="],
        # a zero twist, of the indexed families or of one tensor factor
        ["factor", "--l", "2", "--zs", "0"],
        ["factor", "--l", "2", "--kind", "full-tensor", "--zs-list", "q,0,q"],
        # twist exponents beyond +-1000, one factor's or the product's
        ["verify", "--l", "1", "--zs", "q^1000000000"],
        ["verify", "--l", "1", "--zs=q^1000*q^1000"],
        # --kind takes the hyphen spellings only
        ["factor", "--l", "1", "--kind", "pref_minus"],
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2, argv
        assert "error:" in capsys.readouterr().err, argv


@pytest.mark.parametrize("m", ["0", "-1,0", "1,2,3"])
def test_occupation_vector_error_names_l(m, capsys):
    # lweights._check_m is the one check; its message names l
    with pytest.raises(SystemExit) as err:
        cli.main(["lweight", "--l", "2", "--a", "1", f"--m={m}"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: occupation vector needs 2 nonnegative entries\n")
    with pytest.raises(ValueError, match="^occupation vector needs 2 nonnegative entries$"):
        closed_psi(1, RepSpec(2, 1), tuple(int(x) for x in m.split(",")))


@pytest.mark.parametrize("argv", [
    ["verify", "--l", "1", "--zs=--"],
    ["lweight", "--l", "1", "--a", "1", "--m=--"],
    ["dump-op", "--l", "1", "--a", "1", "--root=--"],
    ["factor", "--l", "1", "--zs-list=--"],
    ["factor", "--l", "1", "--kind=--"],
    ["verify", "--l=--"],
    ["verify", "--l", "1", "--mmax=--"],
    ["verify", "--l", "1", "--order=--"],
    ["verify", "--l", "1", "--output=--"],
], ids=lambda argv: " ".join(argv))
def test_a_double_dash_value_is_a_usage_error(argv, capsys):
    # argparse reads '--opt=--' as an empty list, which no command can use
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    out, errout = capsys.readouterr()
    assert err.value.code == 2
    assert "error:" in errout and out == ""


def _readme_commands() -> list:
    """The qloop lines of the first code block under README's "Command line"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qloop ")]


def test_readme_commands_pass(capsys):
    commands = _readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


def test_verification_failure_exits_one(monkeypatch, capsys):
    fake = [{"a": 1, "bar": False, "i": 1, "m": [0], "status": "psi-mismatch",
             "expected": "x", "computed": "y"}]
    monkeypatch.setattr(cli, "verify_grid", lambda *a, **k: list(fake))
    assert cli.main(["verify", "--l", "1"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "psi-mismatch" in out


# per command, an argv and one broken ingredient that fails some of its checks
_BROKEN_RUNS = [
    # o_i of the wrong sign flips every odd coefficient of the phi_i series
    (["verify", "--l", "2", "--order", "3", "--mmax", "1"],
     lweights, "o_sign", lambda i, l: -o_sign(i, l)),
    # with a_01 = 0 the Serre sum is the commutator [e_0, e_1]
    (["serre", "--l", "2", "--mmax", "1"], borelrep, "cartan_entry", lambda *args: 0),
    # with a_ij = 0 every bracket [chi_{i,n}, xi_{j,m}] would have to vanish
    (["drinfeld", "--l", "2", "--nmax", "1", "--mmax", "1"],
     rootvectors, "cartan_entry", lambda *args: 0),
    # theta_a without its shift is not the product of its prefundamentals
    (["factor", "--l", "2", "--kind", "osc"], lweights, "xi_osc", lambda l, a: Weight.zero(l)),
]


@pytest.mark.parametrize("argv,module,name,broken", _BROKEN_RUNS,
                         ids=[run[0][0] for run in _BROKEN_RUNS])
def test_every_failure_entry_has_the_seven_keys(monkeypatch, capsys, argv, module, name, broken):
    monkeypatch.setattr(module, name, broken)
    assert cli.main(argv + ["--json"]) == 1
    found = _json_line(capsys.readouterr().out)["discrepancies"]
    assert found
    for d in found:
        assert sorted(d) == ["a", "bar", "computed", "expected", "i", "m", "status"], d
        assert isinstance(d["m"], list)


_SMALL = st.integers(-1, 3).map(str)
_FLAG_VALUES = {
    # sizes stay tiny and are always given, so that no default makes a run large
    "--order": st.integers(-1, 3).map(str),
    "--mmax": st.integers(-1, 1).map(str),
    "--nmax": st.integers(-1, 1).map(str),
    "--a": _SMALL,
    "--index": _SMALL,
    "--gen": _SMALL,
    "--m": st.lists(st.integers(-1, 2), max_size=3).map(lambda m: ",".join(map(str, m))),
    "--zs": st.sampled_from(("0", "1", "1/0", "q^x", "-2*q^3", "q^-1", "3/2", "")),
    "--zs-list": st.sampled_from(("q,q^2", "1,1/0", "q,q,q", "0,1,q")),
    "--kind": st.sampled_from(("osc", "pref-minus", "pref-plus", "full-tensor", "all")),
    "--root": st.sampled_from(("real:1,2,0", "dual:1,2,1", "prime:1,1", "imag:0,1",
                               "imag:1,0", "prime:2,1", "real:2,1,0", "imag:3,1", "imag:1,2,1",
                               "bogus")),
}
# per subcommand: the flags always given, then the flags given or not
_COMMANDS = {
    "verify": (("--order", "--mmax"), ("--a", "--bar", "--zs", "--json")),
    "lweight": (("--a", "--m", "--order"), ("--bar", "--zs", "--json")),
    "serre": (("--mmax",), ("--a", "--bar", "--json")),
    "drinfeld": (("--mmax", "--nmax"), ("--a", "--bar", "--json")),
    "factor": (("--kind",), ("--index", "--zs", "--zs-list", "--json")),
    "dump-op": (("--a", "--mmax"), ("--bar", "--json")),
}


@st.composite
def _argvs(draw):
    """A subcommand with some of its flags; small ints (0 and negatives too),
    twists, occupation vectors and root specs, valid or not."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    always, optional = _COMMANDS[command]
    flags = list(always) + [f for f in optional if draw(st.booleans())]
    if command == "dump-op":
        flags.append(draw(st.sampled_from(("--gen", "--root"))))
    argv = [command, "--l", str(draw(st.integers(-1, 2)))]
    for flag in flags:
        if flag in ("--bar", "--json"):
            argv.append(flag)
        else:
            # the '=' form keeps a leading '-' in the value from reading as a
            # flag; '--' as the value reads as an empty list
            argv.append(f"{flag}={draw(_FLAG_VALUES[flag] | st.just('--'))}")
    return argv


@given(_argvs())
@settings(max_examples=200, deadline=None)
def test_argv_fuzz_never_escapes(argv):
    # the exit code is 0, 1 or 2, and no exception but a usage exit escapes
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2), argv


# ----------------------------------------------------------------------- JSON

def _json_line(out):
    return json.loads(out.strip().splitlines()[-1])


def test_lweight_json_schema(capsys):
    assert cli.main(["lweight", "--l", "1", "--a", "1", "--m", "0",
                     "--order", "6", "--json"]) == 0
    doc = _json_line(capsys.readouterr().out)
    assert doc["meta"] == {"l": 1, "a": 1, "bar": False, "order": 6, "zs": "1"}
    assert doc["lambda"] == [-2]
    assert doc["discrepancies"] == []
    want = urational_to_json(closed_psi(1, RepSpec(1, 1), (0,)))
    assert doc["psi"] == [want]


def test_lweight_json_respects_twist_and_bar(capsys):
    assert cli.main(["lweight", "--l", "1", "--a", "2", "--m", "1", "--bar",
                     "--zs", "q^2", "--json"]) == 0
    doc = _json_line(capsys.readouterr().out)
    assert doc["meta"]["bar"] is True
    assert doc["meta"]["zs"] == "q^2"
    spec = RepSpec(1, 2, True, qp(2))
    assert doc["psi"] == [urational_to_json(closed_psi(1, spec, (1,)))]


def test_json_output_is_deterministic(capsys):
    argv = ["lweight", "--l", "2", "--a", "2", "--m", "1,0", "--json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    line = first.strip().splitlines()[-1]
    assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


def test_output_file_matches_stdout_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["lweight", "--l", "1", "--a", "1", "--m", "2", "--json"]
    assert cli.main(argv) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert cli.main(argv[:-1] + ["--output", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text().strip() == line


def test_order_env_default(monkeypatch, capsys):
    # the default order is 6; the CLI reads no environment variable
    monkeypatch.setenv("QLOOP_ORDER", "3")
    assert cli.main(["lweight", "--l", "1", "--a", "1", "--m", "0", "--json"]) == 0
    doc = _json_line(capsys.readouterr().out)
    assert doc["meta"]["order"] == 6


# ----------------------------------------------------------------- subcommands

def test_serre_command(capsys):
    assert cli.main(["serre", "--l", "1", "--mmax", "1"]) == 0
    assert "Serre" in capsys.readouterr().out


def test_drinfeld_command(capsys):
    assert cli.main(["drinfeld", "--l", "1", "--a", "1", "--mmax", "1",
                     "--nmax", "1"]) == 0
    assert "loop relations" in capsys.readouterr().out


@pytest.mark.parametrize("argv,module,name", [
    (["drinfeld", "--l", "2", "--nmax", "1", "--mmax", "1"], rootvectors, "cartan_entry"),
    (["serre", "--l", "2", "--mmax", "1"], borelrep, "cartan_entry"),
], ids=["drinfeld", "serre"])
def test_no_relation_tree_outlives_its_command(monkeypatch, capsys, argv, module, name):
    # relation trees read the Cartan matrix when they are built, so a tree
    # kept from a broken run would fail the next one; the broken trees stay
    # interned, but a later run never reads them (a loop tree is cached on
    # its parts, whose scalar carries a_ij)
    with monkeypatch.context() as patch:
        patch.setattr(module, name, lambda *args: 0)
        assert cli.main(argv) == 1
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all checks passed"


def test_failing_drinfeld_report_keeps_the_nested_loop_order(monkeypatch, capsys):
    # the report lists (bar, a), then i, j, n and k, as the checks one by one give it
    l, nmax = 2, 2
    samples = list(itertools.product(range(2), repeat=l))
    monkeypatch.setattr(rootvectors, "cartan_entry", lambda *args: 0)
    want = []
    for bar in (False, True):
        for a in range(1, l + 2):
            spec = RepSpec(l, a, bar)
            for i in range(1, l + 1):
                for j in range(1, l + 1):
                    for n in range(1, nmax + 1):
                        for k in range(0, nmax + 1):
                            if not drinfeld_check(i, j, n, k, spec, samples):
                                want.append(discrepancy(a, bar, i, [j, n, k],
                                                        "drinfeld-plus-failure"))
                        for k in range(1, nmax + 1):
                            if not drinfeld_check_minus(i, j, n, k, spec, samples):
                                want.append(discrepancy(a, bar, i, [j, n, k],
                                                        "drinfeld-minus-failure"))
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, payload, lines:
                        payloads.append(payload) or emit(args, payload, lines))
    argv = ["drinfeld", "--l", str(l), "--nmax", str(nmax), "--mmax", "1", "--json"]
    assert cli.main(argv) == 1
    found = payloads[0]["discrepancies"]
    assert _json_line(capsys.readouterr().out)["discrepancies"] == found
    assert len(found) == len(want) > 0
    for got, expected in zip(found, want):
        assert got == expected
    # every entry owns its index vector; none is shared between modules
    assert len({id(d["m"]) for d in found}) == len(found)


def _level_two_real_doubled(monkeypatch):
    real = rootvectors.e_real
    monkeypatch.setattr(rootvectors, "e_real", lambda l, i, j, n:
                        Scale(QRational.from_int(2), real(l, i, j, n)) if n == 2
                        else real(l, i, j, n))


def _level_step_qcomm_doubled(monkeypatch):
    # the y x coefficient of a level step, where (rx|ry) = 0, is -2, not -1
    qcomm = rootvectors.qcomm
    monkeypatch.setattr(rootvectors, "qcomm", lambda x, rx, y, ry:
                        qcomm(x, rx, y, ry) if bilinear(rx, ry) else
                        Sum((Compose(x, y), Scale(QRational.from_int(-2), Compose(y, x)))))


def _cartan_entries_zero(monkeypatch):
    monkeypatch.setattr(rootvectors, "cartan_entry", lambda *args: 0)


def _later_scalars_doubled(monkeypatch):
    # the scalar c of the parts is doubled at k >= 1: an xi+ chain's first
    # relation keeps it, so only a match of each relation's c sees the change
    loop_parts = rootvectors.loop_parts

    def mutant(l, i, j, n, k, xi, sign):
        x, y, c, z = loop_parts(l, i, j, n, k, xi, sign)
        return x, y, (QRational.from_int(2) * c if k else c), z

    monkeypatch.setattr(rootvectors, "loop_parts", mutant)
    monkeypatch.setattr(cli, "loop_parts", mutant)


def _loop_failures(l, nmax, samples):
    """The failure entries of drinfeld_check and drinfeld_check_minus run on
    every loop relation in every module, in report order."""
    want = []
    for bar, a in itertools.product((False, True), range(1, l + 2)):
        spec = RepSpec(l, a, bar)
        for i, j, n in itertools.product(range(1, l + 1), range(1, l + 1), range(1, nmax + 1)):
            want += [discrepancy(a, bar, i, [j, n, k], "drinfeld-plus-failure")
                     for k in range(0, nmax + 1)
                     if not rootvectors.drinfeld_check(i, j, n, k, spec, samples)]
            want += [discrepancy(a, bar, i, [j, n, k], "drinfeld-minus-failure")
                     for k in range(1, nmax + 1)
                     if not rootvectors.drinfeld_check_minus(i, j, n, k, spec, samples)]
    return want


# (mutant, l, nmax): each mutant at every l <= 3 and nmax 4, except the
# mutated q-commutator, whose broken roots are slow to evaluate
_CHAIN_RUNS = [(mutate, l, 4) for mutate in (None, _level_two_real_doubled, _cartan_entries_zero)
               for l in (1, 2, 3)]
_CHAIN_RUNS += [(_level_step_qcomm_doubled, 1, 4), (_level_step_qcomm_doubled, 2, 2),
                (_later_scalars_doubled, 3, 4)]


@pytest.mark.parametrize("mutate,l,nmax", _CHAIN_RUNS,
                         ids=[f"{getattr(m, '__name__', '_clean')[1:]}-l{l}-nmax{n}"
                              for m, l, n in _CHAIN_RUNS])
def test_chain_decision_matches_every_relation_evaluated(cold_roots, capsys, mutate, l, nmax):
    # the CLI evaluates a relation after the first of its chain only where
    # the level step cannot prove it; a loop of the single checks evaluates
    # every relation, and the two must report the same failures
    if mutate is not None:
        mutate(cold_roots)
    code = cli.main(["drinfeld", "--l", str(l), "--nmax", str(nmax), "--mmax", "1", "--json"])
    found = _json_line(capsys.readouterr().out)["discrepancies"]
    borelrep._EVALUATORS.clear()
    want = _loop_failures(l, nmax, list(itertools.product(range(2), repeat=l)))
    assert found == want
    assert code == (1 if want else 0)
    assert bool(want) == (mutate is not None)


def test_a_doubled_level_two_real_root_fails_110_relations(cold_roots, capsys):
    # the doubled level-2 tree is not the level step of level 1, nor level 3
    # of it with the old scalar, so no chain may skip past it
    _level_two_real_doubled(cold_roots)
    assert cli.main(["drinfeld", "--l", "2", "--nmax", "3", "--mmax", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "110 failures"


def _dual_level_zero(monkeypatch, bracket):
    """e_dual with its level-zero trees at i >= 2 replaced by bracket(l, i, j,
    P_i, S_j); the level steps and every e'_{n delta} build on the replacement."""
    dual = rootvectors.e_dual

    def mutant(l, i, j, n):
        if n or i == 1:
            return dual(l, i, j, n)
        return bracket(l, i, j, rootvectors._chain(l, tuple(range(i - 1, 0, -1))),
                       dual(l, 1, j, 0))

    monkeypatch.setattr(rootvectors, "e_dual", mutant)
    monkeypatch.setattr(lweights, "e_dual", mutant)


def _p_root(l, i):
    return RootIndex.alpha(l, 1, i)


def _s_root(l, j):
    return RootIndex.delta(l) - RootIndex.alpha(l, 1, j)


_DUAL_BRACKETS = {
    # [P_i, S_j]_q as rootvectors builds it: the patch alone changes nothing
    "p-s": lambda l, i, j, p, s: qcomm(p, _p_root(l, i), s, _s_root(l, j)),
    # P_i climbed in the reverse order, [e_1, [e_2, ... e_{i-1}]_q]_q = e_real(l, 1, i, 0)
    "reversed-p": lambda l, i, j, p, s: qcomm(e_real(l, 1, i, 0), _p_root(l, i), s, _s_root(l, j)),
    # the bracket swapped, [S_j, P_i]_q
    "s-p": lambda l, i, j, p, s: qcomm(s, _s_root(l, j), p, _p_root(l, i)),
}

_VERIFY_L3 = ["verify", "--l", "3", "--order", "6", "--mmax", "2"]
_DRINFELD_L3 = ["drinfeld", "--l", "3", "--nmax", "2", "--mmax", "1"]
# (bracket, argv, last line): the mutants run at l = 3, because at l = 2
# P_2 = e_1 reads the same in either order and the reversed P_i changes nothing
_DUAL_RUNS = [
    ("p-s", _VERIFY_L3, "all checks passed"),
    ("p-s", _DRINFELD_L3, "all checks passed"),
    ("reversed-p", ["verify", "--l", "2", "--order", "6", "--mmax", "2"], "all checks passed"),
    ("reversed-p", _VERIFY_L3, "180 discrepancies"),
    ("reversed-p", _DRINFELD_L3, "136 failures"),
    ("s-p", _VERIFY_L3, "360 discrepancies"),
    ("s-p", _DRINFELD_L3, "124 failures"),
]


@pytest.mark.parametrize("bracket,argv,last", _DUAL_RUNS,
                         ids=[f"{b}-{argv[0]}-l{argv[2]}" for b, argv, _ in _DUAL_RUNS])
def test_a_wrong_dual_chain_fails_through_the_cli(cold_roots, capsys, bracket, argv, last):
    _dual_level_zero(cold_roots, _DUAL_BRACKETS[bracket])
    code = cli.main(argv)
    assert capsys.readouterr().out.splitlines()[-1] == last
    assert code == (0 if last == "all checks passed" else 1)


def _twisted_sum(twist):
    """Evaluator._sum evaluated child by child, each product term with the
    twist q**(vl.sr) replaced by q**twist(vl.sr)."""
    def _sum(self, children):
        acc = {}
        for child in children:
            c = ONE
            if type(child) is Scale and type(child.child) is Compose:
                c, child = child.c, child.child
            terms = self.symbolic(child) if type(child) is not Compose else [
                ((borelrep._vadd(sl, sr), borelrep._vadd(vl, vr)),
                 c * cl * cr * qp(twist(borelrep._dot(vl, sr))))
                for (sr, vr), cr in self.symbolic(child.right)
                for (sl, vl), cl in self.symbolic(child.left)]
            for k, x in terms:
                acc[k] = acc.get(k, QRational.zero()) + x
        return tuple((k, x) for k, x in acc.items() if x)
    return _sum


_TWISTS = {"kept": lambda k: k, "dropped": lambda k: 0, "negated": lambda k: -k}
_VERIFY_L3_M1 = ["verify", "--l", "3", "--order", "6", "--mmax", "1"]
_SERRE_L3 = ["serre", "--l", "3", "--mmax", "1"]
# (twist, argv, last line).  The kept twist checks the mutant harness itself.
# drinfeld sees neither mutant: without the twist a diagonal factor commutes
# with every operator, so each level step [E, e'_delta] is 0, every
# xi_{j,n>=1} and chi_{i,n>=2} vanishes and the relations read 0 = 0; the
# negated twist passes it as well.  So drinfeld alone cannot validate the
# product kernel, and serre cannot see the twist's sign: verify sees both.
_TWIST_RUNS = [
    ("kept", _VERIFY_L3_M1, "all checks passed"),
    ("dropped", _VERIFY_L3_M1, "138 discrepancies"),
    ("dropped", _SERRE_L3, "64 failures"),
    ("dropped", _DRINFELD_L3, "all checks passed"),
    ("negated", _VERIFY_L3_M1, "156 discrepancies"),
    ("negated", _SERRE_L3, "all checks passed"),
    ("negated", _DRINFELD_L3, "all checks passed"),
]


@pytest.mark.parametrize("twist,argv,last", _TWIST_RUNS,
                         ids=[f"{t}-{argv[0]}-l{argv[2]}" for t, argv, _ in _TWIST_RUNS])
def test_a_wrong_product_twist_fails_through_the_cli(cold_roots, capsys, twist, argv, last):
    cold_roots.setattr(borelrep.Evaluator, "_sum", _twisted_sum(_TWISTS[twist]))
    code = cli.main(argv)
    assert capsys.readouterr().out.splitlines()[-1] == last
    assert code == (0 if last == "all checks passed" else 1)


def _mutated(func, module, old: str, new: str):
    """func compiled from its own source with the one occurrence of old
    replaced by new, in a copy of module's namespace."""
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1
    scope = dict(vars(module))
    exec(compile(src.replace(old, new), module.__file__, "exec"), scope)
    return scope[func.__name__]


# single-point mutants of the one-pass q-commutator pair x y + c y x, with
# c = -q**k, a = vx.sy and b = vy.sx.  The kept mutant recompiles the source
# unchanged and checks the harness itself.
_PAIR_MUTANTS = {
    "kept": ("if a - b == kc:", "if a - b == kc:"),
    "swapped": ("a, b = _dot(vx, sy), _dot(vy, sx)", "b, a = _dot(vx, sy), _dot(vy, sx)"),
    "k-flipped": ("if a - b == kc:", "if b - a == kc:"),
    "power-dropped": ("-cy.shifted(kc)", "-cy"),
}
# (mutant, argv, last line).  verify sees all three.  serre sees none: a
# Serre sum has no pair x y + c y x.  drinfeld sees only the dropped power:
# the swapped exponents and the flipped k change chi, xi+-, e'_delta and
# e_{delta - alpha_i} in every module at l = 3, but the changed operators
# still satisfy the loop relations, so only the closed forms catch them.
_PAIR_RUNS = [
    ("kept", _VERIFY_L3_M1, "all checks passed"),
    ("kept", _DRINFELD_L3, "all checks passed"),
    ("swapped", _VERIFY_L3_M1, "168 discrepancies"),
    ("swapped", _SERRE_L3, "all checks passed"),
    ("swapped", _DRINFELD_L3, "all checks passed"),
    ("k-flipped", _VERIFY_L3_M1, "132 discrepancies"),
    ("k-flipped", _SERRE_L3, "all checks passed"),
    ("k-flipped", _DRINFELD_L3, "all checks passed"),
    ("power-dropped", _VERIFY_L3_M1, "132 discrepancies"),
    ("power-dropped", _SERRE_L3, "all checks passed"),
    ("power-dropped", _DRINFELD_L3, "220 failures"),
]


@pytest.mark.parametrize("mutant,argv,last", _PAIR_RUNS,
                         ids=[f"{m}-{argv[0]}-l{argv[2]}" for m, argv, _ in _PAIR_RUNS])
def test_a_wrong_commutator_pair_fails_through_the_cli(cold_roots, capsys, mutant, argv, last):
    cold_roots.setattr(borelrep.Evaluator, "_sum",
                       _mutated(borelrep.Evaluator._sum, borelrep, *_PAIR_MUTANTS[mutant]))
    code = cli.main(argv)
    assert capsys.readouterr().out.splitlines()[-1] == last
    assert code == (0 if last == "all checks passed" else 1)


class _FiledUnder(dict):
    """A result table that files each key under file(key)."""

    def __init__(self, file):
        super().__init__()
        self.file = file

    def get(self, key):
        return dict.get(self, self.file(key))

    def __setitem__(self, key, value):
        dict.__setitem__(self, self.file(key), value)


def _scalar_tables(monkeypatch, file_sum, old: str, new: str):
    """Fresh _ADD (filing each key under file_sum(key)), _MUL and _NEG, and
    QRational.__mul__ with old replaced by new in its source."""
    monkeypatch.setattr(exactfield, "_ADD", _FiledUnder(file_sum))
    monkeypatch.setattr(exactfield, "_MUL", {})
    monkeypatch.setattr(exactfield, "_NEG", {})
    mul = _mutated(QRational.__mul__, exactfield, old, new)
    monkeypatch.setattr(QRational, "__mul__", mul)
    monkeypatch.setattr(QRational, "__rmul__", mul)


_PRODUCT_SHIFT = "r.shifted(self._e + o._e)"
# single-point mutants of the core-keyed scalar tables: a sum filed under the
# two cores without their relative exponent, so the first sum of two cores
# answers for every other, and a product shifted by the left exponent alone.
# The kept mutant runs both harnesses unchanged.
_SCALAR_MUTANTS = {
    "kept": (lambda key: key, _PRODUCT_SHIFT, _PRODUCT_SHIFT),
    "sum-key": (lambda key: key[:2], _PRODUCT_SHIFT, _PRODUCT_SHIFT),
    "product-shift": (lambda key: key, _PRODUCT_SHIFT, "r.shifted(self._e)"),
}
_FACTOR_L5 = ["factor", "--l", "5"]
# (mutant, argv, last line).  factor does not see the sum key: the closed
# forms multiply their factors and add no two scalars.
_SCALAR_RUNS = [
    ("kept", _VERIFY_L3, "all checks passed"),
    ("kept", _DRINFELD_L3, "all checks passed"),
    ("kept", _FACTOR_L5, "all checks passed"),
    ("sum-key", _VERIFY_L3, "486 discrepancies"),
    ("sum-key", _DRINFELD_L3, "141 failures"),
    ("sum-key", _SERRE_L3, "24 failures"),
    ("sum-key", _FACTOR_L5, "all checks passed"),
    ("product-shift", _VERIFY_L3, "486 discrepancies"),
    ("product-shift", _DRINFELD_L3, "280 failures"),
    ("product-shift", _SERRE_L3, "90 failures"),
    ("product-shift", _FACTOR_L5, "10 failures"),
]


@pytest.mark.parametrize("mutant,argv,last", _SCALAR_RUNS,
                         ids=[f"{m}-{argv[0]}-l{argv[2]}" for m, argv, _ in _SCALAR_RUNS])
def test_a_wrong_scalar_table_fails_through_the_cli(cold_roots, capsys, mutant, argv, last):
    _scalar_tables(cold_roots, *_SCALAR_MUTANTS[mutant])
    code = cli.main(argv)
    assert capsys.readouterr().out.splitlines()[-1] == last
    assert code == (0 if last == "all checks passed" else 1)


# single-point mutants of _psi_parts on the nodes that carry no root at m = 0:
# the weight of a node without factors (i <= a - 2), and a numerator exponent
# of a node whose factors cancel there (i > a).  factor must read both kinds
# of node in full, so neither may be skipped as empty.
_CATALOG_MUTANTS = {
    "kept": ("[], [])", "[], [])"),
    "factorless-e0": ("s[k - 1], [], [])", "s[k - 1] + 1, [], [])"),
    "cancelling-num": ("-2 * (t - lo) - l + i - 1", "-2 * (t - lo) - l + i - 3"),
}
_CATALOG_RUNS = [
    ("kept", _FACTOR_L5, "all checks passed"),
    ("factorless-e0", _FACTOR_L5, "13 failures"),
    ("cancelling-num", _FACTOR_L5, "13 failures"),
]


@pytest.mark.parametrize("mutant,argv,last", _CATALOG_RUNS,
                         ids=[f"{m}-{argv[0]}-l{argv[2]}" for m, argv, _ in _CATALOG_RUNS])
def test_a_wrong_catalog_node_fails_through_the_cli(monkeypatch, capsys, mutant, argv, last):
    monkeypatch.setattr(lweights, "_psi_parts",
                        _mutated(lweights._psi_parts, lweights, *_CATALOG_MUTANTS[mutant]))
    code = cli.main(argv)
    assert capsys.readouterr().out.splitlines()[-1] == last
    assert code == (0 if last == "all checks passed" else 1)


def _counted_decisions(monkeypatch) -> list:
    """A list that gets one entry per relation the CLI evaluates."""
    calls = []
    vanishes_on = cli._vanishes_on
    monkeypatch.setattr(cli, "_vanishes_on", lambda spec, tree, samples:
                        calls.append(tree) or vanishes_on(spec, tree, samples))
    return calls


def test_loop_chains_skip_their_later_relations(cold_roots, capsys):
    # each (i, j, n, sign) chain evaluates its first relation only: 54 chains
    # in each of 8 modules, whose 54 trees are assembled once (bracket_tree
    # misses).  So no real or dual root above level nmax is evaluated, and
    # the memo holds under half of what evaluating all 1,512 trees leaves
    calls = _counted_decisions(cold_roots)
    assert cli.main(["drinfeld", "--l", "3", "--nmax", "3", "--mmax", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 54 * 8
    built = rootvectors.bracket_tree.cache_info()
    assert built.misses == len(set(calls)) == 54 and built.hits == len(calls) - 54
    deep = {f(3, j, j + 1, k) for f in (e_real, e_dual) for j in (1, 2, 3) for k in range(4, 7)}
    evs = list(borelrep._EVALUATORS.values())
    assert len(evs) == 8
    assert not any(node in deep for ev in evs for node in ev._cache)
    assert sum(len(ev._cache) for ev in evs) <= 2000


def test_a_nonzero_shift_makes_every_relation_evaluated(cold_roots, capsys):
    # the Jacobi step needs chi and e'_delta to commute; an operator with a
    # nonzero shift need not, so then every relation is evaluated
    # (each of the 189 trees is still assembled once, not once per module)
    calls = _counted_decisions(cold_roots)
    cold_roots.setattr(borelrep.Evaluator, "zero_shift", lambda self, expr: False)
    assert cli.main(["drinfeld", "--l", "3", "--nmax", "3", "--mmax", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "checked 1512 loop relations at l=3, n <= 3, occupations <= 1", "all checks passed"]
    assert len(calls) == 1512
    built = rootvectors.bracket_tree.cache_info()
    assert built.misses == len(set(calls)) == 189 and built.hits == len(calls) - 189


def test_each_later_loop_relation_follows_the_one_before():
    # each relation carries its loop_parts (C, X, c, Y); follows is the
    # operators loop_step matched with the parts of the relation just before:
    # chi_{i,n}, e'_{delta,alpha_j} and, for xi-, q**h_j
    later = 0
    for l in (1, 2, 3):
        relations = cli._loop_relations(l, 3)
        for (i, (j, n, k), parts, status, follows), prev in zip(relations, [None] + relations):
            minus = status == "drinfeld-minus-failure"
            xi, sign = (xi_minus, -1) if minus else (xi_plus, 1)
            assert parts == rootvectors.loop_parts(l, i, j, n, k, xi, sign)
            if k == (1 if minus else 0):
                assert follows is None, (l, i, j, n, k, status)
                continue
            assert parts[0] is prev[2][0] and parts[2] is prev[2][2]
            want = (chi(l, i, n), e_prime_imag(l, j, j + 1, 1))
            if minus:
                want += (CartanPower(CartanExponent.h(l, j)),)
            assert follows == want, (l, i, j, n, k, status)
            later += 1
    assert later == 210


def test_loop_relations_build_no_relation_tree(cold_roots, capsys):
    # _loop_relations interns only the nodes of the parts, C, X and Y, and
    # no node of a relation tree; drinfeld then assembles the tree of each
    # chain's first relation only, as every later one follows in every module
    nodes = {}
    cold_roots.setattr(borelrep, "_NODES", nodes)
    relations = cli._loop_relations(3, 3)
    reach, todo = set(), [x for _, _, p, _, _ in relations for x in (p[0], p[1], p[3])]
    while todo:
        node = todo.pop()
        if node not in reach:
            reach.add(node)
            if type(node) is Sum:
                todo += node.children
            elif type(node) is Scale:
                todo.append(node.child)
            elif type(node) is Compose:
                todo += (node.left, node.right)
    assert set(nodes.values()) == reach
    # [C, X] starts with the node C X, which no root vector holds
    assert not any((Compose, (p[0], p[1])) in nodes for _, _, p, _, _ in relations)
    assert cli.main(["drinfeld", "--l", "3", "--nmax", "3", "--mmax", "1"]) == 0
    capsys.readouterr()
    assert [(Compose, (p[0], p[1])) in nodes for _, _, p, _, _ in relations] == [
        follows is None for *_, follows in relations]


def test_a_relation_after_one_that_vanishes_only_on_the_samples_is_evaluated(
        monkeypatch, capsys):
    # at l = 1, a = 1, bar, e_1 lowers: it kills v_0 but is nonempty with m
    # symbolic, so the relation after it is evaluated even though its one
    # operator, the identity, acts with the zero shift; e_0 v_0 = v_1 fails it
    calls = _counted_decisions(monkeypatch)
    args = argparse.Namespace(l=1, a=1, bar=True, mmax=0, json=True, output=None)
    relations = [(1, [0], Gen(1), "first-failure", None),
                 (1, [1], Gen(0), "second-failure", (identity(1),))]
    assert cli._decide(args, relations, "test relations") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["checked 2 test relations", "1 failures"]
    assert json.loads(lines[2])["discrepancies"] == [discrepancy(1, True, 1, [1], "second-failure")]
    assert calls == [Gen(1), Gen(0)]


def test_failing_serre_report_keeps_the_nested_loop_order(monkeypatch, tmp_path, capsys):
    # with a_ij = 0 each Serre sum is the commutator [e_i, e_j], which fails
    # for neighbouring nodes only; the report lists (bar, a), then i and j
    l = 3
    samples = list(itertools.product(range(2), repeat=l))
    monkeypatch.setattr(borelrep, "cartan_entry", lambda *args: 0)
    want = [discrepancy(a, bar, i, [j], "serre-failure")
            for bar in (False, True) for a in range(1, l + 2)
            for i in range(l + 1) for j in range(l + 1)
            if i != j and not serre_check(i, j, RepSpec(l, a, bar), samples)]
    report = tmp_path / "report.json"
    assert cli.main(["serre", "--l", str(l), "--mmax", "1", "--output", str(report)]) == 1
    out = capsys.readouterr().out
    assert json.loads(report.read_text())["discrepancies"] == want
    assert out.splitlines() == ["checked 96 Serre relations at l=3, occupations <= 1",
                                "64 failures"]
    assert len(want) == 64
    # sha256 of stdout and of the report, recorded while serre and drinfeld
    # each had a loop of their own
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ed8e26094f14586abe7a74a9f8665e8e7b9fdf0438afc7618d6135017425ecde"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        "390596919dff564c713805f0d004ac4c104f8c3d59226f9ab27f29af12ccad53"


@pytest.mark.parametrize("argv", [
    ["verify", "--l", "2", "--order", "4", "--mmax", "1"],
    ["drinfeld", "--l", "2", "--nmax", "1", "--mmax", "1"],
    ["serre", "--l", "1", "--mmax", "2"],
])
def test_verdicts_need_no_polynomial_gcd(monkeypatch, capsys, argv):
    # every denominator on these paths is int * q^a * products of q - 1,
    # q + 1, q^2 + 1 and (for the [3]_q! of serre at l = 1) q^2 +- q + 1,
    # which trial division cancels; the command starts with no evaluator, so
    # every memo entry is computed here
    calls = []
    pgcd = exactfield._pgcd
    monkeypatch.setattr(exactfield, "_pgcd", lambda a, b: calls.append((a, b)) or pgcd(a, b))
    assert cli.main(argv) == 0
    assert "all checks passed" in capsys.readouterr().out
    assert calls == []


def test_closed_forms_need_no_polynomial_gcd(monkeypatch, capsys):
    # closed_psi passes coprime factors, so no URational gcd runs
    calls = []
    pgcd = exactfield._pgcd
    monkeypatch.setattr(exactfield, "_pgcd", lambda a, b: calls.append((a, b)) or pgcd(a, b))
    assert cli.main(["lweight", "--l", "3", "--a", "1", "--m", "2,2,2", "--json"]) == 0
    assert _json_line(capsys.readouterr().out)["discrepancies"] == []
    assert calls == []


def _checked_evaluators(capsys) -> list:
    """The evaluators of one verify, one drinfeld and one serre run at l = 2,
    each read when its command ends (the next command clears them).

    verify evaluates no e'_{n delta} with n >= 2; drinfeld at nmax 4 builds
    them all into chi_{i,4}."""
    evs = []
    for argv in (["verify", "--l", "2", "--order", "4", "--mmax", "1"],
                 ["drinfeld", "--l", "2", "--nmax", "4", "--mmax", "1"],
                 ["serre", "--l", "2", "--mmax", "1"]):
        assert cli.main(argv) == 0
        evs += borelrep._EVALUATORS.values()
    capsys.readouterr()
    return evs


def test_memoized_roots_have_one_shift(capsys):
    # the weight spaces are one-dimensional, so every tree the checks build
    # (the e'_{n delta}, xi+-, chi and Serre roots and all their subtrees)
    # moves v_m by one shift, the same for every m, or acts as zero
    evs = _checked_evaluators(capsys)
    roots = [e_prime_imag(2, i, i + 1, n) for i in (1, 2) for n in range(1, 5)]
    roots += [chi(2, i, 1) for i in (1, 2)]
    roots += [xi_plus(2, j, k) for j in (1, 2) for k in (0, 1, 2)]
    roots += [xi_minus(2, j, k) for j in (1, 2) for k in (1, 2)]
    for ev in evs:
        assert len(ev._cache) <= len(borelrep._NODES)
        for node, out in ev._cache.items():
            assert len({s for (s, _), _ in out}) <= 1, node
    # every named root is memoized, and nonzero in some representation
    for root in roots:
        assert any(ev._cache.get(root) for ev in evs), root


def test_relation_products_get_no_memo_entry(capsys):
    # a relation's [chi, xi] products are read once, inside their Sum, so they
    # are streamed into it and never memoized
    assert cli.main(["drinfeld", "--l", "3", "--nmax", "3", "--mmax", "1"]) == 0
    capsys.readouterr()
    chis = {chi(3, i, n) for i in (1, 2, 3) for n in (1, 2, 3)}
    evs = list(borelrep._EVALUATORS.values())
    assert len(evs) == 8
    for ev in evs:
        for node in ev._cache:
            assert not (type(node) is borelrep.Compose
                        and (node.left in chis or node.right in chis)), node
    assert sum(len(ev._cache) for ev in evs) <= 4000


def test_verify_evaluates_no_deep_imaginary_root(capsys):
    # each phi_i is summed to all orders from E_0, F, e'_delta and two
    # products, so no e'_{n delta} with n >= 2 is evaluated and the memo does
    # not grow with --order
    sizes = []
    for order in (8, 40):
        assert cli.main(["verify", "--l", "3", "--order", str(order), "--mmax", "2"]) == 0
        capsys.readouterr()
        deep = {e_prime_imag(3, i, i + 1, n) for i in (1, 2, 3) for n in range(2, order + 1)}
        evs = list(borelrep._EVALUATORS.values())
        assert len(evs) == 8
        assert not any(node in deep for ev in evs for node in ev._cache)
        sizes.append(sum(len(ev._cache) for ev in evs))
    assert sizes[0] == sizes[1] > 0


def _memos() -> dict:
    """Each evaluator's memo entries, under its (l, a, bar)."""
    return {key: (dict(ev._cache), dict(ev._zero_shift))
            for key, ev in borelrep._EVALUATORS.items()}


def test_a_command_reads_no_evaluator_of_the_one_before(capsys):
    # evaluators live for one command: after drinfeld, verify holds exactly
    # the evaluators and memo entries it builds when run alone
    verify = ["verify", "--l", "2", "--order", "4", "--mmax", "1"]
    assert cli.main(verify) == 0
    alone = _memos()
    assert len(alone) == 6
    assert cli.main(["drinfeld", "--l", "2", "--nmax", "3", "--mmax", "1"]) == 0
    assert _memos() != alone
    assert cli.main(verify) == 0
    capsys.readouterr()
    assert _memos() == alone


def test_interned_values_outlive_a_command(capsys):
    # the node and scalar tables and the root-vector caches live for the
    # process, so values made before a command are the interned ones after it
    node, root, x = Gen(2), xi_plus(2, 1, 2), QRational.from_int(3) / qnum(2)
    assert cli.main(["drinfeld", "--l", "2", "--nmax", "2", "--mmax", "1"]) == 0
    capsys.readouterr()
    assert Gen(2) is node and copy.copy(node) is node
    assert xi_plus(2, 1, 2) is root and copy.copy(root) is root
    assert QRational.from_int(3) / qnum(2) is x and copy.copy(x) is x


def test_specialized_targets_stay_in_the_fock_space(capsys):
    # a term whose target leaves the Fock space carries [0]_q = 0, so its
    # coefficients sum to zero and the specialization drops it
    evs = _checked_evaluators(capsys)
    samples = list(itertools.product(range(3), repeat=2))
    for ev in evs:
        for node in ev._cache:
            for m in samples:
                assert all(min(t) >= 0 for t, _ in ev.terms(node, m)), (node, m)


def test_factor_command_and_aliases(capsys):
    assert cli.main(["factor", "--l", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["factor", "--l", "1", "--kind", "pref-minus", "--index", "1"]) == 0
    out = capsys.readouterr().out
    assert "pref-minus[1]: ok" in out
    assert cli.main(["factor", "--l", "1", "--kind", "full-tensor",
                     "--zs-list", "q,q^2"]) == 0
    capsys.readouterr()
    # --kind all takes both: --zs for the indexed families, --zs-list for the tensor
    assert cli.main(["factor", "--l", "1", "--kind", "all", "--zs", "q^3",
                     "--zs-list", "q,q^2", "--json"]) == 0
    assert _json_line(capsys.readouterr().out)["meta"]["zs"] == repr(QRational.q_power(3))


def _factor_verdicts(capsys, argv):
    cli.main(["factor"] + argv)
    return capsys.readouterr().out.splitlines()[:-1]


@pytest.mark.parametrize("broken", [None, "xi_pref_minus"])
@pytest.mark.parametrize("l", [3, 4])
def test_factor_all_is_the_concatenation_of_the_single_runs(monkeypatch, capsys, l, broken):
    # --kind all and one run per --index decide each identity alike, also
    # where some fail: with the negative family's shift zeroed, only it does
    if broken:
        monkeypatch.setattr(lweights, broken, lambda l, i: Weight.zero(l))
    twist = ["--zs=-2*q^-1"]
    single = []
    for kind, extra in (("osc", 1), ("pref-minus", 0), ("pref-plus", 0)):
        for index in range(1, l + extra + 1):
            single += _factor_verdicts(
                capsys, ["--l", str(l), "--kind", kind, "--index", str(index)] + twist)
    single += _factor_verdicts(capsys, ["--l", str(l), "--kind", "full-tensor"] + twist)
    together = _factor_verdicts(capsys, ["--l", str(l), "--kind", "all"] + twist)
    assert together == single
    assert len(together) == 3 * l + 2
    assert sum("MISMATCH" in line for line in together) == (l if broken else 0)


def test_dump_op_generator(capsys):
    assert cli.main(["dump-op", "--l", "1", "--a", "2", "--gen", "0", "--json"]) == 0
    doc = _json_line(capsys.readouterr().out)
    assert doc["op"] == "e_0"
    assert doc["image"]["atoms"] == [["bdag", 1]]
    assert doc["cartan"]["atoms"] == [["qN", [2]]]


def test_dump_op_root_action(capsys):
    assert cli.main(["dump-op", "--l", "1", "--a", "1", "--root", "prime:1,1",
                     "--mmax", "1", "--json"]) == 0
    doc = _json_line(capsys.readouterr().out)
    assert doc["op"].startswith("e'")
    assert [entry["m"] for entry in doc["action"]] == [[0], [1]]
    for entry in doc["action"]:
        assert all(mm == entry["m"] for mm, _ in entry["out"])


def test_dump_op_bad_root_spec(capsys):
    for root, message in (("bogus", "cannot parse root spec"), ("real:1", "wrong arity")):
        with pytest.raises(SystemExit) as err:
            cli.main(["dump-op", "--l", "1", "--a", "1", "--root", root])
        assert err.value.code == 2, root
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == "", root


@pytest.mark.parametrize("root", ["real:2,1,0", "dual:3,3,0", "prime:2,4,0", "imag:0,2",
                                  "imag:3,2"])
def test_dump_op_refuses_a_pair_that_is_no_finite_root(root, capsys):
    # RootIndex.alpha refuses the pair before prime:2,4,0 reaches its level check;
    # imag:i,n is refused through its alpha_{i,i+1}
    with pytest.raises(SystemExit) as err:
        cli.main(["dump-op", "--l", "2", "--a", "1", "--root", root])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == \
        "qloop: error: finite root alpha_{ij} needs 1 <= i < j <= l+1"


def test_dump_op_imag_takes_two_numbers(capsys):
    # imag:i,n has no j; a third number is an arity error, not an ignored one
    with pytest.raises(SystemExit) as err:
        cli.main(["dump-op", "--l", "2", "--a", "1", "--root", "imag:1,7,2", "--mmax", "0"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "wrong arity" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [["--l", "1", "--a", "1", "--root", "real:1,2,300", "--mmax", "0"],
                                  ["--l", "2", "--a", "2", "--root", "dual:1,2,300", "--mmax", "0"],
                                  ["--l", "2", "--a", "1", "--root", "prime:1,300", "--mmax", "0"],
                                  ["--l", "2", "--a", "1", "--root", "imag:1,40", "--mmax", "1"]],
                         ids=["real", "dual", "prime", "imag"])
def test_dump_op_reaches_deep_levels(capsys, argv):
    # a level-n tree nests n levels; evaluated from the bottom up, it needs
    # no deeper recursion than one level; e_{n delta} adds 2n - 1 nodes per
    # level, where the composition sum in tests/oracles has 2**(n-1) products
    assert cli.main(["dump-op", *argv, "--json"]) == 0
    assert _json_line(capsys.readouterr().out)["action"][0]["m"] == [0] * int(argv[1])


# sha256 of stdout and of the --output report, recorded before the evaluator
# memo moved from FockStates to term tuples, the lweight-mirrored, imag-12
# and nmax-8 rows while lweight built its l-weight from the checks' forms
# and e_{n delta} was the sum over compositions, and the dump-op-gen rows
# while dump-op --gen normalized the image word before printing it; output
# must stay byte-stable.  Keys are the test ids.
_GOLDEN = {
    "verify":
    (["verify", "--l", "3", "--order", "8", "--mmax", "2", "--zs=-1*q^-3"],
     "83b558125632cd8f50bd6dfba81a657f7639182f2bc63052b272bb649141ca0e",
     "3f51c83e7f49503fa33223074f2bed5fdd3ce1fa5a9cedbef88c6f86fc804903"),
    "drinfeld":
    (["drinfeld", "--l", "3", "--nmax", "3", "--mmax", "1"],
     "246265bb5f3dd489a50497e6a14a2fc9ca44964289ca9d28368ab58c771f4f90",
     "2c2c01e272579b640368bc22e1156fa97379b329a9c003ff368a32f058bcad3f"),
    "factor":
    (["factor", "--l", "20", "--kind", "all", "--zs=-2*q^0",
      "--zs-list=-2*q^3,1*q^-1,1*q^0,-1*q^0,-1*q^3,1*q^0,1*q^-3,-2*q^1,1*q^0,-2*q^-2,1*q^1,"
      "2*q^0,-2*q^3,-1*q^-3,1*q^1,-1*q^2,1*q^2,1*q^1,-2*q^-1,1*q^-1,-1*q^-1"],
     "99ba3f47fb2065a37d27a0f4034a6c1a48e395ef162a266feb7bb68a937fd088",
     "d3cc02c4c89839b18cb6c5ebacea1a534721dc7120a99f93b6045d5b3d9aa7f4"),
    "serre":
    (["serre", "--l", "3", "--mmax", "2"],
     "dcb1c3419244e8753f526f5d75b9e9f204ebfc42dcca4cdc6e94244dec9df83e",
     "2c2c01e272579b640368bc22e1156fa97379b329a9c003ff368a32f058bcad3f"),
    "lweight":
    (["lweight", "--l", "3", "--a", "2", "--m", "1,0,2", "--bar", "--zs", "q^2", "--json"],
     "26ef961e1b9cba36bc86469441a7735d98ba6fe50fa9b8c2afb3bc28affcfe91",
     "7ea69c8bbc640c177ba6767200bd2fd7814ac8c1780d4ff1acc0fca1d7dc97e4"),
    "lweight-mirrored":
    (["lweight", "--l", "4", "--a", "5", "--m", "2,0,1,3", "--bar", "--json"],
     "f66aab1fbb75d16bdd15e18571c2b5d411ffc5df2c3db305ff8d13559293313a",
     "dc0b1fe756a089f060f02e5271ed3d8803fa54dc607150be656dddddc9d99599"),
    "dump-op":
    (["dump-op", "--l", "3", "--a", "2", "--root", "imag:1,3", "--json"],
     "c9fa2c5ffec042c49a22d1eaa5580e3087b3d19fd023ff6c3a40cfea81820c0f",
     "2f747e6b8595215e2e6ebc8abaaaf9e5d4fb81ecd55ae30098a172c9e034abd6"),
    "dump-op-gen":
    (["dump-op", "--l", "3", "--a", "2", "--gen", "0", "--json"],
     "790d11480705a2b0345281f53f0b17380dae40ab317539404fdd0048a963620b",
     "53f67ff66a345d1f0d52a55e4c1267dbd9a9e1bebafee37671748659951d3196"),
    "dump-op-gen-bar":
    (["dump-op", "--l", "3", "--a", "2", "--bar", "--gen", "2", "--json"],
     "e45b717c4cbe49d61e985b6de38057ecf48c8cf7ca9e7b2cd72cc9a97971c720",
     "17a14e52ca841d238bf21d73e16f751a78f9d307ab0ebfefedeefd78da1c203a"),
    "dump-op-imag-12":
    (["dump-op", "--l", "2", "--a", "1", "--root", "imag:1,12", "--mmax", "0", "--json"],
     "0b1ccbf195af3604ef3d207760623baac8eeadd6883a1a240106cfa04caf5b3e",
     "43a26f91fc3223cec5e91024c7f481dbae7f05e27e960782bf5407fe74df94d8"),
    "drinfeld-nmax-8":
    (["drinfeld", "--l", "2", "--nmax", "8", "--mmax", "1"],
     "679ba776a01fe1606fced0801e2292e87294e7fb3d19e8aa12a024e9f7d9bb16",
     "92388b6de7f887ce018bbccb44748c46d39e7dab96204e591948170c1b298e64"),
    # the benchmark argv at seeds 2 and 3 (seed 1 is the verify, drinfeld and
    # factor rows; drinfeld's argv takes no seed) and a primed imaginary root,
    # recorded before a Sum's q-commutator pair was evaluated in one pass
    "verify-grid-seed2":
    (["verify", "--l", "3", "--order", "8", "--mmax", "2", "--zs=-2*q^3"],
     "83b558125632cd8f50bd6dfba81a657f7639182f2bc63052b272bb649141ca0e",
     "cbcc274d99dc9895222561e00d5c1a4b5593f4afce89fa9020720055e98a40d1"),
    "verify-grid-seed3":
    (["verify", "--l", "3", "--order", "8", "--mmax", "2", "--zs=2*q^-1"],
     "83b558125632cd8f50bd6dfba81a657f7639182f2bc63052b272bb649141ca0e",
     "da9c761aeee29f50d3c62eb9a5407dd8ee0e5fd587d6ce24f1a2aeefd4bf1ddd"),
    "factor-closed-seed2":
    (["factor", "--l", "20", "--kind", "all", "--zs=2*q^-2",
      "--zs-list=-2*q^3,-1*q^-3,-1*q^1,-1*q^-3,-1*q^-2,-1*q^0,-2*q^-2,2*q^2,2*q^3,-1*q^-2,2*q^3,"
      "2*q^2,2*q^0,-1*q^-1,-1*q^1,-1*q^3,-1*q^-3,-2*q^2,-1*q^0,1*q^-3,-1*q^1"],
     "99ba3f47fb2065a37d27a0f4034a6c1a48e395ef162a266feb7bb68a937fd088",
     "f50bb05f6aeaac9439822f9426c63c0b8f25ab44691ba0983f3a2359c9556ee3"),
    "factor-closed-seed3":
    (["factor", "--l", "20", "--kind", "all", "--zs=1*q^1",
      "--zs-list=1*q^0,-2*q^0,-1*q^-1,-1*q^3,-2*q^0,1*q^-3,1*q^3,-1*q^-2,1*q^-2,-2*q^3,-1*q^-1,"
      "1*q^1,1*q^1,1*q^-3,-1*q^1,-1*q^-3,1*q^-2,1*q^-3,2*q^2,2*q^-1,-1*q^-3"],
     "99ba3f47fb2065a37d27a0f4034a6c1a48e395ef162a266feb7bb68a937fd088",
     "e514b231a2c3715f037b03baf4f4510b298d4589ed5a0c9171341b664eaf5496"),
    "dump-op-prime-2-4":
    (["dump-op", "--l", "3", "--a", "2", "--root", "prime:2,4", "--json"],
     "0e207b26370e9216a653b1b1dd2d73c65d732f3e1ae98a28b1e56d1983aa50a0",
     "8b440c4e630732d5526d77c595188601b8c1e2cb4682fa2b1b2ae2ae443a458d"),
}


@pytest.mark.parametrize("argv,stdout_sha,report_sha", _GOLDEN.values(), ids=_GOLDEN)
def test_output_is_byte_stable(tmp_path, capsys, argv, stdout_sha, report_sha):
    report = tmp_path / "report.json"
    assert cli.main(argv + ["--output", str(report)]) == 0
    # with --output the JSON goes to the file, not to stdout
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha


def test_failing_report_is_byte_stable(monkeypatch, tmp_path, capsys):
    # o_i of the wrong sign fails 468 series checks; sha256 of stdout and of
    # the --output report, recorded before the series checks were built with
    # m symbolic: the failure entries must not change either
    monkeypatch.setattr(lweights, "o_sign", lambda i, l: -o_sign(i, l))
    report = tmp_path / "report.json"
    argv = ["verify", "--l", "3", "--order", "6", "--mmax", "2", "--zs=2*q^-2",
            "--output", str(report)]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "468 discrepancies"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "579afb3e03fcf887fd8e5a556d4bfb4af4e82c5682c095590e7c78f12c5131a9"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        "2f99a42d8b30f4ff9e3431b5f307116c7d8b575eb994557075ed38b96d9b0e93"
