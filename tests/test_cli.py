"""Command-line interface: exit codes, JSON schema, determinism."""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qloop import borelrep, cli, exactfield
from qloop.exactfield import QRational, urational_to_json
from qloop.lweights import closed_psi
from qloop.borelrep import RepSpec

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


def test_usage_errors_exit_two(monkeypatch, tmp_path, capsys):
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
        ["factor", "--l", "2", "--kind", "pref_minus", "--zs-list", "q,q,q"],
        # full-tensor with --zs-list has no use for --zs
        ["factor", "--l", "1", "--kind", "full-tensor", "--zs", "q^5", "--zs-list", "q,q"],
        ["factor", "--l", "1", "--kind", "full_tensor", "--zs", "q^2", "--zs-list", "q,q"],
        # twist exponents beyond +-1000, one factor's or the product's
        ["verify", "--l", "1", "--zs", "q^1000000000"],
        ["verify", "--l", "1", "--zs=q^1000*q^1000"],
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2, argv
        assert "error:" in capsys.readouterr().err, argv
    monkeypatch.setenv("QLOOP_ORDER", "x")
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--l", "1"])
    assert err.value.code == 2
    assert "QLOOP_ORDER" in capsys.readouterr().err


def test_verification_failure_exits_one(monkeypatch, capsys):
    fake = [{"l": 1, "a": 1, "bar": False, "i": 1, "m": [0], "status": "psi-mismatch",
             "expected": "x", "computed": "y"}]
    monkeypatch.setattr(cli, "verify_grid", lambda *a, **k: list(fake))
    assert cli.main(["verify", "--l", "1"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "psi-mismatch" in out


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
    "--kind": st.sampled_from(("osc", "pref-minus", "pref_plus", "full-tensor", "all")),
    "--root": st.sampled_from(("real:1,2,0", "dual:1,2,1", "prime:1,1", "imag:0,1",
                               "imag:1,0", "prime:2,1", "real:2,1,0", "imag:3,1", "bogus")),
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
            # the '=' form keeps a leading '-' in the value from reading as a flag
            argv.append(f"{flag}={draw(_FLAG_VALUES[flag])}")
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
    monkeypatch.setenv("QLOOP_ORDER", "3")
    assert cli.main(["lweight", "--l", "1", "--a", "1", "--m", "0", "--json"]) == 0
    doc = _json_line(capsys.readouterr().out)
    assert doc["meta"]["order"] == 3


# ----------------------------------------------------------------- subcommands

def test_serre_command(capsys):
    assert cli.main(["serre", "--l", "1", "--mmax", "1"]) == 0
    assert "Serre" in capsys.readouterr().out


def test_drinfeld_command(capsys):
    assert cli.main(["drinfeld", "--l", "1", "--a", "1", "--mmax", "1",
                     "--nmax", "1"]) == 0
    assert "loop relations" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--l", "2", "--order", "4", "--mmax", "1"],
    ["drinfeld", "--l", "2", "--nmax", "1", "--mmax", "1"],
])
def test_verdicts_need_no_polynomial_gcd(monkeypatch, capsys, argv):
    # every denominator on these paths is int * q^a * products of q - 1,
    # q + 1 and q^2 + 1, which trial division cancels; cold evaluators, so
    # that every scalar is computed here
    calls = []
    pgcd = exactfield._pgcd
    monkeypatch.setattr(exactfield, "_pgcd", lambda a, b: calls.append((a, b)) or pgcd(a, b))
    monkeypatch.setattr(borelrep, "_EVALUATORS", {})
    assert cli.main(argv) == 0
    assert "all checks passed" in capsys.readouterr().out
    assert calls == []


def test_closed_forms_need_no_polynomial_gcd(monkeypatch, capsys):
    # closed_psi passes coprime factors, so no URational gcd runs
    calls = []
    pgcd = exactfield._pgcd
    monkeypatch.setattr(exactfield, "_pgcd", lambda a, b: calls.append((a, b)) or pgcd(a, b))
    monkeypatch.setattr(borelrep, "_EVALUATORS", {})
    assert cli.main(["lweight", "--l", "3", "--a", "1", "--m", "2,2,2", "--json"]) == 0
    assert _json_line(capsys.readouterr().out)["discrepancies"] == []
    assert calls == []


def test_memoized_results_have_at_most_one_term(monkeypatch, capsys):
    # the weight spaces are one-dimensional, so every root-vector tree the
    # checks build sends v_m to a multiple of one basis vector or to zero
    monkeypatch.setattr(borelrep, "_EVALUATORS", {})
    assert cli.main(["verify", "--l", "2", "--order", "4", "--mmax", "1"]) == 0
    assert cli.main(["drinfeld", "--l", "2", "--nmax", "1", "--mmax", "1"]) == 0
    capsys.readouterr()
    sizes = [len(out) for ev in borelrep._EVALUATORS.values() for out in ev._cache.values()]
    assert max(sizes) == 1 and sizes.count(1) > 1000 and sizes.count(0) > 1000


def test_factor_command_and_aliases(capsys):
    assert cli.main(["factor", "--l", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["factor", "--l", "1", "--kind", "pref_minus", "--index", "1"]) == 0
    out = capsys.readouterr().out
    assert "pref-minus[1]: ok" in out
    assert cli.main(["factor", "--l", "1", "--kind", "full_tensor",
                     "--zs-list", "q,q^2"]) == 0
    capsys.readouterr()
    # --kind all takes both: --zs for the indexed families, --zs-list for the tensor
    assert cli.main(["factor", "--l", "1", "--kind", "all", "--zs", "q^3",
                     "--zs-list", "q,q^2", "--json"]) == 0
    assert _json_line(capsys.readouterr().out)["meta"]["zs"] == repr(QRational.q_power(3))


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
    assert cli.main(["dump-op", "--l", "1", "--a", "1", "--root", "bogus"]) == 2
    assert cli.main(["dump-op", "--l", "1", "--a", "1", "--root", "real:1"]) == 2


# sha256 of stdout and of the --output report, recorded before the evaluator
# memo moved from FockStates to term tuples; output must stay byte-stable
_GOLDEN = [
    (["verify", "--l", "3", "--order", "8", "--mmax", "2", "--zs=-1*q^-3"],
     "83b558125632cd8f50bd6dfba81a657f7639182f2bc63052b272bb649141ca0e",
     "3f51c83e7f49503fa33223074f2bed5fdd3ce1fa5a9cedbef88c6f86fc804903"),
    (["drinfeld", "--l", "3", "--nmax", "3", "--mmax", "1"],
     "246265bb5f3dd489a50497e6a14a2fc9ca44964289ca9d28368ab58c771f4f90",
     "2c2c01e272579b640368bc22e1156fa97379b329a9c003ff368a32f058bcad3f"),
    (["factor", "--l", "20", "--kind", "all", "--zs=-2*q^0",
      "--zs-list=-2*q^3,1*q^-1,1*q^0,-1*q^0,-1*q^3,1*q^0,1*q^-3,-2*q^1,1*q^0,-2*q^-2,1*q^1,"
      "2*q^0,-2*q^3,-1*q^-3,1*q^1,-1*q^2,1*q^2,1*q^1,-2*q^-1,1*q^-1,-1*q^-1"],
     "99ba3f47fb2065a37d27a0f4034a6c1a48e395ef162a266feb7bb68a937fd088",
     "d3cc02c4c89839b18cb6c5ebacea1a534721dc7120a99f93b6045d5b3d9aa7f4"),
    (["serre", "--l", "3", "--mmax", "2"],
     "dcb1c3419244e8753f526f5d75b9e9f204ebfc42dcca4cdc6e94244dec9df83e",
     "2c2c01e272579b640368bc22e1156fa97379b329a9c003ff368a32f058bcad3f"),
    (["lweight", "--l", "3", "--a", "2", "--m", "1,0,2", "--bar", "--zs", "q^2", "--json"],
     "26ef961e1b9cba36bc86469441a7735d98ba6fe50fa9b8c2afb3bc28affcfe91",
     "7ea69c8bbc640c177ba6767200bd2fd7814ac8c1780d4ff1acc0fca1d7dc97e4"),
    (["dump-op", "--l", "3", "--a", "2", "--root", "imag:1,3", "--json"],
     "c9fa2c5ffec042c49a22d1eaa5580e3087b3d19fd023ff6c3a40cfea81820c0f",
     "2f747e6b8595215e2e6ebc8abaaaf9e5d4fb81ecd55ae30098a172c9e034abd6"),
]


@pytest.mark.parametrize("argv,stdout_sha,report_sha", _GOLDEN, ids=[g[0][0] for g in _GOLDEN])
def test_output_is_byte_stable(tmp_path, capsys, argv, stdout_sha, report_sha):
    report = tmp_path / "report.json"
    assert cli.main(argv + ["--output", str(report)]) == 0
    # with --output the JSON goes to the file, not to stdout
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha
