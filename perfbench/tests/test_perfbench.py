"""The benchmark's own tests: python3 -m pytest perfbench/tests

They run the smoke sizes, so the whole file takes seconds.
"""

import contextlib
import io
import shutil
import subprocess
import sys
import time

import pytest

import child
import hostspeed
import probe
import run
import tracer
import workloads

WORKLOADS = sorted(workloads.SIZES)


def quiet(*_):
    pass


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_untraced(name):
    res = run.run(name, "smoke", seed=11, seconds=0, trace=False, log=quiet)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_traced_counts_repeat(name):
    first, second = (run.run(name, "smoke", seed=11, seconds=0, trace=True, log=quiet)
                     for _ in range(2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
        assert set(res["metrics"]) == set(tracer.LAYER_METRICS)
    for key in tracer.COUNT_METRICS:
        assert first["metrics"][key] == second["metrics"][key], key


def _bindings():
    """Every attribute of every qloop module and traced class, by identity."""
    import qloop.cli  # noqa: F401  (loads every module the tracer patches)
    out = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname == "qloop" or modname.startswith("qloop."):
            out.update({(modname, k): v for k, v in vars(mod).items()})
    for modname, clsname, *_ in tracer.ENTRY_POINTS:
        if clsname:
            cls = getattr(sys.modules[f"qloop.{modname}"], clsname)
            out.update({(clsname, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_restores_every_wrapped_function():
    before = _bindings()
    tr = tracer.Tracer("restore-test")
    tr.install()
    try:
        during = _bindings()
        wrapped = {key for key in before if during[key] is not before[key]}
        for modname, clsname, attr, *_ in tracer.ENTRY_POINTS:
            key = (clsname, attr) if clsname else (f"qloop.{modname}", attr)
            assert key in wrapped, key
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_counts_a_known_call_pattern():
    from qloop.exactfield import QRational
    tr = tracer.Tracer("count-test")
    tr.install()
    try:
        QRational((1, 1), (1, 1))   # gcd path, cancels q+1
        QRational((1, 1), (1, 0, 1))  # gcd path, nothing to cancel
        QRational((0, 1), (1,))    # monomial side: no gcd
    finally:
        tr.uninstall()
    qr = tr.stats["exactfield.qrational"]
    assert (qr.calls, qr.gcd_path, qr.useful) == (3, 2, 1)


def test_tracer_keeps_its_own_work_out_of_enclosing_calls():
    from qloop.exactfield import QRational

    class SlowClassifier(tracer.Tracer):
        @staticmethod
        def _gcd_classifier(st):
            def classify(obj, num, den):
                time.sleep(0.02)
            return classify

    tr = SlowClassifier("overhead-test")
    outer, inner = tracer.Stat(), tracer.Stat()
    tr.install()
    try:
        # a span around a hot call around five QRational constructions
        build = tr._hot(lambda: [QRational((1, 1), (1, 1)) for _ in range(5)], inner)
        t0 = time.perf_counter()
        tr._span("outer", build, outer)()
        elapsed = time.perf_counter() - t0
    finally:
        tr.uninstall()
    assert elapsed >= 0.1 and tr._overhead[0] >= 0.1
    for st in (outer, inner, tr.stats["exactfield.qrational"]):
        assert st.self_s < 0.05
    assert outer.busy_s < 0.05


def test_host_sampler_restores_the_signal_state():
    import gc
    import signal
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * hostspeed.PERIOD_S:
            pass
        t1 = time.perf_counter()
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gc.isenabled()
    inside = [c for t, _, c in sampler.samples if t0 <= t < t1]
    assert len(sampler.samples) == len(inside) + 2 and len(inside) >= 3
    summary = sampler.summary(t0, t1)
    assert summary["host_samples"] == len(sampler.samples)
    assert summary["host_sampling_s"] == sum(inside)
    assert all(0 < d < c for _, d, c in sampler.samples)


def test_adjusted_time_scales_by_host_speed():
    at_ref = {"host_sample_mean_s": hostspeed.REF_SAMPLE_S, "host_sampling_s": 0.5}
    assert hostspeed.adjusted(2.5, at_ref) == pytest.approx(2.0)
    slow = dict(at_ref, host_sample_mean_s=1.5 * hostspeed.REF_SAMPLE_S)
    assert hostspeed.adjusted(3.5, slow) == pytest.approx(2.0)


def test_benchmark_json_lists_what_the_runs_report():
    import json
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SIZES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        tracer.LAYER_METRICS


def test_expected_check_counts():
    full = {name: workloads.expected_checks(name, workloads.inputs(name, "full", 0))
            for name in WORKLOADS}
    assert full == {"verify-grid": 648, "drinfeld-loop": 1512, "factor-closed": 62}


@pytest.mark.parametrize("name", WORKLOADS)
def test_reported_counts_match_expected_at_smoke_size(name):
    from qloop import cli
    p = workloads.inputs(name, "smoke", 4)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(workloads.argv(name, p)) == 0
    assert workloads.reported_checks(name, p, buf.getvalue()) == \
        workloads.expected_checks(name, p)
    wrong = dict(p, l=p["l"] + 1)
    assert workloads.reported_checks(name, wrong, buf.getvalue()) != \
        workloads.expected_checks(name, wrong)
    assert workloads.reported_checks(name, p, buf.getvalue() + "\n2 failures") == -1


def test_inputs_are_seeded_and_cover_negative_twists():
    for name in WORKLOADS:
        assert workloads.inputs(name, "full", 7) == workloads.inputs(name, "full", 7)
    assert workloads.inputs("verify-grid", "full", 1) != workloads.inputs("verify-grid", "full", 2)
    domain = set(workloads.twist_domain())
    signs = set()
    for seed in range(20):
        p = workloads.inputs("factor-closed", "full", seed)
        assert {p["zs"], *p["zs_list"]} <= domain
        assert any(t.startswith("-") for t in p["zs_list"])
        signs.add(workloads.inputs("verify-grid", "full", seed)["zs"][0] == "-")
    assert signs == {True, False}


def test_negative_twist_reaches_the_cli():
    from qloop import cli
    p = dict(workloads.inputs("verify-grid", "smoke", 0), zs="-2*q^3")
    argv = workloads.argv("verify-grid", p)
    assert "--zs=-2*q^3" in argv
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def test_probe_tables_hold_only_non_vacuous_entries():
    recorded = probe.load()
    for name in WORKLOADS:
        for size, p in workloads.SIZES[name].items():
            table = recorded[name][size]
            assert len(table) >= probe.PICKS
            assert set(table) <= set(probe.candidates(name, p))


def test_clean_repetition_passes_in_process():
    res = child.run_rep(run.make_job("drinfeld-loop", "smoke", 5))
    assert res["failures"] == []


def test_zero_evaluator_fails_drinfeld_loop(monkeypatch):
    from qloop.borelrep import Evaluator
    from qloop.fock import FockState
    monkeypatch.setattr(Evaluator, "apply_basis",
                        lambda self, expr, m: FockState.zero(self.spec.l))
    res = child.run_rep(run.make_job("drinfeld-loop", "smoke", 5))
    # every relation holds for the zero operator, so only the probe objects
    assert res["failures"] and all("probe mismatch" in f for f in res["failures"])


def test_refuses_to_run_without_the_source_tree():
    bare = run.ROOT / ".bench_build" / "bare-test"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "factor-closed",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
