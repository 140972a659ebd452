"""qloop benchmark: time to verdict of three CLI workloads, and a traced run.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 36 --trace 0

Run from the repository root.  Every repetition is a fresh interpreter that
imports qloop from src/ and runs qloop.cli.main once (cold caches, as every
CLI user pays them), one repetition at a time on one core: a closed loop
with one client.  A repetition counts only if the CLI exits 0, its --output
report has no discrepancies, it reports exactly the number of checks the
workload's parameters imply, and the non-vacuity probe matches the digests
in digests.json.  A failed repetition counts in fail_ratio and never in the
timings.

--trace 0 reports the end-to-end metrics (medians over repetitions).  The
timed ones are adjusted for host speed (see hostspeed.py): the host drifts
by up to 1.5x, which no run length the budget allows can average out.  Raw
medians are printed, and raw times kept in the result file.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones; their ratio is the trace overhead.
No host-speed sampling runs in a traced run, so layer times are raw.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Files go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "adj_wall_s": "s",
    "adj_cpu_s": "s",
    "adj_checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def spawn(job: dict) -> dict:
    """Run one child to completion; a child that fails leaves a failure."""
    job = dict(job, spawn_t=time.perf_counter())
    start = job["spawn_t"]
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(job)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"failures": [f"no result within {CHILD_TIMEOUT_S} s"],
                "elapsed_s": time.perf_counter() - start}
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        res = None
    if res is None:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"failures": [f"child exited {proc.returncode}: {' | '.join(tail)}"],
                "elapsed_s": elapsed}
    res["elapsed_s"] = elapsed
    return res


def make_job(name: str, size: str, seed: int) -> dict:
    """What a child needs for one repetition, less the clock reading."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return {"workload": name, "size": size, "params": workloads.inputs(name, size, seed),
            "seed": seed, "work_dir": str(WORK_DIR), "trace": False, "rep": 0}


def run(name: str, size: str, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """All repetitions of one run, and the result line."""
    job = make_job(name, size, seed)
    params = job["params"]
    log(f"workload {name} size {size} seed {seed} trace {int(trace)}")
    log(f"argv: qloop {' '.join(workloads.argv(name, params))}")
    if not workloads.SEED_APPLIES[name]:
        log("the seed does not change this workload's argv (the CLI takes no free input); "
            "it only picks the probe entries")

    warm = spawn(dict(job, setup_only=True))  # untimed: bytecode compile, page cache
    if warm.get("failures"):
        log(f"warm-up failed: {warm['failures']}")

    reps = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        r = spawn(dict(job, rep=len(reps), trace=traced, sample=not trace))
        r["traced"] = traced
        reps.append(r)
        status = "ok" if not r.get("failures") else f"FAILED {r['failures']}"
        log(f"rep {len(reps)} {'traced' if traced else 'untraced'}: "
            + (f"wall {r['wall_s']:.3f} s cpu {r['cpu_s']:.3f} s "
               f"rss {r['peak_rss_mb']:.1f} MB " if "wall_s" in r else "")
            + (f"host loop {r['host_sample_mean_s'] * 1e6:.0f} us "
               if "host_sample_mean_s" in r else "")
            + status)
        used = time.perf_counter() - begin
        # start another round only if one more, at the mean so far, still fits;
        # a traced run measures whole pairs of an untraced and a traced one
        if trace and len(reps) % 2:
            continue
        if used + used / (len(reps) // 2 if trace else len(reps)) > seconds:
            break

    failed = sum(1 for r in reps if r.get("failures"))
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    good = [r for r in reps if not r.get("failures")]
    untraced = [r for r in good if not r["traced"]]
    log(f"{len(reps)} repetitions, {failed} failed: fail_ratio {failed / len(reps):.4f}")
    if not trace:
        if not untraced or not setups:
            return {"correct": False, "attempted": len(reps), "failed": failed, "metrics": {}}
        wall = statistics.median(hostspeed.adjusted(r["wall_s"], r) for r in untraced)
        values = {
            "setup_s": statistics.median(hostspeed.adjusted(r["setup_s"], r["setup_host"])
                                         for r in reps if "setup_s" in r),
            "adj_wall_s": wall,
            "adj_cpu_s": statistics.median(hostspeed.adjusted(r["cpu_s"], r) for r in untraced),
            "adj_checks_per_s": untraced[0]["checks"] / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        raw = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(r["wall_s"] for r in untraced),
               "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
               "host_sample_mean_s": statistics.median(r["host_sample_mean_s"]
                                                       for r in untraced)}
        log(f"medians over {len(untraced)} repetitions; too few for a tail percentile")
        for key, val in values.items():
            log(f"  {key:<18} {val:12.4f} {END_TO_END[key]}")
        for key, val in raw.items():
            log(f"  {key:<18} {val:12.6f} s (raw, not reported)")
        log(f"  {'fail_ratio':<18} {failed / len(reps):12.4f} ratio")
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        traced_reps = [r for r in good if r["traced"]]
        if not traced_reps or not untraced:
            return {"correct": False, "attempted": len(reps), "failed": failed, "metrics": {}}
        values = {}
        for key in tracer.LAYER_METRICS:
            if key in traced_reps[0]["layers"]:
                values[key] = statistics.median(r["layers"][key] for r in traced_reps)
        for key in tracer.COUNT_METRICS:
            seen = {r["layers"][key] for r in traced_reps}
            if len(seen) > 1:
                log(f"warning: {key} differs between traced repetitions: {sorted(seen)}")
        values["cli.trace_overhead_ratio"] = (
            values["cli.traced_wall_s"] / statistics.median(r["wall_s"] for r in untraced))
        log(f"per-layer medians over {len(traced_reps)} traced repetitions")
        for key, val in values.items():
            log(f"  {key:<40} {val:16.4f} {tracer.LAYER_METRICS[key][0]}")
        metrics = {k: {"value": v, "unit": tracer.LAYER_METRICS[k][0]} for k, v in values.items()}

    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
    with open(WORK_DIR / f"result-{name}-{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"workload": name, "size": size, "seed": seed, "params": params,
                   "argv": workloads.argv(name, params), "setup_samples": setups,
                   "repetitions": reps, "result": result}, fh, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qloop" / "cli.py").is_file():
        print(f"no qloop source tree at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, "full", args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
