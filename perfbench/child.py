"""One repetition of a workload in a fresh interpreter.

Usage (from run.py): python3 perfbench/child.py '<job as JSON>'

The job names the workload, its parameters, the seed, whether to trace,
where to write files, and the parent's clock reading just before the spawn.
The child imports qloop.cli from the checkout's src/ (that interval is the
set-up time), times qloop.cli.main on the workload's argv (with the
host-speed sampler of hostspeed.py running, if the job asks), then, untimed,
checks the verdict and runs the non-vacuity probe.  It prints one JSON line.
A job with "setup_only" stops after the import.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_rep(job: dict) -> dict:
    """Time one cli.main call and check what it decided."""
    # imported here, after main() has read the set-up clock, so that set-up
    # time covers the interpreter and qloop only
    import contextlib
    import io
    import resource

    from qloop import cli

    import hostspeed
    import probe
    import tracer
    import workloads

    name, size, p, seed = job["workload"], job["size"], job["params"], job["seed"]
    out_path = Path(job["work_dir"]) / f"output-{name}.json"
    out_path.unlink(missing_ok=True)  # a report left by an earlier repetition proves nothing
    argv = workloads.argv(name, p) + ["--output", str(out_path)]
    tr = tracer.Tracer(f"{name}/{seed}/{job['rep']}") if job["trace"] else None
    if tr is not None:
        tr.install()
    sampler = hostspeed.Sampler() if job.get("sample") else None
    if sampler is not None:
        sampler.start()
    buf = io.StringIO()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # usage errors leave through argparse
        rc = exc.code
    finally:
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if sampler is not None:
            sampler.stop()
        if tr is not None:
            tr.uninstall()
    res = {
        "argv": argv,
        "wall_s": t1 - t0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "checks": workloads.expected_checks(name, p),
    }
    if sampler is not None:
        res.update(sampler.summary(t0, t1))

    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    try:
        with open(out_path) as fh:
            found = json.load(fh)["discrepancies"]
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"no --output report: {exc!r}")
    else:
        if found:
            failures.append(f"{len(found)} discrepancies")
    reported = workloads.reported_checks(name, p, buf.getvalue())
    if reported != res["checks"]:
        failures.append(f"reported {reported} checks, expected {res['checks']}")
    bad = probe.check(name, size, p, seed, probe.load())
    if bad:
        failures.append(f"probe mismatch at {bad}")
    res["failures"] = failures

    if tr is not None:
        res["layers"] = tr.metrics(res["wall_s"])
        # the last traced repetition of a run leaves its spans
        spans_path = Path(job["work_dir"]) / f"spans-{name}-{seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"workload": name, "seed": seed, "argv": argv,
                       "fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": tr.span_records()}, fh)
    return res


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    sampler = None
    if job.get("sample"):
        import hostspeed
        sampler = hostspeed.Sampler()
        sampler.start()
    import qloop.cli
    t_import = time.perf_counter()
    if sampler is not None:
        sampler.stop()
    if Path(qloop.cli.__file__).resolve().parent != SRC / "qloop":
        print(f"qloop was imported from {qloop.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    res = {} if job.get("setup_only") else run_rep(job)
    # perf_counter is CLOCK_MONOTONIC, shared by the parent and this process
    res["setup_s"] = t_import - job["spawn_t"]
    if sampler is not None:
        res["setup_host"] = sampler.summary(job["spawn_t"], t_import)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
