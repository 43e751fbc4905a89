"""The polyaut benchmark: one seeded workload, checked, timed.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds src/polyaut.  Builds the
workload's job list from the seed (text only), times fresh interpreters
importing polyaut for setup_s, runs the jobs in a fresh worker process
(one client, closed loop, one job at a time), checks every output with
oracle.py and prints the result as one JSON object on the last line.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
worker runs untraced then traced passes and the metrics are the per-layer
ones from the spans, which are also written to .perfbench-out/.  A line
before the result holds the environment block, job counts, failures and
the sizes left out of the workloads.

The extra workload cli-hostile adds inputs that hit known defects of the
command line; it is not in BENCHMARK.json because its jobs fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from calibrate import NOMINAL_S, SpeedLog
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

JOB_TIMEOUT_S = {"in_process": 60.0, "cli": 10.0}
SETUP_PROBES = 15
WORKER_GRACE_S = 120


def _python_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def probe_ms(code: str) -> float:
    """Median time from spawning a fresh interpreter to the end of code,
    which prints time.perf_counter() (one clock for all processes), at
    reference speed."""
    speed = SpeedLog()
    speed.calibrate()
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_python_env(),
                             capture_output=True, text=True, check=True, timeout=60)
        t1 = float(out.stdout)
        speed.calibrate()
        samples.append((t1 - t0) * speed.scale(t0, t1))
    return statistics.median(samples) * 1000


SETUP_CODE = "import polyaut, polyaut.cli, time; print(time.perf_counter())"
BARE_CODE = "import time; print(time.perf_counter())"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "polyaut").glob("*.py")))


def run_worker(jobs, seconds, trace, workload, seed):
    kind = "cli" if jobs[0]["kind"] == "cli" else "in_process"
    request = {
        "root": str(ROOT), "scratch": str(OUT), "seconds": seconds, "trace": trace,
        "timeout": JOB_TIMEOUT_S[kind],
        "spans_path": str(OUT / f"spans-{workload}-seed{seed}.csv.gz"),
        "jobs": [{k: j[k] for k in ("id", "kind", "input")} for j in jobs],
    }
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(request),
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def quantile(samples, q):
    """Linear interpolation between order statistics."""
    s = sorted(samples)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def wall_s(passes):
    """Time to finish the job list: each job's median time over the
    passes, summed, so that one interrupted job in one pass does not count
    as a slower program."""
    return sum(statistics.median(p[k][0] for p in passes) for k in range(len(passes[0])))


def evaluate(jobs, reply):
    """Why each failed job failed: {job id: cause}."""
    failures = {}
    for job, out, (_, err) in zip(jobs, reply["outputs"], reply["passes"][0]):
        reason = err if err else oracle.check(job, out)
        if reason:
            tail = reply["stderr_tails"].get(str(job["id"]))
            failures[job["id"]] = f"{reason}; stderr: {tail}" if tail else reason
    for jid in reply["repeat_mismatch"]:
        failures.setdefault(jid, "output differs between passes")
    for p in reply["passes"][1:]:
        for job, (_, err) in zip(jobs, p):
            if err:
                failures.setdefault(job["id"], err)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.MIX))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polyaut" / "__init__.py").is_file():
        print(f"no library at {ROOT / 'src' / 'polyaut'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    jobs = workloads.build(args.workload, args.seed)

    setup_ms = probe_ms(SETUP_CODE)
    reply = run_worker(jobs, args.seconds, args.trace, args.workload, args.seed)
    failures = evaluate(jobs, reply)

    # every pass runs the whole job list, so failures repeat in each pass
    untraced = reply["passes"][:reply["untraced_passes"]]
    attempted = len(jobs) * len(untraced)
    failed = len(failures) * len(untraced)
    latencies = [job_s for p in untraced for job_s, _ in p]
    by_id = {j["id"]: j for j in jobs}
    p90 = quantile(latencies, 0.9)
    info = {
        "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                "seed": args.seed, "workload": args.workload,
                "src_lines": src_lines(),
                "jobs_per_pass": workloads.class_counts(jobs)},
        "passes": len(untraced), "samples": len(latencies),
        "raw_wall_s": statistics.median(reply["raw_walls"]),
        "speed_scale": NOMINAL_S / statistics.median(reply["kernel_s"]),
        "class_median_ms": {
            cls: statistics.median(p[j["id"]][0] for p in untraced for j in jobs
                                   if j["class"] == cls) * 1000
            for cls in workloads.class_counts(jobs)},
        "samples_beyond_p90": sum(x > p90 for x in latencies),
        "failed_ratio": failed / attempted,
        "failures": [{"id": jid, "class": by_id[jid]["class"],
                      "argv": by_id[jid]["input"].get("argv", [])[:1], "cause": why}
                     for jid, why in sorted(failures.items())],
        "excluded_sizes": workloads.EXCLUDED,
    }
    if args.trace:
        interp_ms = probe_ms(BARE_CODE)
        cli_ms = statistics.fmean(latencies) * 1000 if jobs[0]["kind"] == "cli" else None
        layers = dict(reply["layers"])
        layers["cli.interp_ms"] = interp_ms
        layers["cli.import_ms"] = setup_ms - interp_ms
        layers["cli.run_ms"] = cli_ms - setup_ms if cli_ms is not None else 0.0
        traced = reply["passes"][reply["untraced_passes"]:]
        layers["trace.overhead_ratio"] = wall_s(traced) / wall_s(untraced)
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        info["span_count"] = reply["span_count"]
    else:
        values = {
            "wall_s": wall_s(untraced),
            "job_p50_ms": quantile(latencies, 0.5) * 1000,
            "job_p90_ms": p90 * 1000,
            "setup_s": setup_ms / 1000,
            "peak_rss_mb": reply["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in _declared("end_to_end")}
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _declared(key):
    return json.loads((ROOT / "BENCHMARK.json").read_text())[key]


if __name__ == "__main__":
    sys.exit(main())
