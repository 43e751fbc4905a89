"""Runs one workload's job list in a fresh process and reports timings.

Reads a JSON request on stdin: {"root", "scratch", "jobs", "seconds",
"trace", "timeout", "spans_path"}.  Each job goes from text input to rendered
output.  Passes over the job list repeat while the next one is expected to
end within the time given; with tracing, the first half of the time runs
untraced passes and the second half traced ones, so their ratio gives the
tracing overhead.  Writes one JSON reply on stdout.
"""

from __future__ import annotations

import gzip
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from calibrate import SpeedLog

HERE = Path(__file__).resolve().parent


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


# ----------------------------------------------------------------------
# job runners: text in, rendered text out.  They look library functions up
# through their modules at call time so that traced passes see the
# wrappers.

def certify(inp, lib):
    g = lib.textio.parse_map(inp["map"], inp["n"])
    report = lib.locfin.lf_certify(g, max_iter=64, max_deg=512)
    if not report.certified:
        return report.verdict
    mu = report.minimal_polynomial
    inv = lib.locfin.inverse_from_minpoly(g, mu)
    return f"mu: {' '.join(mu.to_coeff_strings())}\ninverse: {lib.textio.render_map(inv)}"


def compose(inp, lib):
    n = inp["n"]
    f = lib.textio.parse_map(inp["f"], n)
    g = lib.textio.parse_map(inp["g"], n)
    render = lib.textio.render_map
    return (f"compose: {render(f.compose(g))}\n"
            f"iterate: {render(f.iterate(2))}\n"
            f"jacobian: {lib.textio.render_poly(f.jacobian_det())}")


def nf(inp, lib):
    word = lib.tame.TameWord.from_json(inp["word"])
    return lib.tame.normal_form(word).to_word().to_json()


def _elementary(inp, lib):
    return lib.tame.Elementary(inp["i"], lib.textio.parse_poly(inp["g"], inp["n"]))


def obs2(inp, lib):
    return lib.witness.witness_obs2(_elementary(inp, lib)).to_json()


def obs3(inp, lib):
    return lib.witness.witness_obs3(_elementary(inp, lib), a=Fraction(inp["a"])).to_json()


def obs4(inp, lib):
    return lib.witness.witness_obs4().to_json()


RUNNERS = {"certify": certify, "compose": compose, "nf": nf,
           "obs2": obs2, "obs3": obs3, "obs4": obs4}


class CliRunner:
    """Runs `python -m polyaut.cli` as a subprocess per job; traced passes
    run the same command through tracecli.py, which records spans in the
    child and leaves them in a file."""

    def __init__(self, root: Path, workdir: Path, timeout: float):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.workdir = workdir
        self.timeout = timeout
        self.traced = False
        self.span_files = []
        self.stderr_tails = {}  # job id -> last line of stderr, for failure reports

    def __call__(self, job):
        for name, text in job["input"]["files"].items():
            (self.workdir / name).write_text(text)
        if self.traced:
            out = self.workdir / f"spans-{len(self.span_files)}.json"
            self.span_files.append((job["id"], out))
            cmd = [sys.executable, str(HERE / "tracecli.py"), str(out)]
        else:
            cmd = [sys.executable, "-m", "polyaut.cli"]
        proc = subprocess.run(cmd + job["input"]["argv"], cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, timeout=self.timeout)
        if proc.stderr:
            self.stderr_tails[job["id"]] = proc.stderr.strip().split("\n")[-1][:200]
        return f"{proc.returncode}\n{proc.stdout}"


# ----------------------------------------------------------------------

def run_pass(jobs, call, timeout, in_process, speed, tracer=None):
    """One pass; returns per-job (seconds at reference speed, output or
    None, error).  A failed job counts at its timeout."""
    timed = []
    for job in jobs:
        speed.maybe_calibrate()
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, timeout)
        overhead = speed.overhead
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                out = tracer.run_job(job["id"], call, job)
            else:
                out = call(job)
            err = None
        except (JobTimeout, subprocess.TimeoutExpired):
            out, err = None, "timeout"
        except Exception as exc:  # a failing job is recorded, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"[:300]
        finally:
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        timed.append((t0, t1, t1 - t0 - (speed.overhead - overhead), out, err))
    speed.calibrate()
    return [(timeout if err else dt * speed.scale(t0, t1), out, err)
            for t0, t1, dt, out, err in timed], sum(dt for _, _, dt, _, _ in timed)


class Record:
    """Results of the passes.  Only the first pass's outputs are kept;
    later outputs are compared with them and dropped, so that the worker's
    memory does not grow with the number of passes."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.outputs = None
        self.mismatch = set()
        self.passes = []  # per pass, per job: [seconds, error]
        self.raw_walls = []

    def add(self, results, raw_wall):
        if self.outputs is None:
            self.outputs = [out for _, out, _ in results]
        else:
            self.mismatch |= {job["id"] for job, (_, out, err), first
                              in zip(self.jobs, results, self.outputs)
                              if err is None and out != first}
        self.passes.append([[dt, err] for dt, _, err in results])
        self.raw_walls.append(raw_wall)


def measure(jobs, call, budget, timeout, in_process, speed, record, tracer=None):
    """Whole passes while the next one is expected to fit in budget (at
    least one), added to record.  A pass's raw time is the sum of its job
    times, without the calibrations between jobs.  Returns the pass count."""
    count = 0
    start = time.perf_counter()
    while True:
        record.add(*run_pass(jobs, call, timeout, in_process, speed, tracer))
        count += 1
        per_pass = (time.perf_counter() - start) / count
        if time.perf_counter() - start + per_pass > budget:
            return count


def main():
    req = json.load(sys.stdin)
    root = Path(req["root"])
    jobs = req["jobs"]
    in_process = jobs[0]["kind"] != "cli"
    sys.path.insert(0, str(root / "src"))
    import polyaut
    if Path(polyaut.__file__).resolve().parent != (root / "src" / "polyaut").resolve():
        raise SystemExit(f"polyaut imported from {polyaut.__file__}, not from {root}/src")
    signal.signal(signal.SIGALRM, _on_alarm)

    with tempfile.TemporaryDirectory(dir=req["scratch"]) as tmp:
        if in_process:
            runner = None

            def call(job):
                return RUNNERS[job["kind"]](job["input"], polyaut)
        else:
            runner = call = CliRunner(root, Path(tmp), req["timeout"])

        speed = SpeedLog()
        record = Record(jobs)
        reply = {}
        budget = req["seconds"] / 2 if req["trace"] else req["seconds"]
        speed.sampling(True)
        untraced = measure(jobs, call, budget, req["timeout"], in_process, speed, record)
        speed.sampling(False)
        if req["trace"]:
            from tracing import Tracer, aggregate
            tracer = Tracer()
            if in_process:
                tracer.install()
            else:
                runner.traced = True
            traced = measure(jobs, call, budget, req["timeout"], in_process, speed,
                             record, tracer)
            tracer.uninstall()
            rows = tracer.spans()
            if not in_process:
                rows = _merge_child_spans(rows, runner.span_files)
            reply["layers"] = aggregate(rows, traced)
            reply["span_count"] = len(rows)
            _write_spans(rows, req["spans_path"])

    usage = resource.getrusage(
        resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    reply.update({
        "untraced_passes": untraced,
        "raw_walls": record.raw_walls[:untraced],
        "kernel_s": [k for _, k in speed.samples],
        "passes": record.passes,
        "outputs": record.outputs,
        "repeat_mismatch": sorted(record.mismatch),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "stderr_tails": runner.stderr_tails if runner else {},
    })
    json.dump(reply, sys.stdout)


def _merge_child_spans(rows, span_files):
    """Append the spans each traced cli child left, re-numbered, under the
    job id that ran it."""
    rows = list(rows)
    for job_id, path in span_files:
        if not path.exists():
            continue
        base = len(rows)
        for sid, parent, _, name, t0, t1, count in json.loads(path.read_text()):
            rows.append((base + sid, base + parent if parent >= 0 else -1,
                         job_id, name, t0, t1, count))
    return rows


def _write_spans(rows, path):
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id,parent,job,name,start_s,end_s,count\n")
        for r in rows:
            fh.write(f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]:.7f},{r[5]:.7f},{r[6]}\n")


if __name__ == "__main__":
    main()
