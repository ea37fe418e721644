"""oppmix benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each job of the workload runs in a
fresh `python3` process, with cold caches and `--workers 1`, one at a time:
a closed loop with one client.  Passes over the job list repeat while the
next one is expected to end within S seconds, or within 2 S while fewer
than three have run; every job's exact results are checked against
reference.json.

With --trace 0 the last stdout line reports the end-to-end metrics, each the
median over the passes.  With --trace 1 one traced pass follows the
untraced ones, and the last line reports the per-layer metrics derived from
its spans.  Provenance and every metric with its unit are printed above it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SETUP_SAMPLES = 11
MIN_PASSES = 3  # so that each end-to-end metric is the median of at least three
JOB_TIMEOUT_S = 60  # untraced; the slowest job takes about 11 s on 2 cores
TRACED_JOB_TIMEOUT_S = 120
RUN_LIMIT_S = 170  # no job runs past this point of a run
SETUP_CODE = (
    "import time; t = time.perf_counter(); import oppmix, oppmix.cli; "
    "oppmix.cli.build_parser(); print(time.perf_counter() - t, oppmix.__file__)"
)


@dataclass
class Finished:
    """One process run to completion (or killed at its deadline)."""

    returncode: int | None  # None when the process was killed at its deadline
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    max_rss_mb: float


def run_process(argv, env, timeout: float) -> Finished:
    """Run argv to completion and take its wall time, CPU time and peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = bytearray(), bytearray()
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            while sel.get_map():
                left = t0 + timeout - time.perf_counter()
                if left <= 0:
                    killed = True
                    break
                for key, _ in sel.select(left):
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        key.data.extend(chunk)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        killed = True
        raise
    finally:
        if killed:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Finished(
        None if killed else proc.returncode,
        out.decode(errors="replace"),
        err.decode(errors="replace"),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
    )


def job_argv(job: workloads.Job, spans: Path | None = None) -> list:
    if spans is None and job.kind == "cli":
        return [sys.executable, "-m", "oppmix.cli", *job.args, *workloads.PINNED]
    argv = [sys.executable, str(BENCH_DIR / "job.py")]
    if spans is not None:
        argv += ["--spans", str(spans)]
    args = [*job.args, *workloads.PINNED] if job.kind == "cli" else list(job.args)
    return [*argv, job.kind, *args]


def job_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failures: list  # (job id, reason)


def run_pass(jobs, env, reference, deadline: float, spans_dir: Path | None = None) -> Pass:
    """Run the job list once, in order, checking every job's results."""
    failures = []
    cpu = rss = 0.0
    t0 = time.perf_counter()
    for n, job in enumerate(jobs):
        spans = None if spans_dir is None else spans_dir / f"{n}.spans"
        limit = JOB_TIMEOUT_S if spans is None else TRACED_JOB_TIMEOUT_S
        left = min(limit, deadline - time.perf_counter())
        if left <= 0:
            failures.append((job.id, "not started: run time limit reached"))
            continue
        done = run_process(job_argv(job, spans), env, left)
        cpu += done.cpu_s
        rss = max(rss, done.max_rss_mb)
        if done.returncode is None:
            why = f"timed out after {left:.0f} s"
        else:
            why = workloads.check(job, done.returncode, done.stdout, reference)
        if why:
            tail = done.stderr.strip().splitlines()[-1:] if done.stderr.strip() else []
            failures.append((job.id, why + (f" ({tail[0]})" if tail else "")))
    return Pass(time.perf_counter() - t0, cpu, rss, failures)


def measure_setup(env) -> float:
    """Median over fresh interpreters of `import oppmix.cli` plus building the parser."""
    samples = []
    for n in range(SETUP_SAMPLES + 1):
        done = run_process([sys.executable, "-c", SETUP_CODE], env, 60)
        if done.returncode != 0:
            raise SystemExit(f"cannot import oppmix from {ROOT / 'src'}: {done.stderr.strip()}")
        seconds, origin = done.stdout.split(maxsplit=1)
        if not Path(origin.strip()).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"oppmix imported from {origin}, not from {ROOT / 'src'}")
        if n:  # the first import compiles the bytecode; users pay that once
            samples.append(float(seconds))
    return statistics.median(samples)


def provenance(workload: str, seed: int) -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oppmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "variant": seed % workloads.VARIANTS,
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="oppmix benchmark driver")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through run_process, which kills and reaps the running job.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S

    if not (ROOT / "src" / "oppmix" / "__init__.py").is_file():
        print(f"error: no oppmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())["jobs"]
    jobs = workloads.jobs(args.workload, args.seed)
    env = job_env()
    setup_s = measure_setup(env)

    measuring = time.perf_counter()
    passes = [run_pass(jobs, env, reference, deadline)]
    while True:
        # Another pass starts if it is expected to end within --seconds, or
        # within twice that while fewer than MIN_PASSES have run.
        end = time.perf_counter() - measuring + statistics.mean(p.wall_s for p in passes)
        if end > args.seconds and (len(passes) >= MIN_PASSES or end > 2 * args.seconds):
            break
        passes.append(run_pass(jobs, env, reference, deadline))
    samples = passes
    if args.trace:
        spans_dir = STATE_DIR / "spans" / args.workload
        spans_dir.mkdir(parents=True, exist_ok=True)
        for old in spans_dir.glob("*.spans"):
            old.unlink()
        traced = run_pass(jobs, env, reference, deadline, spans_dir)
        samples = passes + [traced]
        traces = [tracer.load(p) for p in sorted(spans_dir.glob("*.spans"))]
        untraced_wall = statistics.median(p.wall_s for p in passes)
        metrics = layers.derive(traces, traced.wall_s - untraced_wall)
        units = dict(layers.PER_LAYER)
    else:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            "setup_s": setup_s,
        }
        units = dict(END_TO_END)

    failures = [f for p in samples for f in p.failures]
    attempted = len(jobs) * len(samples)
    info = provenance(args.workload, args.seed)
    info.update(passes=len(passes), jobs_per_pass=len(jobs), traced_pass=bool(args.trace))
    print("provenance: " + json.dumps(info, sort_keys=True))
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        print(f"untraced passes, {name}: {[getattr(p, name) for p in passes]}")
    for job_id, why in failures:
        print(f"FAILED {job_id}: {why}")
    print(f"failed_frac = {len(failures)}/{attempted}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
