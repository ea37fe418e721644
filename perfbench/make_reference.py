"""Write reference.json: the exact results of every job of every workload variant.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are known to be right; the
benchmark then treats any other result as a failure.  It refuses to write
when a job exits non-zero.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    env = run.job_env()
    distinct = {}
    for workload in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            for job in workloads.jobs(workload, variant):
                distinct.setdefault(job.id, job)
    results = {}
    for n, (job_id, job) in enumerate(sorted(distinct.items()), 1):
        done = run.run_process(run.job_argv(job), env, run.JOB_TIMEOUT_S)
        print(f"[{n}/{len(distinct)}] {done.wall_s:6.2f} s  {job_id}", file=sys.stderr)
        if done.returncode != 0:
            print(f"error: exit {done.returncode}: {done.stderr.strip()}", file=sys.stderr)
            return 1
        results[job_id] = workloads.results(job, done.stdout)
    source = run.provenance("all", 0)
    about = {k: source[k] for k in ("git_rev", "src_sha256", "python")}
    run.REFERENCE.write_text(json.dumps({"source": about, "jobs": results}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} job results to {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
