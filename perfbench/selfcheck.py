"""Checks on the benchmark itself.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names the metrics and workloads that the code reports.
2. reference.json covers every job of every seed variant.
3. A reference perturbed by one pair in one proportion makes the job fail.
4. The work counts of the traced run repeat exactly: twice on one seed, once
   on a seed that flips every sign the seed controls.

Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import time
from fractions import Fraction

import layers
import run
import tracer
import workloads

WORK_COUNTS = ("linalg.subspaces_enumerated", "linalg.pair_tests", "forms.classify_calls")
SEEDS = (0, 3)  # variants 0 and 3 differ in both sigma1 signs and the mixing seed


def check_manifest() -> list:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    if declared != list(layers.PER_LAYER):
        problems.append("per_layer in BENCHMARK.json differs from layers.PER_LAYER")
    declared = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    if declared != list(run.END_TO_END):
        problems.append("end_to_end in BENCHMARK.json differs from run.END_TO_END")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.WORKLOADS")
    return problems


def check_coverage(reference: dict) -> list:
    return [
        f"no reference for {job.id!r} ({name}, variant {v})"
        for name in workloads.WORKLOADS
        for v in range(workloads.VARIANTS)
        for job in workloads.jobs(name, v)
        if job.id not in reference
    ]


def check_perturbed(reference: dict, env) -> list:
    """One pair more in the unitary count's proportion must fail; the true reference must pass."""
    job = next(j for j in workloads.jobs("oddq-spectral", 0) if "unitary" in j.id)
    want = reference[job.id]
    n1, n2 = int(want["y1_count"]), int(want["y2_count"])
    perturbed = copy.deepcopy(reference)
    perturbed[job.id]["proportion"] = str(Fraction(want["proportion"]) + Fraction(1, n1 * n2))
    deadline = time.perf_counter() + run.RUN_LIMIT_S
    problems = []
    if run.run_pass([job], env, reference, deadline).failures:
        problems.append(f"{job.id}: fails against the true reference")
    if not run.run_pass([job], env, perturbed, deadline).failures:
        problems.append(f"{job.id}: passes against a reference one pair off")
    return problems


def traced_counts(name: str, seed: int, env, reference: dict) -> dict:
    spans_dir = run.STATE_DIR / "selfcheck" / name
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    deadline = time.perf_counter() + run.RUN_LIMIT_S
    done = run.run_pass(workloads.jobs(name, seed), env, reference, deadline, spans_dir)
    if done.failures:
        raise SystemExit(f"{name} seed {seed}: traced pass failed: {done.failures}")
    metrics = layers.derive([tracer.load(p) for p in sorted(spans_dir.glob("*.spans"))], 0.0)
    return {k: metrics[k] for k in WORK_COUNTS}


def check_work_counts(name: str, env, reference: dict) -> list:
    first = traced_counts(name, SEEDS[0], env, reference)
    again = traced_counts(name, SEEDS[0], env, reference)
    other = traced_counts(name, SEEDS[1], env, reference)
    print(f"  {name}: {first}")
    problems = []
    if again != first:
        problems.append(f"{name}: work counts changed between runs: {first} then {again}")
    if other != first:
        problems.append(f"{name}: work counts differ across seeds: {first} vs {other}")
    return problems


def main() -> int:
    reference = json.loads(run.REFERENCE.read_text())["jobs"]
    env = run.job_env()
    problems = []
    for what, found in (
        ("BENCHMARK.json matches the code", check_manifest()),
        ("reference covers every variant", check_coverage(reference)),
        ("a reference one pair off is a failure", check_perturbed(reference, env)),
    ):
        print(f"{what}: {'no' if found else 'yes'}")
        problems += found
    print("work counts:")
    for name in workloads.WORKLOADS:
        problems += check_work_counts(name, env, reference)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
