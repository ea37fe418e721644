"""The benchmark's workloads, the exact results each job must reproduce, and
the comparison against the stored reference.

A workload is a fixed list of jobs.  A job is one real `oppmix` CLI command
(kind "cli") or one library call that has no CLI command (kind "lib", run by
job.py).  Every job is pinned to `--workers 1`.

verify-all is the headline command on the GF(2) bitmask path.  oddq-spectral
is everything else: the generic-field oracle over q = 3, 4, 5 and the
spectral checks.  They share one workload, and not two, so that each run can
be long enough to average out the drift in machine speed.

The workload seed picks one of VARIANTS input variants.  It sets the sigma1
sign of the two orthogonal `count` jobs and the `mixing-check --seed`.  Both
change which members are counted, never how much is enumerated or how many
pairs are tested: sigma2 stays fixed because |Y2| is the length of the
transitivity scan.  Bounding the variants keeps every seed covered by the
stored reference.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("verify-all", "oddq-spectral")
VARIANTS = 16
PINNED = ("--format", "json", "--workers", "1")


@dataclass(frozen=True)
class Job:
    id: str  # key into reference.json
    kind: str  # "cli" or "lib"
    args: tuple  # CLI argv without PINNED, or the library call and its ints


def _cli(*argv) -> Job:
    return Job(" ".join(argv), "cli", tuple(argv))


def _lib(call: str, *ints) -> Job:
    return Job(" ".join([call, *map(str, ints)]), "lib", (call, *map(str, ints)))


def _orthogonal_count(eps: str, sigma1: str, sigma2: str) -> Job:
    return _cli(
        "count", "--family", "orthogonal", "--eps", eps, "--sigma1", sigma1,
        "--sigma2", sigma2, "--e1", "2", "--e2", "4", "--q", "3",
    )


def jobs(workload: str, seed: int) -> list:
    """The job list of `workload` for the input variant that `seed` selects."""
    v = seed % VARIANTS
    if workload == "verify-all":
        return [_cli("verify", "--family", "all")]
    if workload == "oddq-spectral":
        mixing = ("--trials", "1000", "--seed", str(v))
        return [
            # the generic-field oracle
            _orthogonal_count("+", "+-"[v & 1], "+"),
            _orthogonal_count("-", "+-"[(v >> 1) & 1], "-"),
            _cli("count", "--family", "symplectic", "--e1", "2", "--e2", "4", "--q", "3"),
            _cli("count", "--family", "unitary", "--e1", "2", "--e2", "3", "--q", "2"),
            _cli(
                "count", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "5",
                "--full-pairs",
            ),
            # the spectral checks
            _cli("spectrum", "--e1", "3", "--e2", "2", "--q", "2"),
            _cli("spectrum", "--e1", "4", "--e2", "3", "--q", "3"),
            _cli("spectrum", "--e1", "5", "--e2", "5", "--q", "4"),
            _cli("spectrum", "--e1", "6", "--e2", "4", "--q", "9"),
            _lib("annihilator_check", 3, 2, 2),
            _lib("annihilator_check", 2, 2, 3),
            _cli("mixing-check", "--e1", "2", "--e2", "2", "--q", "3", *mixing),
            _cli("mixing-check", "--e1", "3", "--e2", "2", "--q", "2", *mixing),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# -- exact results -------------------------------------------------------------


def _rational(x: dict) -> str:
    return str(Fraction(int(x["num"]), int(x["den"])))


def _radical(x: dict) -> list:
    """a + b*sqrt(n) as [a, sign(b) * b^2 * n], which is equal exactly when the values are."""
    a, b = Fraction(_rational(x["a"])), Fraction(_rational(x["b"]))
    signed_square = (b * b * x["sqrt_base"]) * ((b > 0) - (b < 0))
    return [str(a), str(signed_square)]


def _optional(x, convert):
    return None if x is None else convert(x)


def _digest(values) -> str:
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _count_values(rep: dict) -> dict:
    # The count threshold and the pass flag that depends on it are left out on
    # purpose: the threshold tables are due to be unified, which may move them.
    return {
        "case": rep["case"],
        "y1_count": rep["y1_count"],
        "y2_count": rep["y2_count"],
        "pairs": rep["pairs"],
        "proportion": _rational(rep["proportion"]),
    }


def _verify_values(out: dict) -> dict:
    result = {}
    for family, rep in sorted(out.items()):
        bounds = [
            [
                b["family"], b["q"], b["e1"], b["e2"], b["eps"], b["sigma1"], b["sigma2"],
                _optional(b["alpha1"], _rational), _optional(b["alpha2"], _rational),
                _radical(b["lower_bound"]), _optional(b["relaxed_bound"], _rational),
                b["pass"], b["tight"],
            ]
            for b in rep["bound_reports"]
        ]
        tails = [[t["name"], t["q"], _rational(t["value"]), t["pass"]] for t in rep["tail_checks"]]
        result[family] = {
            "passed": rep["passed"],
            "failures": rep["failures"],
            "count_reports": [
                dict(_count_values(c), passed=c["pass"]) for c in rep["count_reports"]
            ],
            # The closed-form lists hold 1036 bound tuples and 171 tail values,
            # some with thousand-digit denominators; they are stored by length
            # and SHA-256 of their exact values.
            "bound_reports": {"n": len(bounds), "sha256": _digest(bounds)},
            "tail_checks": {"n": len(tails), "sha256": _digest(tails)},
        }
    return result


def results(job: Job, stdout: str) -> dict:
    """The exact results of one job, parsed from its stdout, with timings dropped."""
    out = json.loads(stdout)
    if job.kind == "lib":
        return out
    command = job.args[0]
    if command == "verify":
        return _verify_values(out)
    if command == "count":
        return _count_values(out)
    if command == "spectrum":
        keep = ("e1", "e2", "q", "exponents_twice", "eigenvalues", "character_route_agrees")
    elif command == "mixing-check":
        keep = ("e1", "e2", "q", "seed", "trials", "all_hold", "tight_cases", "charpoly_checked")
    else:
        raise ValueError(f"no result extractor for {command!r}")
    return {k: out[k] for k in keep}


def first_difference(got, want, path: str = "") -> str | None:
    """Where two result values first differ, or None if they are equal."""
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got)):
            if k not in got or k not in want:
                return f"{path}.{k}: key only in {'reference' if k in want else 'output'}"
            diff = first_difference(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} items, reference has {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = first_difference(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if got != want or type(got) is not type(want):
        return f"{path}: got {got!r}, reference {want!r}"
    return None


def check(job: Job, returncode: int, stdout: str, reference: dict) -> str | None:
    """None if the job exited 0 with exactly the reference results, else why not."""
    if returncode != 0:
        return f"exit code {returncode}"
    if job.id not in reference:
        return "no reference entry"
    try:
        got = results(job, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
    diff = first_difference(got, reference[job.id])
    return None if diff is None else f"result differs at {diff or '<root>'}"
