"""The byte-identity corpus: CLI invocations and the exact bytes they produce.

tests/golden.json holds, per invocation, its argv, the SHA-256 of its stdout
and of its stderr (UTF-8), and its exit code.  test_golden.py replays every
entry through cli.main and compares.  A change that alters output on purpose
regenerates the file and lists each changed entry in CHANGES.md:

    PYTHONPATH=src python tests/golden.py --update

The invocations are every CLI job of the two benchmark workloads at seeds 0
and 3 (perfbench/workloads.py, with its PINNED flags, read only here, when
the corpus is regenerated), `verify --family all` in each format and with
--full-pairs, the symplectic F_2 counts that no verify run builds, two
orthogonal counts with e1 < e2 (over F_2 and F_4), one orthogonal count
over F_8, one over F_9 and one over F_16 with both sides of type - (so
every branch of the type classifier has an entry: odd and even
characteristic, prime and extension fields), a symplectic count over F_4
(a determinant in characteristic 2 for a form that is not orthogonal), a
unitary count with e1 = 1 over F_9 (complement_hits by rank rather than
by the 2 x 2 determinant), symplectic and orthogonal counts over F_7 (a
prime field past F_5, where -1 is a non-square), unitary counts over F_16
and over F_25 (e1 = 2, so a prefix row), a unitary count over F_4 with
e2 = 4 (a prefix of three rows, whose entries take the conjugating dot
product of an extension field), symplectic and orthogonal F_2
counts at d = 10 (rows of two bytes in the single-orbit scan), five single
`bound` reports (an orthogonal exception tuple that fails with a note on
stderr, an orthogonal table with a surd, a symplectic report as csv, a
unitary equality and the unitary mixing display as json), the README's
mixing-check example in the table format, a budget error and one usage
error of each kind.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden.json"
SEEDS = (0, 3)

EXTRA = [
    "verify --family all --format csv",
    "verify --family all --format table",
    "verify --family all --format json --full-pairs",
    "count --family symplectic --e1 2 --e2 4 --q 2 --format json",
    "count --family symplectic --e1 4 --e2 4 --q 2 --format json",
    # orthogonal counts with e1 < e2, over F_2 and over an extension field
    "count --family orthogonal --eps + --sigma1 + --sigma2 - --e1 2 --e2 6 --q 2",
    "count --family orthogonal --eps + --sigma1 + --sigma2 + --e1 2 --e2 4 --q 4",
    # orthogonal counts over an even and an odd extension field
    "count --family orthogonal --eps - --sigma1 + --sigma2 + --e1 2 --e2 2 --q 8",
    "count --family orthogonal --eps - --sigma1 + --sigma2 + --e1 2 --e2 2 --q 9",
    "count --family orthogonal --eps + --sigma1 - --sigma2 - --e1 2 --e2 2 --q 16",
    # a symplectic count in characteristic 2 off F_2, and a unitary count whose
    # single-orbit scan has quotient dimension 1
    "count --family symplectic --e1 2 --e2 2 --q 4",
    "count --family unitary --e1 1 --e2 2 --q 3",
    # a prime field above F_5 (symplectic, and orthogonal with -1 a non-square
    # mod 7), and hermitian counts over F_16 and over F_25 with a prefix row
    "count --family symplectic --e1 2 --e2 2 --q 7",
    "count --family orthogonal --eps - --sigma1 - --sigma2 + --e1 2 --e2 2 --q 7",
    "count --family unitary --e1 1 --e2 2 --q 4",
    "count --family unitary --e1 2 --e2 1 --q 5",
    # a hermitian walk with a prefix of three rows
    "count --family unitary --e1 1 --e2 4 --q 2",
    # F_2 counts at d = 10, whose scanned rows take two bytes each
    "count --family symplectic --e1 8 --e2 2 --q 2",
    "count --family orthogonal --eps - --sigma1 + --sigma2 - --e1 8 --e2 2 --q 2",
    # single bound reports: an exception tuple that fails with a note, a table
    # with a surd, csv, a unitary equality and the unitary mixing display
    "bound --family orthogonal --eps + --sigma1 - --sigma2 - --e1 2 --e2 2 --q 2",
    "bound --family orthogonal --eps + --sigma1 + --sigma2 - --e1 4 --e2 2 --q 3",
    "bound --family symplectic --e1 4 --e2 2 --q 2 --format csv",
    "bound --family unitary --e1 1 --e2 1 --q 2",
    "bound --family unitary --e1 3 --e2 2 --q 3 --format json",
    # the README's mixing-check example: the table format pins the summary lines
    "mixing-check --e1 2 --e2 1 --q 3 --trials 100 --seed 0",
    # exit 3
    "count --family symplectic --e1 2 --e2 2 --q 3 --budget 0",
    # exit 2: argparse type errors, a missing sign, odd dimensions, a zero dimension
    "spectrum --e1 2 --e2 2 --q 6",
    "count --family symplectic --e1 2 --e2 2 --q 3 --budget -5",
    "bound --family orthogonal --sigma1 + --sigma2 + --e1 2 --e2 2 --q 3",
    "count --family orthogonal --eps + --sigma1 + --sigma2 + --e1 1 --e2 3 --q 3",
    "spectrum --e1 0 --e2 3 --q 2",
    "bound --family orthogonal --eps + --sigma1 + --sigma2 + --e1 0 --e2 4 --q 2",
]

# replayed once more in a fresh interpreter under another hash seed: a
# generic-field count, whose restricted-form keys are bytes
SUBPROCESS_ARGV = (
    "count --family orthogonal --eps - --sigma1 - --sigma2 - --e1 2 --e2 4 --q 3 "
    "--format json --workers 1"
).split()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv) -> dict:
    """One invocation of cli.main in this process, as a corpus entry."""
    from oppmix import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return {
        "argv": list(argv),
        "stdout_sha256": sha256(out.getvalue()),
        "stderr_sha256": sha256(err.getvalue()),
        "exit": code,
    }


def invocations() -> list:
    """Every argv of the corpus, in order, without duplicates."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import workloads

    argvs = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for job in workloads.jobs(workload, seed):
                if job.kind == "cli":
                    argvs.append([*job.args, *workloads.PINNED])
    argvs += [line.split() for line in EXTRA]
    return [a for i, a in enumerate(argvs) if a not in argvs[:i]]


def load() -> list:
    return json.loads(CORPUS.read_text())


def update() -> None:
    CORPUS.write_text(json.dumps([run(a) for a in invocations()], indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit("usage: python tests/golden.py --update")
    update()
