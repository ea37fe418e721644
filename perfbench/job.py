"""Run one benchmark job in this process, optionally under the span tracer.

    python3 perfbench/job.py [--spans FILE] cli <oppmix argv...>
    python3 perfbench/job.py [--spans FILE] lib annihilator_check E1 E2 Q

A "lib" job prints its result as JSON.  With --spans the job runs traced:
the tracer wraps oppmix before the job starts, one root span covers the job
(its size is the bytes the job wrote to stdout) and the spans are written to
FILE when the job ends.  The exit code is the job's own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

import tracer as tracing


def _run_cli(argv) -> tuple:
    from oppmix import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _run_lib(argv) -> tuple:
    from oppmix import oracle

    call, *ints = argv
    if call != "annihilator_check":
        raise SystemExit(f"unknown library job {call!r}")
    holds = oracle.annihilator_check(*map(int, ints))
    return 0, json.dumps({"annihilates": holds}) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="trace the job and write its spans here")
    parser.add_argument("kind", choices=["cli", "lib"])
    parser.add_argument("job", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    run = _run_cli if args.kind == "cli" else _run_lib
    if not args.spans:
        code, out = run(args.job)
    else:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        codes = []

        def job() -> str:
            code, out = run(args.job)
            codes.append(code)
            return out  # so the root span's size is the stdout length

        out = tracer.wrap(f"job.{args.kind}", job)()
        code = codes[0]
        tracer.dump(args.spans, job=args.job)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
