"""Command-line front end.

Commands: spectrum | bound | count | verify | mixing-check.  Output formats:
table (default) and json everywhere; csv only on bound, count and verify, whose
reports have rows.  Exit codes: 0 all checks passed, 1 a check
failed, 2 usage error (argparse's own, or a UsageError, which only the
checks of the parsed arguments raise), 3 enumeration budget exceeded, 4
internal error (an ArithmeticError: an exact result contradicted itself,
such as an enumerated count that disagrees with its closed form, or any
other ValueError), reported as one "internal error:" line on stderr; 141
when the reader closes stdout early, with nothing on stderr.

JSON is canonical: keys sorted, rationals as {"num": "...", "den": "..."}
decimal strings plus a non-authoritative float "approx"; parsing and
re-serializing a report is byte-identical.  A CSV row is one JSON report
record read through CSV_COLUMNS, so the two formats cannot drift apart.

Start-up loads only exactnum and this module.  The closed-form, enumeration,
form, brute-force and spectral layers (bounds, gf, linalg, forms, oracle,
spectrum, sweep), csv and json are imported inside the functions that use them;
FAMILIES names the theorem's families for argparse without loading bounds.

Every count runs serially in one process.  spectrum, count, verify and
mixing-check still accept --workers N and ignore it, so that existing
invocations keep working.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction

from . import exactnum
from .exactnum import Surd

FAMILIES = ("orthogonal", "symplectic", "unitary")  # tuple(bounds.THEOREM), pinned by a test

# CSV column -> the JSON keys it reads, first key present wins; a count
# report's `case` fields count as its own.
CSV_COLUMNS = {
    "family": ("family", "kind"),
    **{c: (c,) for c in ("eps", "sigma1", "sigma2", "e1", "e2", "q", "alpha1", "alpha2")},
    "bound": ("lower_bound", "proportion"),
    "threshold": ("threshold",),
    "pass": ("pass",),
    "method": ("formula_id", "method"),
}


def frac_jsonable(x: Fraction) -> dict:
    n, d = x.as_integer_ratio()
    return {"num": str(n), "den": str(d), "approx": n / d}


def quad_jsonable(x: Surd) -> dict:
    return {
        "a": frac_jsonable(x.a),
        "b": frac_jsonable(x.b),
        "sqrt_base": x.base,
        "approx": x.approx(),
    }


def dumps_canonical(obj) -> str:
    """obj as canonical JSON.  A report holds no cycle, so none is looked for."""
    import json

    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), check_circular=False)


def frac_str(x) -> str:
    if x is None:
        return ""
    if isinstance(x, Surd):
        return str(x) if x.b else frac_str(x.a)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _sign_str(s) -> str:
    return "" if s is None else exactnum.sign_char(s)


def bound_report_jsonable(rep) -> dict:
    """A bounds.BoundReport as its JSON record."""
    return {
        "family": rep.family,
        "q": rep.q,
        "e1": rep.e1,
        "e2": rep.e2,
        "eps": _sign_str(rep.eps),
        "sigma1": _sign_str(rep.sigma1),
        "sigma2": _sign_str(rep.sigma2),
        "alpha1": frac_jsonable(rep.alpha1) if rep.alpha1 is not None else None,
        "alpha2": frac_jsonable(rep.alpha2) if rep.alpha2 is not None else None,
        "lower_bound": quad_jsonable(rep.lower_bound),
        "relaxed_bound": frac_jsonable(rep.relaxed_bound)
        if rep.relaxed_bound is not None
        else None,
        "threshold": frac_jsonable(rep.threshold),
        "pass": rep.passed,
        "tight": rep.tight,
        "formula_id": rep.formula_id,
        "note": rep.note,
    }


def count_report_jsonable(rep) -> dict:
    """An oracle.CountReport as its JSON record."""
    return {
        "case": rep.case,
        "y1_count": str(rep.y1_count),
        "y2_count": str(rep.y2_count),
        "pairs": str(rep.pairs),
        "proportion": frac_jsonable(rep.proportion),
        "threshold": frac_jsonable(rep.threshold) if rep.threshold is not None else None,
        "pass": rep.passed,
        "method": rep.method,
    }


def _json_number(record: dict):
    """The Fraction or Surd that a rational or surd JSON record stands for."""
    if "sqrt_base" in record:
        return Surd(_json_number(record["a"]), _json_number(record["b"]), record["sqrt_base"])
    return Fraction(int(record["num"]), int(record["den"]))


def _csv_cell(value):
    """A JSON value as a CSV cell: None empty, a rational or surd as frac_str writes it."""
    if isinstance(value, dict):
        return frac_str(_json_number(value))
    return "" if value is None else value


def _emit_csv(records) -> str:
    """One CSV row per JSON report record, read through CSV_COLUMNS."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        fields = {**record.get("case", {}), **record}
        writer.writerow(
            _csv_cell(next((fields[k] for k in keys if k in fields), None))
            for keys in CSV_COLUMNS.values()
        )
    return buf.getvalue()


def _print_report(args, jsonable, table_lines, csv_records=()):
    if args.format == "json":
        print(dumps_canonical(jsonable))
    elif args.format == "csv":
        sys.stdout.write(_emit_csv(csv_records))
    else:
        for line in table_lines:
            print(line)


# -- commands -----------------------------------------------------------------


def cmd_spectrum(args) -> int:
    from . import spectrum

    _check_case(args)
    e1, e2 = max(args.e1, args.e2), min(args.e1, args.e2)
    closed = spectrum.eigen_exponents(e1, e2)
    via_chars = spectrum.eigen_exponents_via_characters(e1, e2)
    agree = closed == via_chars
    exps = closed.exponents
    lines = [f"graph: e1={e1} e2={e2} q={args.q} (regular degree {closed.degree(args.q)})"]
    lines.append("exponents m_j: " + ", ".join(str(m) for m in exps))
    lines.append(
        "eigenvalues: "
        + ", ".join(f"+-{spectrum.eigenvalue_str(args.q, m)}" for m in exps)
    )
    lines.append(f"character-route cross-check: {'ok' if agree else 'MISMATCH'}")
    jsonable = {
        "e1": e1,
        "e2": e2,
        "q": args.q,
        "exponents_twice": [m.twice for m in exps],
        "exponents": [str(m) for m in exps],
        "eigenvalues": [spectrum.eigenvalue_str(args.q, m) for m in exps],
        "character_route_agrees": agree,
    }
    _print_report(args, jsonable, lines)
    return 0 if agree else 1


class UsageError(ValueError):
    """Arguments that parse but do not describe a case: exit 2."""


def _check_case(args, fam=None, field_size: int | None = None) -> None:
    """Raise UsageError unless --e1 and --e2 are positive, args have the
    signs and dimension parity the bounds.Family fam needs, naming the flags
    at fault, and F_field_size, when given, is in the field inventory."""
    for name in ("e1", "e2"):
        if getattr(args, name) < 1:
            raise UsageError(f"need --{name} >= 1, got {getattr(args, name)}")
    if fam is not None:
        missing = [n for n in ("eps", "sigma1", "sigma2") if getattr(args, n) is None]
        if missing and fam.signed:
            raise UsageError(f"--{' --'.join(missing)} required for this family")
        if fam.even and (args.e1 % 2 or args.e2 % 2):
            raise UsageError(f"{args.family} dimensions must be even")
    if field_size is not None:
        from .gf import FIXED_MODULI

        if field_size not in FIXED_MODULI:
            raise UsageError(
                f"unsupported field size {field_size}; inventory: {sorted(FIXED_MODULI)}"
            )


def cmd_bound(args) -> int:
    from . import bounds

    _check_case(args, bounds.THEOREM[args.family])
    rep = bounds.bound_case(
        args.family, args.e1, args.e2, args.q, args.eps, args.sigma1, args.sigma2
    )
    lines = [
        f"{rep.label()}",
        f"alpha1 = {frac_str(rep.alpha1)}, alpha2 = {frac_str(rep.alpha2)}",
        f"lower bound = {rep.lower_bound} (~{rep.lower_bound.approx():.6f})",
        f"threshold = {frac_str(rep.threshold)}",
        ("PASS (equality)" if rep.tight else "PASS") if rep.passed else "FAIL",
    ]
    if rep.note:
        lines.append(f"note: {rep.note}")
        print(f"note: {rep.note}", file=sys.stderr)
    record = bound_report_jsonable(rep)
    _print_report(args, record, lines, [record])
    return 0 if rep.passed else 1


def cmd_count(args) -> int:
    from . import bounds, forms, oracle

    fam = bounds.THEOREM[args.family]
    _check_case(args, fam, args.q**2 if fam.kind == forms.HERMITIAN else args.q)
    eps, sigma1, sigma2 = (args.eps, args.sigma1, args.sigma2) if fam.signed else (None,) * 3
    e1, e2, q = args.e1, args.e2, args.q
    form = forms.standard_form(fam.kind, e1 + e2, q, eps)
    case = sigma1, sigma2, fam.threshold(e1, e2, q)
    [rep] = oracle.count_case(form, e1, e2, [case], args.full_pairs, args.budget)
    lines = [
        f"case: {rep.case}",
        f"|Y1| = {rep.y1_count}, |Y2| = {rep.y2_count}, complementary pairs = {rep.pairs}",
        f"proportion = {frac_str(rep.proportion)} (~{float(rep.proportion):.6f})",
        f"threshold = {frac_str(rep.threshold)}",
        f"method = {rep.method}",
        "PASS" if rep.passed else "FAIL",
    ]
    record = count_report_jsonable(rep)
    _print_report(args, record, lines, [record])
    return 0 if rep.passed else 1


def cmd_verify(args) -> int:
    from . import sweep

    families = FAMILIES if args.family == "all" else [args.family]
    overall_failures = []
    records = []
    all_jsonable = {}
    lines = []
    for fam in families:
        rep = sweep.verify_theorem(
            fam,
            run_oracle=not args.skip_oracle,
            full_pairs_d4=args.full_pairs,
            budget=args.budget,
        )
        overall_failures.extend(rep.failures)
        n_bound = len(rep.bound_reports)
        n_count = len(rep.count_reports)
        n_tail = len(rep.tail_checks)
        lines.append(
            f"{fam}: {'PASS' if rep.passed else 'FAIL'} "
            f"({n_bound} closed-form tuples, {n_count} oracle dispatches, {n_tail} tail checks)"
        )
        for f in rep.failures:
            lines.append(f"  FAILURE: {f}")
        bound_records = [bound_report_jsonable(r) for r in rep.bound_reports]
        count_records = [count_report_jsonable(r) for r in rep.count_reports]
        records += bound_records + count_records
        all_jsonable[fam] = {
            "passed": rep.passed,
            "bound_reports": bound_records,
            "count_reports": count_records,
            "tail_checks": [
                {
                    "name": t.name,
                    "q": t.q,
                    "value": frac_jsonable(t.value),
                    "threshold": frac_jsonable(t.threshold),
                    "pass": t.passed,
                }
                for t in rep.tail_checks
            ],
            "failures": rep.failures,
        }
    _print_report(args, all_jsonable, lines, records)
    if overall_failures:
        print(f"first failure: {overall_failures[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_mixing_check(args) -> int:
    from . import oracle

    _check_case(args, field_size=args.q)
    reports = oracle.mixing_suite(args.e1, args.e2, args.q, args.trials, args.seed)
    bad = [r for r in reports if not r.holds or r.charpoly_ok is False]
    lines = [
        f"mixing suite on e1={args.e1} e2={args.e2} q={args.q}: "
        f"{len(reports)} subset pairs, seed={args.seed}",
        f"inequality held: {sum(r.holds for r in reports)}/{len(reports)}"
        + (f", {sum(1 for r in reports if r.tight)} with equality" if reports else ""),
        "PASS" if not bad else "FAIL",
    ]
    jsonable = {
        "e1": args.e1,
        "e2": args.e2,
        "q": args.q,
        "seed": args.seed,
        "trials": args.trials,
        "all_hold": not bad,
        "tight_cases": sum(1 for r in reports if r.tight),
        "charpoly_checked": sum(1 for r in reports if r.charpoly_ok is not None),
    }
    _print_report(args, jsonable, lines)
    return 0 if not bad else 1


def prime_power_arg(text: str) -> int:
    """argparse type for --q: an int that is a prime power."""
    q = int(text)
    if not exactnum.is_prime_power(q):
        raise argparse.ArgumentTypeError(f"q = {q} is not a prime power")
    return q


def nonnegative_arg(text: str) -> int:
    """argparse type for --budget and --trials: an int >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oppmix",
        description="Exact spectra and density bounds for complementary-subspace graphs "
        "over finite classical spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rows, with_case=True):
        """--format, with csv only for a command whose report has rows."""
        formats = ["table", "json", "csv"] if rows else ["table", "json"]
        p.add_argument("--format", choices=formats, default="table")
        if with_case:
            p.add_argument("--e1", type=int, required=True)
            p.add_argument("--e2", type=int, required=True)
            p.add_argument("--q", type=prime_power_arg, required=True)

    def budget(p):
        # None: the oracle takes oracle.DEFAULT_ENUM_BUDGET
        p.add_argument("--budget", type=nonnegative_arg, default=None)

    def workers(p):
        p.add_argument("--workers", type=int, default=1, help="ignored: every count runs serially")

    def family_case(p):
        p.add_argument("--family", choices=FAMILIES, required=True)
        for sign in ("--eps", "--sigma1", "--sigma2"):
            p.add_argument(sign, type=exactnum.parse_sign, default=None)

    p = sub.add_parser("spectrum", help="distinct eigenvalues of the bipartite graph")
    common(p, rows=False)
    workers(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bound", help="closed-form lower bound for one case")
    common(p, rows=True)
    family_case(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("count", help="exact enumeration of one case")
    common(p, rows=True)
    family_case(p)
    budget(p)
    workers(p)
    p.add_argument("--full-pairs", action="store_true", help="count every pair (no orbit shortcut)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run a family's theorem sweep")
    common(p, rows=True, with_case=False)
    budget(p)
    workers(p)
    p.add_argument("--family", choices=[*FAMILIES, "all"], required=True)
    p.add_argument("--full-pairs", action="store_true", help="cross-check d=4 exceptions with all pairs")
    p.add_argument("--skip-oracle", action="store_true", help="closed-form sweep only")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mixing-check", help="exact mixing-lemma property suite")
    common(p, rows=False)
    workers(p)
    p.add_argument("--trials", type=nonnegative_arg, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mixing_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except exactnum.BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:  # the reader closed stdout: stop quietly, as SIGPIPE (13) would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the final flush cannot raise
        return 141


if __name__ == "__main__":
    sys.exit(main())
