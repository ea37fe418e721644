"""A second opinion on every bound report of `oppmix verify --family all --format json`.

It uses the standard library only and imports nothing from oppmix, so a fault
in the package's exact arithmetic cannot hide in both places at once.  For
each bound report it checks:

  - the threshold, 1 - c/q^k, from its formula id through THRESHOLDS below;
  - the lower bound: off the containment branch it is rebuilt from the printed
    densities as k (1 - sqrt((1/a1 - 1)(1/a2 - 1)/Q^d)), k = Q^(e1 e2)/[d, e1]_Q,
    with Q = q, or q^2 for the unitary family, and compared by value; on the
    containment branch it must be 1 - c1/q^2, c1 = (1 + q^-e1)/(1 - q^-(1+e1));
  - pass (lower bound >= threshold) and tight (equal), decided by squaring.

Run it on a saved report:

    oppmix verify --family all --format json > all.json
    python tests/recheck.py all.json

It prints one line per fault and a summary, and exits 1 on any fault.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import isqrt, prod

CONTAINMENT = "unitary-e2-1-containment"

# formula id -> (c, k) of the threshold 1 - c/q^k; the containment branch
# takes c = 2 in place of 3/2 at (e1, e2, q) = (1, 1, 2), where it is tight
THRESHOLDS = {
    "orthogonal-two-alpha-mixing": (Fraction(3, 2), 1),
    "symplectic-display": (Fraction(10, 7), 1),
    "unitary-display": (Fraction(63, 50), 2),
    CONTAINMENT: (Fraction(3, 2), 2),
}


def number(record: dict) -> Fraction:
    return Fraction(int(record["num"]), int(record["den"]))


def gaussian(a: int, b: int, q: int) -> int:
    """[a, b]_q, the number of b-subspaces of F_q^a, by its product formula."""
    num = prod(q ** (a - i) - 1 for i in range(b))
    den = prod(q ** (i + 1) - 1 for i in range(b))
    assert num % den == 0, (a, b, q)
    return num // den


def threshold(formula_id: str, e1: int, e2: int, q: int) -> Fraction:
    c, k = THRESHOLDS[formula_id]
    if formula_id == CONTAINMENT and (e1, e2, q) == (1, 1, 2):
        c = Fraction(2)
    return 1 - c / q**k


def folded(a: Fraction, b: Fraction, n: int) -> tuple:
    """a + b sqrt(n) with a square n folded into a: b == 0 iff the value is rational."""
    root = isqrt(n)
    if b and root * root == n:
        return a + b * root, Fraction(0), 0
    return a, b, n if b else 0


def same_value(x: tuple, y: tuple) -> bool:
    """Whether a + b sqrt(n) and c + e sqrt(m), n and m integers >= 0, are equal.

    With both irrational parts nonzero, b sqrt(n) - e sqrt(m) is rational only
    if it is 0, so the rational parts agree and so do b^2 n, e^2 m and the
    signs of b and e.
    """
    (a, b, n), (c, e, m) = folded(*x), folded(*y)
    if not b or not e:
        return not b and not e and a == c
    return a == c and (b > 0) == (e > 0) and b * b * n == e * e * m


def show(x: tuple) -> str:
    a, b, n = x
    return f"{a} + {b}*sqrt({n})" if b else str(a)


def at_least(x: tuple, t: Fraction) -> tuple:
    """(x >= t, x == t) for x = a + b sqrt(n), by squaring b sqrt(n) against g = t - a."""
    a, b, n = folded(*x)
    g = t - a
    if not b:
        return g <= 0, g == 0
    lhs, rhs = b * b * n, g * g
    if b > 0:
        return g <= 0 or lhs >= rhs, g > 0 and lhs == rhs
    return g <= 0 and lhs <= rhs, g < 0 and lhs == rhs


def mixing_value(rep: dict) -> tuple:
    """k (1 - sqrt(R)) as (k, -k/den, num*den) for the radicand R = num/den."""
    q, e1, e2 = rep["q"], rep["e1"], rep["e2"]
    big_q = q * q if rep["family"] == "unitary" else q
    d = e1 + e2
    k = Fraction(big_q ** (e1 * e2), gaussian(d, e1, big_q))
    a1, a2 = number(rep["alpha1"]), number(rep["alpha2"])
    radicand = (1 / a1 - 1) * (1 / a2 - 1) / big_q**d
    return k, -k / radicand.denominator, radicand.numerator * radicand.denominator


def check_report(rep: dict) -> list:
    """The faults of one bound report, as strings; empty if it checks out."""
    q, e1, e2, fid = rep["q"], rep["e1"], rep["e2"], rep["formula_id"]
    where = f"{rep['family']} q={q} e1={e1} e2={e2} {rep['eps']}{rep['sigma1']}{rep['sigma2']}"
    bound = rep["lower_bound"]
    printed = number(bound["a"]), number(bound["b"]), bound["sqrt_base"]
    faults = []
    t = threshold(fid, e1, e2, q)
    if number(rep["threshold"]) != t:
        faults.append(f"{where}: threshold {number(rep['threshold'])}, expected {t}")
    if fid == CONTAINMENT:
        big = max(e1, e2)
        c1 = (1 + Fraction(1, q**big)) / (1 - Fraction(1, q ** (1 + big)))
        expected = (1 - c1 / q**2, Fraction(0), 0)
    else:
        expected = mixing_value(rep)
    if not same_value(printed, expected):
        faults.append(f"{where}: lower bound {show(printed)} is not {show(expected)}")
    passed, tight = at_least(expected, t)
    if (rep["pass"], rep["tight"]) != (passed, tight):
        printed_verdict = f"{rep['pass']}/{rep['tight']}"
        faults.append(f"{where}: pass/tight {printed_verdict}, expected {passed}/{tight}")
    return faults


def recheck(report: dict) -> tuple:
    """(number of bound reports checked, their faults) over every family of report."""
    reports = [rep for family in report.values() for rep in family["bound_reports"]]
    return len(reports), [fault for rep in reports for fault in check_report(rep)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: recheck.py [verify-all.json]  (stdin if omitted)", file=sys.stderr)
        return 2
    with open(argv[0]) if argv else sys.stdin as stream:
        count, faults = recheck(json.load(stream))
    for fault in faults:
        print(fault)
    print(f"{count} bound reports, {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
