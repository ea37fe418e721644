"""A second opinion on every report of `oppmix verify --family all --format json`.

It uses the standard library only and imports nothing from oppmix, so a fault
in the package's exact arithmetic cannot hide in both places at once.  For
each bound report it checks:

  - the formula id, the family's at (e1, e2), and the threshold, 1 - c/q^k,
    from it through THRESHOLDS below;
  - the lower bound: off the containment branch it is rebuilt from the printed
    densities as k (1 - sqrt((1/a1 - 1)(1/a2 - 1)/Q^d)), k = Q^(e1 e2)/[d, e1]_Q,
    with Q = q, or q^2 for the unitary family, and compared by value; on the
    containment branch it must be 1 - c1/q^2, c1 = (1 + q^-e1)/(1 - q^-(1+e1));
  - pass (lower bound >= threshold) and tight (equal), decided by squaring;
  - each density alpha = |Y| / [d, e]_Q against |Y| counted by orbit and
    stabilizer: |G| / |stabilizer| from the GO, Sp and GU orders below.

For each count report it checks |Y1| and |Y2| against the same orbit counts,
pairs = proportion |Y1| |Y2|, the threshold against the family's formula and
pass (proportion >= threshold).  For each tail check: pass iff value > threshold.

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


def order_go(m: int, sign: int, q: int) -> int:
    """|GO^sign(2m, q)|: 2 q^(m(m-1)) (q^m - sign) prod_{i<m} (q^(2i) - 1); 1 at m = 0."""
    if m == 0:
        return 1
    return 2 * q ** (m * (m - 1)) * (q**m - sign) * prod(q ** (2 * i) - 1 for i in range(1, m))


def order_sp(m: int, q: int) -> int:
    """|Sp(2m, q)| = q^(m^2) prod_{i<=m} (q^(2i) - 1)."""
    return q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))


def order_gu(n: int, q: int) -> int:
    """|GU(n, q)| = q^(n(n-1)/2) prod_{i<=n} (q^i - (-1)^i)."""
    return q ** (n * (n - 1) // 2) * prod(q**i - (-1) ** i for i in range(1, n + 1))


def orbit(family: str, e: int, d: int, q: int, eps: int, sigma: int) -> int:
    """Non-degenerate e-spaces (of type sigma if orthogonal) in the standard
    d-space (of type eps), as |G| / |stabilizer|: the stabilizer of S is that
    of S times that of its perp, whose orthogonal type is eps sigma."""
    if family == "orthogonal":
        group = order_go(d // 2, eps, q)
        parts = order_go(e // 2, sigma, q) * order_go((d - e) // 2, eps * sigma, q)
    elif family == "symplectic":
        group, parts = order_sp(d // 2, q), order_sp(e // 2, q) * order_sp((d - e) // 2, q)
    else:
        group, parts = order_gu(d, q), order_gu(e, q) * order_gu(d - e, q)
    assert group % parts == 0, (family, e, d, q)
    return group // parts


def sign(char) -> int:
    return -1 if char == "-" else 1


def formula(family: str, e1: int, e2: int) -> str:
    """The formula id of the family's threshold at (e1, e2), e1 >= e2."""
    if family == "unitary" and e2 == 1:
        return CONTAINMENT
    return {"orthogonal": "orthogonal-two-alpha-mixing", "symplectic": "symplectic-display"}.get(
        family, "unitary-display"
    )


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
    if fid != formula(rep["family"], e1, e2):
        faults.append(f"{where}: formula {fid}, expected {formula(rep['family'], e1, e2)}")
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
    eps, d, big_q = sign(rep["eps"]), e1 + e2, q * q if rep["family"] == "unitary" else q
    for name, e, sigma in (("alpha1", e1, rep["sigma1"]), ("alpha2", e2, rep["sigma2"])):
        alpha = Fraction(orbit(rep["family"], e, d, q, eps, sign(sigma)), gaussian(d, e, big_q))
        if number(rep[name]) != alpha:
            faults.append(f"{where}: {name} {number(rep[name])}, orbit count gives {alpha}")
    passed, tight = at_least(expected, t)
    if (rep["pass"], rep["tight"]) != (passed, tight):
        printed_verdict = f"{rep['pass']}/{rep['tight']}"
        faults.append(f"{where}: pass/tight {printed_verdict}, expected {passed}/{tight}")
    return faults


def check_count(family: str, rep: dict) -> list:
    """The faults of one count report, as strings; empty if it checks out."""
    case = rep["case"]
    q, d, e1, e2 = case["q"], case["d"], case["e1"], case["e2"]
    eps, s1, s2 = (sign(case.get(k)) for k in ("eps", "sigma1", "sigma2"))
    where = f"count {family} q={q} e1={e1} e2={e2} {case.get('eps', '')}"
    where += f"{case.get('sigma1', '')}{case.get('sigma2', '')}"
    y1, y2 = orbit(family, e1, d, q, eps, s1), orbit(family, e2, d, q, eps, s2)
    proportion, faults = number(rep["proportion"]), []
    if (int(rep["y1_count"]), int(rep["y2_count"])) != (y1, y2):
        faults.append(f"{where}: |Y1|, |Y2| {rep['y1_count']}, {rep['y2_count']}, orbits {y1}, {y2}")
    if int(rep["pairs"]) != proportion * y1 * y2:
        faults.append(f"{where}: {rep['pairs']} pairs, proportion times |Y1| |Y2| {proportion * y1 * y2}")
    t = threshold(formula(family, e1, e2), e1, e2, q)
    if number(rep["threshold"]) != t:
        faults.append(f"{where}: threshold {number(rep['threshold'])}, expected {t}")
    if rep["pass"] != (proportion >= t):
        faults.append(f"{where}: pass {rep['pass']} for proportion {proportion} against {t}")
    return faults


def check_tail(family: str, tail: dict) -> list:
    """The fault of one tail check, if its pass is not value > threshold."""
    value, t = number(tail["value"]), number(tail["threshold"])
    if tail["pass"] == (value > t):
        return []
    where = f"tail {family} {tail['name']} q={tail['q']}"
    return [f"{where}: pass {tail['pass']}, value {float(value)} against threshold {t}"]


def recheck(report: dict) -> tuple:
    """(number of bound reports checked, every fault) over every family of report:
    its bound reports, count reports and tail checks."""
    reports = [rep for family in report.values() for rep in family["bound_reports"]]
    faults = [fault for rep in reports for fault in check_report(rep)]
    for family, part in report.items():
        faults += [fault for rep in part["count_reports"] for fault in check_count(family, rep)]
        faults += [fault for tail in part["tail_checks"] for fault in check_tail(family, tail)]
    return len(reports), faults


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: recheck.py [verify-all.json]  (stdin if omitted)", file=sys.stderr)
        return 2
    with open(argv[0]) if argv else sys.stdin as stream:
        report = json.load(stream)
    count, faults = recheck(report)
    for fault in faults:
        print(fault)
    counts, tails = (sum(len(part[k]) for part in report.values()) for k in ("count_reports", "tail_checks"))
    print(f"{count} bound reports, {counts} count reports, {tails} tail checks, {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
