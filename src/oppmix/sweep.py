"""The theorem sweeps: every closed-form case of a family's grid, with the
exception tuples counted exactly by the oracle, then the tail checks.

GRIDS holds each family's (e1, e2, q) tuples, e1 >= e2, in report order.  The
bounds and tail checks are looked up on `bounds` at call time, not bound
here, so that a caller who replaces a module attribute sees every call.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from . import bounds, forms, oracle
from .exactnum import MINUS, PLUS, prime_powers_upto

SIGNS = (PLUS, MINUS)

GRIDS = {
    "orthogonal": tuple(
        (2 * m1, 2 * m2, q)
        for q in prime_powers_upto(5)
        for m1 in range(1, 7)
        for m2 in range(1, m1 + 1)
    ),
    "symplectic": tuple(
        (2 * m1, 2 * m2, q)
        for q in (2, 3, 4)
        for m1 in range(1, 10)
        for m2 in range(1, m1 + 1)
        if m1 + m2 < 10
    ),
    # the mixing display at e2 >= 2, then the rank-one containment bound
    "unitary": tuple(
        (e1, e2, q)
        for q in (2, 3)
        for e1 in range(2, 10)
        for e2 in range(2, e1 + 1)
        if e1 + e2 < 10
    )
    + tuple((e1, 1, q) for q in prime_powers_upto(9) for e1 in range(1, 41)),
}


class FamilyReport(NamedTuple):
    family: str
    bound_reports: list
    count_reports: list
    tail_checks: list
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_theorem(
    family: str,
    run_oracle: bool = True,
    full_pairs_d4: bool = False,
    budget: int | None = None,
) -> FamilyReport:
    """Sweep the family's grid over every sign triple it needs, then its tails.

    A tuple that is not an exception must clear its threshold in closed form;
    an exception tuple must miss it for some sign triple, or the list is
    stale, and goes to the enumeration oracle (unless `run_oracle` is off),
    whose exact proportion must clear the threshold in that sign triple's
    bound report.  One oracle.count_case call takes all of an exception
    form's sign triples, so each of its partitions is built once and freed
    before the next form's.  Perp duality, (S1, S2) -> (S2^perp, S1^perp),
    maps Y(e1, s1) x Y(e2, s2) onto Y(e1, eps s2) x Y(e2, eps s1), keeping
    complements, so their proportions must agree.  The d = 4 exceptions
    count every pair with `full_pairs_d4`; `budget` caps each oracle
    enumeration.
    """
    if family not in bounds.THEOREM:
        raise ValueError(f"unknown family {family!r}")
    fam = bounds.THEOREM[family]
    signs = list(product(SIGNS, repeat=3)) if fam.signed else [(None, None, None)]
    bound_reports, count_reports, failures = [], [], []
    for e1, e2, q in GRIDS[family]:
        exception = fam.is_exception(e1, e2, q)
        terms = bounds.orthogonal_terms(e1 // 2, e2 // 2, q) if fam.signed else None
        reps = [bounds.bound_case(family, e1, e2, q, eps, s1, s2, terms) for eps, s1, s2 in signs]
        bound_reports += reps
        if not exception:
            failures += [f"closed-form bound failed: {r.label()}" for r in reps if not r.passed]
        elif all(r.passed for r in reps):
            failures.append(
                f"listed exception passes in closed form: {family} q={q} e1={e1} e2={e2}"
            )
        if not (exception and run_oracle):
            continue
        for eps in dict.fromkeys(eps for eps, _, _ in signs):
            form = forms.standard_form(fam.kind, e1 + e2, q, eps)
            cases = [(s1, s2, r.threshold) for (x, s1, s2), r in zip(signs, reps) if x == eps]
            creps = oracle.count_case(form, e1, e2, cases, full_pairs_d4 and e1 + e2 == 4, budget)
            count_reports += creps
            failures += [f"oracle proportion failed: {c.case}" for c in creps if not c.passed]
            if fam.signed:  # perp duality: P(s1, s2) = P(eps s2, eps s1), each pair once
                by_signs = {(s1, s2): c for (s1, s2, _), c in zip(cases, creps)}
                for (s1, s2), c in by_signs.items():
                    dual = by_signs[eps * s2, eps * s1]
                    if (s1, s2) < (eps * s2, eps * s1) and c.proportion != dual.proportion:
                        failures.append(f"oracle duality failed: {c.case} against {dual.case}")
    tails = getattr(bounds, f"{family}_tail_checks")()
    failures.extend(f"tail check failed: {t.name} q={t.q}" for t in tails if not t.passed)
    return FamilyReport(family, bound_reports, count_reports, tails, failures)
