import hashlib
import json
from fractions import Fraction

import pytest

from oppmix import bounds, cli, exactnum, oracle, spectrum
import recheck


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_table(capsys):
    code, out, _ = run(capsys, "spectrum", "--e1", "2", "--e2", "2", "--q", "2")
    assert code == 0
    assert "4, 2, 1" in out
    assert "+-16, +-4, +-2" in out
    assert "cross-check: ok" in out


def test_spectrum_swaps_arguments(capsys):
    code, out, _ = run(capsys, "spectrum", "--e1", "1", "--e2", "2", "--q", "2")
    assert code == 0
    assert "e1=2 e2=1" in out


def test_spectrum_half_exponent(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--e1", "2", "--e2", "1", "--q", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exponents"] == ["2", "1/2"]
    assert doc["eigenvalues"] == ["16", "2"]


def test_bound_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "bound",
        "--family",
        "unitary",
        "--e1",
        "1",
        "--e2",
        "1",
        "--q",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["tight"] is True
    assert doc["lower_bound"]["a"] == {"num": "1", "den": "2", "approx": 0.5}
    # canonical JSON: parse -> re-serialize is byte-identical
    assert cli.dumps_canonical(doc) == out.strip()


def test_bound_orthogonal_requires_signs(capsys):
    code, _, err = run(
        capsys, "bound", "--family", "orthogonal", "--e1", "2", "--e2", "2", "--q", "2"
    )
    assert code == 2
    assert "required" in err


def test_bound_exception_note(capsys):
    code, out, err = run(
        capsys,
        "bound",
        "--family",
        "orthogonal",
        "--eps",
        "+",
        "--sigma1",
        "-",
        "--sigma2",
        "-",
        "--e1",
        "2",
        "--e2",
        "2",
        "--q",
        "2",
    )
    assert code == 1  # the bound itself fails; oracle dispatch advised
    assert "dispatch" in err
    assert "FAIL" in out


def test_bound_csv(capsys):
    code, out, _ = run(
        capsys,
        "bound",
        "--family",
        "symplectic",
        "--e1",
        "2",
        "--e2",
        "2",
        "--q",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == ",".join(cli.CSV_COLUMNS)
    fields = row.split(",")
    assert fields[0] == "symplectic"
    assert fields[9] == "13/35"
    assert fields[11] == "True"


def test_count_hermitian_tight(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--family",
        "unitary",
        "--e1",
        "1",
        "--e2",
        "1",
        "--q",
        "2",
        "--full-pairs",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["proportion"] == {"num": "1", "den": "2", "approx": 0.5}
    assert doc["method"] == "full-pairs"
    assert cli.dumps_canonical(doc) == out.strip()


def test_count_full_pairs_on_o8_plus_gf2(capsys):
    argv = ["count", "--family", "orthogonal", "--eps", "+", "--sigma1", "+", "--sigma2", "+",
            "--e1", "4", "--e2", "4", "--q", "2", "--format", "json"]
    code, out, _ = run(capsys, *argv, "--full-pairs", "--workers", "1")
    assert code == 0
    full = json.loads(out)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    fast = json.loads(out)
    assert (full["method"], fast["method"]) == ("full-pairs", "transitivity-fast-path")
    assert full["pairs"] == fast["pairs"] == "1455820800"


def test_count_orthogonal(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--family",
        "orthogonal",
        "--eps",
        "+",
        "--sigma1",
        "-",
        "--sigma2",
        "-",
        "--e1",
        "2",
        "--e2",
        "2",
        "--q",
        "2",
    )
    assert code == 0
    assert "|Y1| = 2" in out
    assert "PASS" in out


def test_count_budget_exit_code(capsys):
    code, _, err = run(
        capsys,
        "count",
        "--family",
        "symplectic",
        "--e1",
        "4",
        "--e2",
        "4",
        "--q",
        "3",
        "--budget",
        "1000",
    )
    assert code == 3
    assert "budget" in err.lower()


def test_count_zero_budget_exit_code(capsys):
    # --budget 0 is a budget of nothing, not "use the default"
    code, _, err = run(
        capsys, "count", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "3",
        "--budget", "0",
    )
    assert code == 3
    assert "exceed budget 0" in err


@pytest.mark.parametrize(
    "command",
    [
        ["count", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "3"],
        ["verify", "--family", "symplectic"],
    ],
)
def test_negative_budget_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--budget", "-5"])
    assert exc.value.code == 2
    assert "--budget: -5 is negative" in capsys.readouterr().err


def test_negative_trials_is_a_usage_error(capsys):
    mixing = ["mixing-check", "--e1", "2", "--e2", "1", "--q", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main([*mixing, "--trials", "-3"])
    assert exc.value.code == 2
    assert "--trials: -3 is negative" in capsys.readouterr().err
    # no random pairs: the nine fixed subset pairs still run
    code, out, _ = run(capsys, *mixing, "--trials", "0")
    assert code == 0
    assert "9 subset pairs" in out


def test_workers_is_accepted_and_ignored(capsys):
    # the benchmark appends `--format json --workers 1` to every command it runs
    pinned = ["--format", "json", "--workers", "1"]
    for argv in (
        ["spectrum", "--e1", "2", "--e2", "2", "--q", "2"],
        ["verify", "--family", "symplectic", "--skip-oracle"],
        ["mixing-check", "--e1", "2", "--e2", "1", "--q", "2", "--trials", "5"],
    ):
        code, out, _ = run(capsys, *argv, *pinned)
        assert code == 0, argv
        json.loads(out)
    # 650^2 = 422,500 pairs: every worker count prints the same serial count
    count = ["count", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "5",
             "--full-pairs", "--format", "json"]
    code, serial, _ = run(capsys, *count, "--workers", "1")
    assert code == 0
    assert json.loads(serial)["pairs"] == "328250"
    assert run(capsys, *count, "--workers", "2") == (0, serial, "")


def test_verify_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "verify", "--family", "orthogonal", "--budget", "10", "--workers", "1"
    )
    assert code == 3
    assert "budget" in err.lower()


def test_internal_error_exit_code(capsys, monkeypatch):
    # an enumerated count that disagrees with its closed form is an internal
    # inconsistency: exit 4 with one line on stderr, not a traceback
    closed_form = exactnum.count_nondegenerate
    monkeypatch.setattr(
        exactnum, "count_nondegenerate", lambda *a, **kw: closed_form(*a, **kw) + 1
    )
    code, out, err = run(
        capsys, "count", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "3"
    )
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: enumerated ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_spectrum_character_mismatch_exit_code(capsys, monkeypatch):
    # the character route's self-check is an internal error, also under -O
    monkeypatch.setattr(spectrum, "char_ratio", lambda mu: Fraction(0))
    code, out, err = run(capsys, "spectrum", "--e1", "2", "--e2", "2", "--q", "2")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: e_mu = ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_collapse_mismatch_exit_code(capsys, monkeypatch):
    # the uniform-density mixing bound must equal its display exactly; a
    # mismatch is an internal error under `python -O` too, not an assert
    monkeypatch.setattr(bounds, "mixing_lower_bound", lambda *a: bounds.surd(0))
    for argv in (
        ["--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "2"],
        ["--family", "unitary", "--e1", "2", "--e2", "2", "--q", "2"],
    ):
        code, out, err = run(capsys, "bound", *argv)
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: uniform-density bound 0 does not collapse")
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "all", "--format", "json", "--workers", "1"],
        ["count", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "3"]
        + ["--format", "csv"],
    ],
)
def test_reports_are_byte_identical_across_runs(capsys, argv):
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv) == first


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "2", "--seed", "5"],
        ["bound", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "2", "--seed", "5"],
        ["bound", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "2", "--budget", "9"],
        ["spectrum", "--e1", "2", "--e2", "2", "--q", "2", "--budget", "9"],
        ["mixing-check", "--e1", "2", "--e2", "1", "--q", "2", "--budget", "9"],
        ["bound", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "2", "--workers", "1"],
    ],
)
def test_flags_a_command_ignores_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "mixing-check"])
def test_csv_is_offered_only_where_a_report_has_rows(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--e1", "2", "--e2", "1", "--q", "2", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_verify_all_bound_reports_pass_the_independent_recheck(capsys):
    # recheck rebuilds every threshold, lower bound and verdict without oppmix
    code, out, _ = run(capsys, "verify", "--family", "all", "--format", "json")
    assert code == 0
    assert recheck.recheck(json.loads(out)) == (1036, [])


def test_verify_all_csv_is_pinned(capsys):
    # header, 1,036 bound rows (288 with an irrational surd) and 56 count rows:
    # every column of both report kinds, read through CSV_COLUMNS
    code, out, _ = run(capsys, "verify", "--family", "all", "--format", "csv", "--workers", "1")
    assert code == 0
    assert out.count("\n") == 1093
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "4645fb5d0380098caf2d6f5b24b4785634b53a4d6e841ae34e3b81bc3899f893"
    argv = ["--family", "unitary", "--e1", "2", "--e2", "3", "--q", "2", "--format", "csv"]
    code, out, _ = run(capsys, "count", *argv)
    assert code == 0
    assert out.splitlines()[1] == "hermitian,,,,2,3,2,,,157/220,137/200,True,transitivity-fast-path"


@pytest.mark.parametrize(
    "family,e1,e2,q,threshold",
    [
        ("orthogonal", 2, 2, 2, "1/4"),
        ("orthogonal", 2, 2, 3, "1/2"),
        ("orthogonal", 4, 2, 2, "1/4"),
        ("symplectic", 2, 2, 2, "2/7"),
        ("symplectic", 2, 4, 2, "2/7"),
        ("symplectic", 2, 2, 3, "11/21"),
        ("unitary", 1, 1, 2, "1/2"),
        ("unitary", 1, 2, 2, "5/8"),
        ("unitary", 2, 2, 2, "137/200"),
        ("unitary", 1, 1, 3, "5/6"),
        ("unitary", 2, 1, 3, "5/6"),
    ],
)
def test_count_and_bound_share_threshold(capsys, family, e1, e2, q, threshold):
    argv = ["--family", family, "--e1", str(e1), "--e2", str(e2), "--q", str(q)]
    argv += ["--format", "json"]
    if family == "orthogonal":
        argv += ["--eps", "+", "--sigma1", "-", "--sigma2", "+"]
    _, bound_out, _ = run(capsys, "bound", *argv)
    _, count_out, _ = run(capsys, "count", *argv)
    num, den = threshold.split("/")
    want = {"num": num, "den": den, "approx": int(num) / int(den)}
    assert json.loads(bound_out)["threshold"] == want
    assert json.loads(count_out)["threshold"] == want


def test_verify_symplectic(capsys):
    code, out, _ = run(capsys, "verify", "--family", "symplectic")
    assert code == 0
    assert "symplectic: PASS" in out


def test_verify_unitary_json(capsys):
    code, out, _ = run(capsys, "verify", "--family", "unitary", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["unitary"]["passed"] is True
    assert doc["unitary"]["failures"] == []


def test_verify_orthogonal_skip_oracle(capsys):
    code, out, _ = run(capsys, "verify", "--family", "orthogonal", "--skip-oracle")
    assert code == 0
    assert "orthogonal: PASS" in out
    assert "0 oracle dispatches" in out


def test_mixing_check(capsys):
    code, out, _ = run(
        capsys, "mixing-check", "--e1", "2", "--e2", "1", "--q", "2", "--trials", "20",
        "--seed", "5",
    )
    assert code == 0
    assert "seed=5" in out
    assert "PASS" in out


def test_mixing_check_fails_on_the_quotient_identity_alone(capsys, monkeypatch):
    # a pair whose inequality holds but whose quotient identity fails is a
    # failed check, not a failed inequality
    alpha = Fraction(1, 7)
    holds = oracle.MixingReport(
        2, 1, 2, alpha, alpha, 1, holds=True, tight=False, charpoly_ok=False
    )
    monkeypatch.setattr(oracle, "mixing_suite", lambda *a: [holds] * 3)
    code, out, _ = run(capsys, "mixing-check", "--e1", "2", "--e2", "1", "--q", "2")
    assert code == 1
    assert out.splitlines()[1:] == ["inequality held: 3/3, 0 with equality", "FAIL"]


def test_mixing_check_quotient_identity_can_fail(capsys, monkeypatch):
    # one all-zero column appended (n2 = n1 + 1): the identity, exact only
    # for a square biadjacency, fails on an interior pair
    bi = oracle.build_biadjacency(2, 2, 3)
    wide = bi._replace(n2=bi.n2 + 1)
    report = oracle.mixing_check(wide, range(5), range(7))
    assert (report.alpha2, report.charpoly_ok) == (Fraction(7, 131), False)
    monkeypatch.setattr(oracle, "build_biadjacency", lambda *a: wide)
    code, out, _ = run(capsys, "mixing-check", "--e1", "2", "--e2", "2", "--q", "3")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--family", "hermitian", "--e1", "1", "--e2", "1", "--q", "2"])
    assert exc.value.code == 2


def test_invalid_parameters_exit_code(capsys):
    code, _, err = run(
        capsys, "count", "--family", "symplectic", "--e1", "3", "--e2", "3", "--q", "2"
    )
    assert code == 2
    assert "even" in err
    code, _, err = run(capsys, "spectrum", "--e1", "1", "--e2", "0", "--q", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv,line",
    [
        ("bound --family orthogonal --sigma1 + --sigma2 + --e1 2 --e2 2 --q 3",
         "error: --eps required for this family"),
        ("count --family orthogonal --eps + --sigma1 + --sigma2 + --e1 1 --e2 3 --q 3",
         "error: orthogonal dimensions must be even"),
    ],
    ids=["bound-without-eps", "count-odd-dimensions"],
)
def test_case_errors_exit_2_with_one_line(capsys, argv, line):
    # main reports the UsageError: nothing on stdout, one line on stderr
    assert run(capsys, *argv.split()) == (2, "", line + "\n")


@pytest.mark.parametrize(
    "argv,line",
    [
        # spectrum swaps the dimensions, which once made this "need e2 >= 1"
        ("spectrum --e1 0 --e2 3 --q 2", "error: need --e1 >= 1, got 0"),
        # the orthogonal bound halves them, which once made this "need m1, m2 >= 1, got 0, 2"
        ("bound --family orthogonal --eps + --sigma1 + --sigma2 + --e1 0 --e2 4 --q 2",
         "error: need --e1 >= 1, got 0"),
        # the symplectic bound once passed with alpha = 1
        ("bound --family symplectic --e1 4 --e2 0 --q 2", "error: need --e2 >= 1, got 0"),
        # mixing-check once checked the lemma on a one-vertex side and printed PASS
        ("mixing-check --e1 0 --e2 2 --q 2", "error: need --e1 >= 1, got 0"),
    ],
    ids=["spectrum", "bound-orthogonal", "bound-symplectic", "mixing-check"],
)
def test_dimension_errors_name_the_flag(capsys, argv, line):
    assert run(capsys, *argv.split()) == (2, "", line + "\n")


@pytest.mark.parametrize(
    "argv,code,err",
    [
        ("count --family symplectic --e1 2 --e2 2 --q 3", 0, ""),
        ("bound --family orthogonal --eps - --sigma1 - --sigma2 - --e1 2 --e2 2 --q 2", 1,
         "note: exception tuple: dispatch to the enumeration oracle (`count`)\n"),
        ("count --family symplectic --e1 2 --e2 3 --q 3", 2,
         "error: symplectic dimensions must be even\n"),
        ("count --family symplectic --e1 2 --e2 2 --q 3 --budget 0", 3,
         "budget error: 130 2-subspaces of dim 4 over F_3 exceed budget 0\n"),
    ],
    ids=["pass", "fail", "usage", "budget"],
)
def test_exit_classes(capsys, argv, code, err):
    # exit 4 has its own tests: an ArithmeticError and a stray ValueError
    got, _, got_err = run(capsys, *argv.split())
    assert (got, got_err) == (code, err)


def test_stray_value_error_is_an_internal_error(capsys, monkeypatch):
    # a ValueError that no argument check raised is a bug, not a usage error
    def broken(*args):
        raise ValueError("not a usage error")

    monkeypatch.setattr(oracle, "count_case", broken)
    argv = "count --family symplectic --e1 2 --e2 2 --q 3".split()
    assert run(capsys, *argv) == (4, "", "internal error: not a usage error\n")


@pytest.mark.parametrize(
    "argv,size",
    [
        ("count --family orthogonal --eps + --sigma1 + --sigma2 + --e1 2 --e2 2 --q 11", 11),
        ("count --family unitary --e1 2 --e2 2 --q 7", 49),
        ("mixing-check --e1 1 --e2 1 --q 27", 27),
    ],
    ids=["count", "count-unitary", "mixing-check"],
)
def test_field_outside_the_inventory_is_a_usage_error(capsys, argv, size):
    # a prime power with no fixed modulus: the unitary family counts over F_{q^2}
    inventory = "[2, 3, 4, 5, 7, 8, 9, 16, 25]"
    line = f"error: unsupported field size {size}; inventory: {inventory}\n"
    assert run(capsys, *argv.split()) == (2, "", line)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--e1", "2", "--e2", "2", "--q", "6"],
        ["bound", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "6"],
        ["count", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "1"],
    ],
)
def test_q_not_prime_power_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "prime power" in capsys.readouterr().err


def test_frac_str():
    from fractions import Fraction

    from oppmix.exactnum import surd

    assert cli.frac_str(Fraction(3, 7)) == "3/7"
    assert cli.frac_str(Fraction(4)) == "4"
    assert cli.frac_str(None) == ""
    assert cli.frac_str(surd(Fraction(1, 2))) == "1/2"
    assert cli.frac_str(surd(1, -1, 2)) == "1 + -1*sqrt(2)"


def test_family_choices_are_the_theorem_families():
    # argparse reads the names from cli.FAMILIES, so that start-up need not load bounds
    assert cli.FAMILIES == tuple(bounds.THEOREM)
