import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import valext
from valext.cli import (
    PolyParseError,
    format_element,
    main,
    parse_defining_poly,
    parse_element,
    parse_poly,
)
from valext.numberfield import NumberField
from valext.polynomials import format_poly


# -- parser -------------------------------------------------------------------


def test_parse_poly_basic():
    assert parse_poly("x^2+1", "x") == {2: 1, 0: 1}
    assert parse_poly("x^3 - x - 1", "x") == {3: 1, 1: -1, 0: -1}
    assert parse_poly("2*x^2 + 3", "x") == {2: 2, 0: 3}
    assert parse_poly("2x^2+3", "x") == {2: 2, 0: 3}
    assert parse_poly("1/2*a^2 + a - 3", "a") == {2: Fraction(1, 2), 1: 1, 0: -3}
    assert parse_poly("-x + 5", "x") == {1: -1, 0: 5}
    assert parse_poly("7", "x") == {0: 7}
    assert parse_poly("x + x", "x") == {1: 2}
    assert parse_poly("a^1000000000000000000 - 2", "a") == {10**18: 1, 0: -2}


def test_parse_poly_whitespace_insensitive():
    assert parse_poly(" x ^ 2 + 1 ", "x") == parse_poly("x^2+1", "x")


GARBAGE = ["", "x^", "x**2", "^2", "x^2 + + 1", "y^2+1", "1/0", "3..5", "x^2+", "-", "x^2 -",
           "2*", "2*y", "1/", "x2", "x^2x"]


def test_parse_poly_rejects_garbage():
    for bad in GARBAGE:
        with pytest.raises(PolyParseError):
            parse_poly(bad, "x")


@pytest.mark.parametrize("bad", GARBAGE)
def test_garbage_poly_exits_2_naming_it(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["extensions", "--prime", "5", "--poly", bad])
    assert exc.value.code == 2
    # these two messages say what is wrong without quoting the input
    want = {"": "empty polynomial", "1/0": "zero denominator"}.get(bad, repr(bad))
    assert want in capsys.readouterr().err


def test_parse_error_position_indexes_the_input_as_given():
    """The position counts the whitespace that the parser skips."""
    with pytest.raises(PolyParseError, match=r"'\+' at position 6 in 'x\^2 \+ \+ 1'"):
        parse_poly("x^2 + + 1", "x")
    with pytest.raises(PolyParseError, match=r"'\*' at position 2 in '2 \*y'"):
        parse_poly("2 *y", "x")


rationals = st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coeffs=st.lists(rationals, max_size=6), shift=st.integers(0, 10**18 - 6),
       var=st.sampled_from("xa"))
def test_parse_poly_inverts_format_poly(coeffs, shift, var):
    """format_poly's text parses back to its coefficients. Exponents 2 and
    up are shifted by up to 10^18 in the text, so the round trip reaches
    the exponents that parse_element takes by repeated squaring."""
    text = re.sub(r"\^(\d+)", lambda m: f"^{int(m[1]) + shift}", format_poly(coeffs, var))
    want = {k + shift * (k >= 2): c for k, c in enumerate(coeffs) if c}
    assert {k: c for k, c in parse_poly(text, var).items() if c} == want


def test_parse_defining_poly_constraints():
    with pytest.raises(PolyParseError):
        parse_defining_poly("2x^2+1")  # non-monic
    with pytest.raises(PolyParseError):
        parse_defining_poly("1/2*x^2+x")  # non-integer
    with pytest.raises(PolyParseError):
        parse_defining_poly("5")  # degree 0
    fld = parse_defining_poly("x^2+1")
    assert fld.n == 2


def test_parse_element_reduces():
    fld = NumberField([1, 0, 1])
    x = parse_element("a^2 + 1", fld)
    assert x.is_zero
    y = parse_element("1/2*a + 3", fld)
    assert y.coords == [Fraction(3), Fraction(1, 2)]


def test_format_element_round_trip():
    fld = NumberField([-1, -1, 0, 1])
    for coords in [[1, 0, 0], [0, 1, 0], [-3, Fraction(1, 2), 2], [0, 0, 0], [0, -1, 0]]:
        x = fld.element(coords)
        assert parse_element(format_element(x), fld) == x


# -- commands ----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extensions_json(capsys):
    code, out, err = run_cli(
        capsys, "extensions", "--prime", "5", "--poly", "x^2+1", "--output", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert [(e["e"], e["f"]) for e in data["extensions"]] == [(1, 1), (1, 1)]
    assert all(
        set(e) == {"index", "e", "f", "residue_field_dim", "prime_basis"}
        for e in data["extensions"]
    )


def test_extensions_text(capsys):
    code, out, err = run_cli(capsys, "extensions", "--prime", "2", "--poly", "x^2+1")
    assert code == 0
    assert "w_1: e=2 f=1" in out


def test_value_text_matches_spec_shape(capsys):
    code, out, err = run_cli(
        capsys, "value", "--prime", "2", "--poly", "x^2+1", "--elem", "a+1"
    )
    assert code == 0
    assert out.strip() == "w_1(a + 1) = 1/2"


def test_value_json_all_extensions(capsys):
    code, out, err = run_cli(
        capsys, "value", "--prime", "5", "--poly", "x^2+1", "--elem", "a+2",
        "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert sorted(v["value"] for v in data["values"]) == ["0", "1"]


def test_value_extension_filter(capsys):
    code, out, err = run_cli(
        capsys, "value", "--prime", "5", "--poly", "x^2+1", "--elem", "a+2",
        "--extension", "1", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["values"]) == 1
    assert data["values"][0]["extension"] == 1


def test_residue_command(capsys):
    code, out, err = run_cli(
        capsys, "residue", "--prime", "5", "--poly", "x^2+1", "--elem", "a",
        "--extension", "1", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["residue"] in ([2], [3])


def test_residue_negative_value_is_math_error(capsys):
    code, out, err = run_cli(
        capsys, "residue", "--prime", "5", "--poly", "x^2+1", "--elem", "1/5",
        "--extension", "1", "--output", "json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["error"]["type"] == "NegativeValue"


def test_math_error_text_goes_to_stderr(capsys):
    code, out, err = run_cli(
        capsys, "residue", "--prime", "5", "--poly", "x^2+1", "--elem", "1/5",
        "--extension", "1",
    )
    assert code == 1
    assert out == ""
    assert "NegativeValue" in err


def test_weak_approx_command(capsys):
    code, out, err = run_cli(
        capsys, "weak-approx", "--prime", "5", "--poly", "x^2+1",
        "--targets", "0;1", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["residues"] == [[0], [1]]


def test_approx_command(capsys):
    code, out, err = run_cli(
        capsys, "approx", "--prime", "2", "--poly", "x^2+1",
        "--extension", "1", "--gamma", "1/2", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["values"][0]["value"] == "1/2"


def test_approx_negative_gamma(capsys):
    code, out, err = run_cli(
        capsys, "approx", "--prime", "2", "--poly", "x^2+1",
        "--extension", "1", "--gamma", "-1/2", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["values"][0]["value"] == "-1/2"


@pytest.mark.parametrize(
    "argv",
    [
        ("value", "--prime", "5", "--poly", "x^2+1", "--elem", "-a+1"),
        ("value", "--prime", "5", "--poly", "x^2+1", "--elem", "-3/4*a"),
        ("value", "--prime", "3", "--elem", "a+2", "--poly", "-1+x^2"),
        ("weak-approx", "--prime", "5", "--poly", "x^2+1", "--targets", "-1;2"),
        ("approx", "--prime", "2", "--poly", "x^2+1", "--extension", "1", "--gamma", "-1/2"),
    ],
)
def test_value_starting_with_minus_after_a_space(capsys, argv):
    """`--opt -v` prints exactly what `--opt=-v` prints."""
    joined = run_cli(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert joined[0] == 0
    assert run_cli(capsys, *argv) == joined


def test_verify_command(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--prime", "23", "--poly", "x^3-x-1",
        "--trials", "5", "--seed", "7", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["sum_ef"] == 3
    assert len(data["trials"]) == 5


def test_order_command(capsys):
    code, out, err = run_cli(
        capsys, "order", "--prime", "2", "--poly", "x^3+x^2-2x+8", "--output", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == [["1", "0", "0"], ["0", "1/2", "1/2"], ["0", "0", "1"]]
    # row-major rationals reconstruct exactly
    assert [[Fraction(x) for x in row] for row in data["basis"]]


@pytest.mark.parametrize(
    "argv",
    [
        ("weak-approx", "--prime", "3", "--poly", "x^2-4", "--targets", "0;1"),
        ("value", "--prime", "3", "--poly", "x^2-4", "--elem", "a-2"),
        ("verify", "--prime", "3", "--poly", "x^2-4"),
        ("verify", "--prime", "2", "--poly", "x^4+4"),
        ("verify", "--prime", "1000000007", "--poly", "x^8+x+1"),
    ],
    ids=["weak-approx-x2-4", "value-x2-4", "verify-x2-4", "verify-x4+4", "verify-x8+x+1"],
)
def test_reducible_f_is_refused(capsys, argv):
    """These commands refuse a reducible f today through zero-divisor and
    zero-norm checks deep in the pipeline. Only the error type is pinned:
    the message may come to name a factor."""
    code, out, err = run_cli(capsys, *argv, "--output", "json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotIrreducible"


@pytest.mark.parametrize("output", ["text", "json"])
def test_internal_assertion_is_exit_1_without_traceback(capsys, monkeypatch, output):
    def failing_check(field, p):
        raise AssertionError("local factor dimension not divisible by residue degree")

    monkeypatch.setattr("valext.cli.extensions_of", failing_check)
    code, out, err = run_cli(
        capsys, "extensions", "--prime", "5", "--poly", "x^2+1", "--output", output
    )
    assert code == 1
    message = "local factor dimension not divisible by residue degree"
    if output == "json":
        assert json.loads(out) == {"error": {"type": "AssertionError", "message": message}}
        assert err == ""
    else:
        assert out == ""
        assert err == f"error: AssertionError: {message}\n"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["extensions", "--prime", "4", "--poly", "x^2+1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["extensions", "--prime", "5", "--poly", "2x^2+1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["value", "--prime", "5", "--poly", "x^2+1", "--elem", "a", "--extension", "9"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "poly, message",
    [
        ("2x^2+1", "defining polynomial must be monic"),
        ("x^2+1/2*x", "defining polynomial must have integer coefficients"),
        ("5", "defining polynomial must have degree >= 1"),
        ("x^2+", "expected a term at the end of 'x^2+'"),
    ],
    ids=["monic", "integer", "degree", "trailing-sign"],
)
def test_defining_poly_errors_exit_2(capsys, poly, message):
    with pytest.raises(SystemExit) as exc:
        main(["extensions", "--prime", "5", "--poly", poly])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_seed_and_trials_belong_to_verify(capsys):
    for flag in ("--seed", "--trials"):
        with pytest.raises(SystemExit) as exc:
            main(["extensions", "--prime", "5", "--poly", "x^2+1", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_negative_trials_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--prime", "5", "--poly", "x^2+1", "--trials", "-3"])
    assert exc.value.code == 2
    assert "trials must be >= 0" in capsys.readouterr().err


def test_prime_beyond_primality_bound_is_usage_error(capsys):
    from valext.padic import PRIME_BOUND

    with pytest.raises(SystemExit) as exc:
        main(["extensions", "--prime", str(PRIME_BOUND + 2), "--poly", "x^2+1"])
    assert exc.value.code == 2
    assert str(PRIME_BOUND) in capsys.readouterr().err


def test_trace_text_lines(capsys):
    code, out, err = run_cli(
        capsys, "extensions", "--prime", "5", "--poly", "x^2+1", "--trace"
    )
    assert code == 0
    lines = out.splitlines()
    assert any(l.startswith("SPLIT{") for l in lines)
    assert any(l.startswith("LIFT{") for l in lines)


def test_trace_json_field(capsys):
    code, out, err = run_cli(
        capsys, "value", "--prime", "5", "--poly", "x^2+1", "--elem", "a",
        "--trace", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert all(
        t.startswith(("SPLIT{", "LIFT{", "CASE1{", "CASE2{", "CASE3{")) for t in data["trace"]
    )
    assert any(t.startswith("CASE") for t in data["trace"])


def test_trace_field_input_has_no_split(capsys):
    code, out, err = run_cli(
        capsys, "extensions", "--prime", "7", "--poly", "x^2+1", "--trace",
        "--output", "json",
    )
    data = json.loads(out)
    assert not any(t.startswith("SPLIT") for t in data["trace"])


def test_byte_identical_determinism(capsys):
    args = ["verify", "--prime", "5", "--poly", "x^2+1", "--trials", "4",
            "--seed", "3", "--output", "json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_val_string_round_trip_through_json(capsys):
    code, out, _ = run_cli(
        capsys, "value", "--prime", "2", "--poly", "x^2+1", "--elem", "a+1",
        "--output", "json",
    )
    data = json.loads(out)
    for entry in data["values"]:
        Fraction(entry["value"])  # must parse back
    assert data["values"][0]["value"] == "1/2"


def test_value_of_zero_is_inf(capsys):
    """0 has the value INFINITY at every extension, printed as inf."""
    argv = ("value", "--prime", "5", "--poly", "x^2+1", "--elem", "0")
    assert run_cli(capsys, *argv) == (0, "w_1(0) = inf\nw_2(0) = inf\n", "")
    code, out, _ = run_cli(capsys, *argv, "--output", "json")
    assert code == 0
    assert json.loads(out)["values"] == [
        {"extension": 1, "value": "inf"}, {"extension": 2, "value": "inf"}
    ]


def test_approx_prints_integers_beyond_the_int_str_digit_limit(capsys):
    """At gamma = 6200 over p = 5 the coordinates are near 5^6201, more than
    the 4300 digits Python converts to str by default; the answer is still
    exact JSON."""
    code, out, err = run_cli(
        capsys, "approx", "--prime", "5", "--poly", "x^2+1",
        "--extension", "1", "--gamma", "6200", "--output", "json",
    )
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert max(map(len, data["element"].split())) > 4300
    assert data["values"] == [{"extension": 1, "value": "6200"}, {"extension": 2, "value": "6202"}]


def test_value_reads_integers_beyond_the_int_str_digit_limit(capsys):
    """A 5000-digit coefficient parses and prints back unchanged; N(x) is
    c^2 + 1 with c = 77...7, and v_5(c^2 + 1) = 1 = w_1(x) + w_2(x)."""
    sevens = "7" * 5000
    code, out, err = run_cli(
        capsys, "value", "--prime", "5", "--poly", "x^2+1", "--elem", f"{sevens}*a+1"
    )
    assert (code, err) == (0, "")
    assert out == f"w_1({sevens}*a + 1) = 1\nw_2({sevens}*a + 1) = 0\n"


def test_huge_powers_of_the_generator_parse_by_squaring(capsys):
    """a^N takes O(log N) products: a dense list of N + 1 coefficients
    would not fit in memory at N = 10^18. In x^2+1 the generator has order
    4, and in x^4+1 order 8."""
    n = 10**18  # divisible by 8
    gauss, eighth = NumberField([1, 0, 1]), NumberField([1, 0, 0, 0, 1])
    assert parse_element(f"a^{n}", gauss) == gauss.one()
    assert parse_element(f"a^{n + 3} + 2*a^{n + 2}", gauss) == gauss.element([-2, -1])
    assert parse_element(f"a^{n}", eighth) == eighth.one()
    assert parse_element(f"a^{n + 6} - 1/2*a^{n + 13}", eighth) == eighth.element([0, Fraction(1, 2), -1, 0])
    code, out, _ = run_cli(
        capsys, "value", "--prime", "5", "--poly", "x^4+1", "--elem", f"a^{n + 1}+2",
        "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["element"] == "a + 2"


# Exact stdout of a few runs, pinned byte for byte. The verify instance line
# prints the defining polynomial in x; the other lines print elements in a.
GOLDEN = {
    "verify": (
        ["verify", "--prime", "23", "--poly", "x^3-x-1", "--trials", "2"],
        "instance: Q[x]/(x^3 - x - 1) at p=23\n"
        "sum_ef = 3, degree = 3, rank = 3\n"
        "trials: 2, all equal: True\n"
        "pass: true\n",
    ),
    # approx_element returns its element reduced modulo p^N O, N = floor(gamma)
    # + 1, so w_2(x) may be any value > gamma; the lemma fixes only w_1(x).
    "approx": (
        ["approx", "--prime", "5", "--poly", "x^2+1", "--extension", "1", "--gamma", "2"],
        "x = 100*a + 75\nw_1(x) = 2\nw_2(x) = 4\n",
    ),
    "weak-approx": (
        ["weak-approx", "--prime", "5", "--poly", "x^2+1", "--targets", "3;1"],
        "x = 3*a + 2\nres_1(x) = [3]\nres_2(x) = [1]\n",
    ),
    "value": (
        ["value", "--prime", "5", "--poly", "x^2+1", "--elem=-a-1/2"],
        "w_1(-a - 1/2) = 1\nw_2(-a - 1/2) = 0\n",
    ),
    "extensions-trace": (
        ["extensions", "--prime", "5", "--poly", "x^2+1", "--trace"],
        "SPLIT{z=[0, 1], idempotent=[3, 1]}\n"
        "LIFT{iteration=1}\n"
        "LIFT{iteration=1}\n"
        "w_1: e=1 f=1 residue_field_dim=1\n"
        "w_2: e=1 f=1 residue_field_dim=1\n",
    ),
    # LIFT{iteration=k} counts the Newton steps x <- 3x^2 - 2x^3 that lift
    # one idempotent from the reduced quotient to O/pO, ending at the first
    # step after which x^2 = x. rad(pO) has nilpotency index 6 here (e = 6 at
    # w_3), so a lift may take up to three steps: the preimages of w_1's and
    # w_2's idempotents take three, and w_3's, the last, takes one.
    "extensions-trace-newton": (
        ["extensions", "--prime", "2", "--poly", "x^12+x^6+4", "--trace"],
        "SPLIT{z=[1, 0, 0, 0], idempotent=[1, 0, 0, 0]}\n"
        "SPLIT{z=[0, 0, 1, 1], idempotent=[0, 0, 1, 1]}\n"
        "LIFT{iteration=1}\n"
        "LIFT{iteration=2}\n"
        "LIFT{iteration=3}\n"
        "LIFT{iteration=1}\n"
        "LIFT{iteration=2}\n"
        "LIFT{iteration=3}\n"
        "LIFT{iteration=1}\n"
        "w_1: e=2 f=2 residue_field_dim=2\n"
        "w_2: e=2 f=1 residue_field_dim=1\n"
        "w_3: e=6 f=1 residue_field_dim=1\n",
    ),
    # The trace scope: every command traces the pipeline, and value and
    # residue also trace the CASE steps of their own element, not those of
    # the values and residues that approx, weak-approx and verify compute.
    "value-trace": (
        ["value", "--prime", "5", "--poly", "x^2+1", "--elem=-a-1/2", "--trace"],
        "SPLIT{z=[0, 1], idempotent=[3, 1]}\n"
        "LIFT{iteration=1}\n"
        "LIFT{iteration=1}\n"
        "CASE3{j=3}\n"
        "CASE1{j=2}\n"
        "CASE1{j=3}\n"
        "w_1(-a - 1/2) = 1\n"
        "w_2(-a - 1/2) = 0\n",
    ),
    # Ramified extensions: the walk that certifies a value runs on x^e p^-m,
    # with e = 5, and with e = 1 and 2.
    "value-trace-totally-ramified": (
        ["value", "--prime", "5", "--poly", "x^5-5", "--elem", "a^2+5", "--trace"],
        "LIFT{iteration=1}\n"
        "CASE1{j=6}\n"
        "w_1(a^2 + 5) = 2/5\n",
    ),
    "value-trace-partially-ramified": (
        ["value", "--prime", "23", "--poly", "x^3-x-1", "--elem", "a^2-13*a+30", "--trace"],
        "SPLIT{z=[1, 0], idempotent=[18, 12]}\n"
        "LIFT{iteration=1}\n"
        "LIFT{iteration=1}\n"
        "CASE3{j=4}\n"
        "CASE3{j=3}\n"
        "CASE1{j=2}\n"
        "CASE1{j=4}\n"
        "w_1(a^2 - 13*a + 30) = 1\n"
        "w_2(a^2 - 13*a + 30) = 1/2\n",
    ),
    "residue-trace": (
        ["residue", "--prime", "5", "--poly", "x^2+1", "--elem", "a", "--extension", "1",
         "--trace"],
        "SPLIT{z=[0, 1], idempotent=[3, 1]}\n"
        "LIFT{iteration=1}\n"
        "LIFT{iteration=1}\n"
        "CASE1{j=3}\n"
        "res_1(a) = [2]\n",
    ),
    "weak-approx-trace": (
        ["weak-approx", "--prime", "5", "--poly", "x^2+1", "--targets", "3;1", "--trace"],
        "SPLIT{z=[0, 1], idempotent=[3, 1]}\n"
        "LIFT{iteration=1}\n"
        "LIFT{iteration=1}\n"
        "x = 3*a + 2\nres_1(x) = [3]\nres_2(x) = [1]\n",
    ),
    "approx-trace": (
        ["approx", "--prime", "5", "--poly", "x^2+1", "--extension", "1", "--gamma", "2",
         "--trace"],
        "SPLIT{z=[0, 1], idempotent=[3, 1]}\n"
        "LIFT{iteration=1}\n"
        "LIFT{iteration=1}\n"
        "x = 100*a + 75\nw_1(x) = 2\nw_2(x) = 4\n",
    ),
    "verify-trace": (
        ["verify", "--prime", "23", "--poly", "x^3-x-1", "--trials", "2", "--trace"],
        "SPLIT{z=[1, 0], idempotent=[18, 12]}\n"
        "LIFT{iteration=1}\n"
        "LIFT{iteration=1}\n"
        "instance: Q[x]/(x^3 - x - 1) at p=23\n"
        "sum_ef = 3, degree = 3, rank = 3\n"
        "trials: 2, all equal: True\n"
        "pass: true\n",
    ),
    "value-trace-json": (
        ["value", "--prime", "5", "--poly", "x^2+1", "--elem=-a-1/2", "--trace",
         "--output", "json"],
        '{"element": "-a - 1/2", "values": [{"extension": 1, "value": "1"}, '
        '{"extension": 2, "value": "0"}], "trace": ['
        '"SPLIT{z=[0, 1], idempotent=[3, 1]}", '
        '"LIFT{iteration=1}", "LIFT{iteration=1}", "CASE3{j=3}", "CASE1{j=2}", '
        '"CASE1{j=3}"]}\n',
    ),
    # p-maximal orders, each Round-2 step through the integer table of the
    # order before it. The first three have f = x^n mod p, so Round 2 starts
    # from the Newton-polygon order theta^k / p^floor(k lambda): x^8+4096
    # takes 2 enlargement steps from it, and for x^6-2187 and x^4-1536 it is
    # already p-maximal. x^12+x^6+4 = x^6 (x^3+1)^2 mod 2 takes 4 from Z[x].
    "order-round2-x8+4096": (
        ["order", "--prime", "2", "--poly", "x^8+4096", "--output", "json"],
        '{"prime": 2, "poly": "x^8+4096", "basis": ['
        '["1", "0", "0", "0", "0", "0", "0", "0"], '
        '["0", "1/4", "0", "0", "0", "1/256", "0", "0"], '
        '["0", "0", "1/8", "0", "0", "0", "0", "0"], '
        '["0", "0", "0", "1/32", "0", "0", "0", "1/2048"], '
        '["0", "0", "0", "0", "1/64", "0", "0", "0"], '
        '["0", "0", "0", "0", "0", "1/128", "0", "0"], '
        '["0", "0", "0", "0", "0", "0", "1/512", "0"], '
        '["0", "0", "0", "0", "0", "0", "0", "1/1024"]]}\n',
    ),
    "order-round2-x6-2187": (
        ["order", "--prime", "3", "--poly", "x^6-2187", "--output", "json"],
        '{"prime": 3, "poly": "x^6-2187", "basis": ['
        '["1", "0", "0", "0", "0", "0"], '
        '["0", "1/3", "0", "0", "0", "0"], '
        '["0", "0", "1/9", "0", "0", "0"], '
        '["0", "0", "0", "1/27", "0", "0"], '
        '["0", "0", "0", "0", "1/81", "0"], '
        '["0", "0", "0", "0", "0", "1/243"]]}\n',
    ),
    "order-round2-x4-1536": (
        ["order", "--prime", "2", "--poly", "x^4-1536", "--output", "json"],
        '{"prime": 2, "poly": "x^4-1536", "basis": ['
        '["1", "0", "0", "0"], '
        '["0", "1/4", "0", "0"], '
        '["0", "0", "1/16", "0"], '
        '["0", "0", "0", "1/64"]]}\n',
    ),
    "order-round2-x12+x6+4": (
        ["order", "--prime", "2", "--poly", "x^12+x^6+4", "--output", "json"],
        '{"prime": 2, "poly": "x^12+x^6+4", "basis": ['
        '["1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"], '
        '["0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"], '
        '["0", "0", "1/2", "0", "0", "1/4", "0", "0", "1/2", "0", "0", "1/4"], '
        '["0", "0", "0", "1/2", "0", "0", "0", "0", "0", "1/2", "0", "0"], '
        '["0", "0", "0", "0", "1/2", "0", "0", "0", "0", "0", "1/2", "0"], '
        '["0", "0", "0", "0", "0", "1/2", "0", "0", "0", "0", "0", "1/2"], '
        '["0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0"], '
        '["0", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0"], '
        '["0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0"], '
        '["0", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "0"], '
        '["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0"], '
        '["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1"]]}\n',
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_stdout(capsys, name):
    argv, expected = GOLDEN[name]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_one_parser_serves_a_whole_process(capsys, monkeypatch):
    """main parses every call with the one parser built at import. A run of
    calls in one process, usage errors and --help among them, prints
    byte-for-byte what each argv prints from a fresh interpreter: stdout,
    stderr and exit code."""
    field = ["--prime", "5", "--poly", "x^2+1"]
    runs = [
        ["extensions", *field],
        ["value", *field, "--elem", "a+2", "--trace"],
        ["extensions", "--prime", "4", "--poly", "x^2+1"],
        ["verify", "--prime", "23", "--poly", "x^3-x-1", "--trials", "2"],
        ["--help"],
        ["value", "--help"],
        ["residue", *field, "--elem", "1/5", "--extension", "1"],
        ["extensions", *field],
    ]
    # --help wraps its text at the terminal width: the same in both.
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(valext.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "valext.cli", *argv], capture_output=True, env=env, timeout=120
        )
        got = (code, captured.out.encode(), captured.err.encode())
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
