from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from adinvar import build_gd, corpus_build, double_extend
from adinvar.io import (MAX_DIM, SpecFormatError, dump_algebra_dict,
                        dump_builder_dict, load_algebra_dict, load_builder_dict,
                        parse_rational)
from conftest import indefinite_abelian_reps, nilpotent_reps


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(5) == F(5)
    assert parse_rational("-2") == F(-2)
    for bad in (1.5, "x", None, "1/0"):
        with pytest.raises(SpecFormatError):
            parse_rational(bad)


DIGITS = st.text("0123456789", min_size=1, max_size=12)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(["", " ", "\t", "\n ", "\u2003"]), st.sampled_from(["", "+", "-"]),
       st.sampled_from(["", "0", "000"]), DIGITS,
       st.none() | st.tuples(st.sampled_from(["", "0", "00"]), DIGITS.filter(
           lambda s: s.strip("0"))), st.sampled_from(["", " ", "\r\n"]))
def test_parse_rational_equals_fraction_on_valid_strings(left, sign, zeros, num, den, right):
    """'n' and 'p/q' with a sign, leading zeros and surrounding whitespace
    parse to what Fraction makes of the same string."""
    value = f"{left}{sign}{zeros}{num}{'' if den is None else '/' + ''.join(den)}{right}"
    assert parse_rational(value) == F(value)


LONG = "1" * 5000


@pytest.mark.parametrize("value, message", [
    ("1/0", "bad rational '1/0': Fraction(1, 0)"),
    (LONG, f"bad rational '{LONG}': Exceeds the limit (4300 digits) for integer string "
           "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to "
           "increase the limit"),
    ("0.5", "rational must be an integer or 'p/q' string, got '0.5'"),
    ("\u0661/\u0662", "rational must be an integer or 'p/q' string, got '\u0661/\u0662'"),
    ("1/-2", "rational must be an integer or 'p/q' string, got '1/-2'"),
    (True, "rational must be an integer or 'p/q' string, got True"),
    (1.5, "rational must be an integer or 'p/q' string, got 1.5"),
], ids=["zero_denominator", "5000_digits", "decimal", "arabic_indic", "signed_denominator",
        "bool", "float"])
def test_parse_rational_refusals_keep_their_messages(value, message):
    with pytest.raises(SpecFormatError) as exc:
        parse_rational(value, "here")
    assert str(exc.value) == f"here: {message}"


def test_repeated_bracket_entries_add_up():
    """Entries of one bracket component add up, and a sum of zero is no
    entry; the first entry of a component is kept as it is."""
    alg, _ = load_algebra_dict({"dim": 3, "brackets": [
        [1, 2, 3, "1/2"], [1, 2, 1, 1], [1, 2, 3, "1/3"], [1, 2, 1, -1], [2, 3, 1, "2/4"]]})
    assert alg.table == {(0, 1): {2: F(5, 6)}, (1, 2): {0: F(1, 2)}}


def test_roundtrip_every_corpus_entry():
    from adinvar import corpus_list
    for name in corpus_list():
        entry = corpus_build(name)
        gd = build_gd(entry.rep)
        doc = dump_algebra_dict(gd.L, gd.metric)
        alg, form = load_algebra_dict(doc)
        assert alg == gd.L
        assert form == gd.metric
        dbl = double_extend(entry.rep)
        doc2 = dump_algebra_dict(dbl.g, dbl.Q)
        alg2, form2 = load_algebra_dict(doc2)
        assert alg2 == dbl.g
        assert form2 == dbl.Q


def test_builder_roundtrip():
    rep = corpus_build("gH").rep
    doc = dump_builder_dict(rep)
    back = load_builder_dict(doc)
    assert back == rep


@settings(derandomize=True, max_examples=30, deadline=None)
@given(indefinite_abelian_reps() | nilpotent_reps())
def test_builder_roundtrip_on_generated_data(rep):
    assert load_builder_dict(dump_builder_dict(rep)) == rep


def test_indices_are_one_based_lower_triangular():
    with pytest.raises(SpecFormatError, match="i < j"):
        load_algebra_dict({"dim": 2, "brackets": [[2, 1, 1, 1]]})
    with pytest.raises(SpecFormatError, match="out of 1..2"):
        load_algebra_dict({"dim": 2, "brackets": [[1, 2, 3, 1]]})
    with pytest.raises(SpecFormatError, match="i <= j"):
        load_algebra_dict({"dim": 2, "metric": [[2, 1, 1]]})


def test_format_diagnostics_carry_location():
    with pytest.raises(SpecFormatError, match=r"brackets\[1\]"):
        load_algebra_dict({"dim": 2, "brackets": [[1, 2, 1, 1], [1, 2, 1]]})
    with pytest.raises(SpecFormatError, match="positive integer"):
        load_algebra_dict({"dim": 0})
    with pytest.raises(SpecFormatError, match="names"):
        load_algebra_dict({"dim": 2, "names": ["only-one"]})
    with pytest.raises(SpecFormatError, match="rational"):
        load_algebra_dict({"dim": 2, "brackets": [[1, 2, 1, 0.5]]})
    with pytest.raises(SpecFormatError,
                       match="^algebra: algebra spec must be an object$"):
        load_algebra_dict([{"dim": 2}])
    with pytest.raises(SpecFormatError,
                       match=r"^algebra\.metric\[1\]: metric entry must be \[i, j, value\]$"):
        load_algebra_dict({"dim": 2, "metric": [[1, 1, 1], [1, 2, 1, 1]]})
    small = {"dim": 1, "metric": [[1, 1, 1]]}
    with pytest.raises(SpecFormatError, match=r"^builder\.pi\[1\]: matrix must be 1x1$"):
        load_builder_dict({"d": small, "h": {"dim": 2, "metric": [[1, 1, 1], [2, 2, 1]]},
                           "pi": [[[0]], [[0], [0]]]})


def test_builder_requires_metrics():
    with pytest.raises(SpecFormatError, match="'d' needs a metric"):
        load_builder_dict({"d": {"dim": 1}, "h": {"dim": 1, "metric": [[1, 1, 1]]},
                           "pi": [[[0]]]})
    with pytest.raises(SpecFormatError, match="^builder: 'h' needs a metric$"):
        load_builder_dict({"d": {"dim": 1, "metric": [[1, 1, 1]]}, "h": {"dim": 1},
                           "pi": [[[0]]]})
    for part in ("d", "h"):
        with pytest.raises(SpecFormatError,
                           match=f"^builder: builder spec is missing '{part}'$"):
            load_builder_dict({"d": {"dim": 1}, "h": {"dim": 1}, "pi": [[[0]]],
                               part: None})
    with pytest.raises(SpecFormatError, match="^builder: builder spec must be an object$"):
        load_builder_dict([])
    with pytest.raises(SpecFormatError, match="'pi' must list"):
        load_builder_dict({"d": {"dim": 1, "metric": [[1, 1, 1]]},
                           "h": {"dim": 1, "metric": [[1, 1, 1]]},
                           "pi": []})


def test_load_does_not_validate_jacobi():
    alg, _ = load_algebra_dict(
        {"dim": 3, "brackets": [[1, 2, 3, 1], [1, 3, 1, 1]]})
    from adinvar import check_jacobi
    assert check_jacobi(alg)  # report is nonempty, loading still fine


def test_duplicate_entries_accumulate():
    alg, _ = load_algebra_dict(
        {"dim": 2, "brackets": [[1, 2, 1, "1/2"], [1, 2, 1, "1/2"]]})
    assert alg.table[(0, 1)][0] == F(1)


def test_booleans_are_not_integers():
    with pytest.raises(SpecFormatError, match="positive integer"):
        load_algebra_dict({"dim": True})
    with pytest.raises(SpecFormatError, match=r"brackets\[0\]"):
        load_algebra_dict({"dim": 2, "brackets": [[1, True, 1, 1]]})
    with pytest.raises(SpecFormatError, match=r"metric\[0\]"):
        load_algebra_dict({"dim": 2, "metric": [[True, 1, 1]]})


def test_repeated_metric_entry_refused():
    with pytest.raises(SpecFormatError,
                       match=r"metric\[1\]: metric entry \(1,2\) repeats metric\[0\]"):
        load_algebra_dict({"dim": 2, "metric": [[1, 2, 1], [1, 2, 1]]})


def test_decimal_and_exponent_rationals_refused():
    # Unicode digits, which \d and Fraction accept: Arabic-Indic 1/2,
    # mathematical double-struck 1, fullwidth 3
    for bad in ("0.5", "1e3", "-2.25", "1E-2", "1_000", "١/٢", "𝟙", "３"):
        with pytest.raises(SpecFormatError, match="integer or 'p/q' string"):
            parse_rational(bad)
    assert parse_rational(" -3/4 ") == F(-3, 4)
    with pytest.raises(SpecFormatError,
                       match=r"algebra\.metric\[1\]: rational must be"):
        load_algebra_dict({"dim": 2, "metric": [[1, 1, 1], [2, 2, "1e3"]]})


def test_repeated_name_refused():
    with pytest.raises(SpecFormatError,
                       match=r"algebra\.names\[2\]: name 'a' repeats names\[0\]"):
        load_algebra_dict({"dim": 3, "names": ["a", "b", "a"]})


def test_dimension_above_the_cap_refused_before_allocation():
    """Only dims that allocate nothing when refused: a declared dimension of
    10^8 is refused from the number alone, in an algebra and in either part
    of a builder, and a builder whose double h + d + h* would exceed the
    cap, d = 13 and h = 6, before its 'pi' is read."""
    small = {"dim": 1, "metric": [[1, 1, 1]]}
    for dim in (MAX_DIM + 1, 100000000):
        with pytest.raises(SpecFormatError, match=f"'dim' {dim} exceeds"):
            load_algebra_dict({"dim": dim, "metric": [[1, 1, 1]]})
        for part in ("d", "h"):
            spec = {"d": small, "h": small, "pi": [[[0]]], part: {"dim": dim}}
            with pytest.raises(SpecFormatError, match=f"^builder\\.{part}: 'dim' {dim} exceeds"):
                load_builder_dict(spec)
    assert load_algebra_dict({"dim": MAX_DIM})[0].dim == MAX_DIM
    d, h = ({"dim": n, "metric": [[i, i, 1] for i in range(1, n + 1)]} for n in (13, 6))
    with pytest.raises(SpecFormatError, match=r"^builder: the double h \+ d \+ h\* "
                       r"has dimension 25, above the largest supported dimension 24$"):
        load_builder_dict({"d": d, "h": h})


def test_brackets_and_metric_that_are_not_lists_refused():
    """null, a number, a string or an object as 'brackets' or 'metric', in an
    algebra and in either part of a builder, is malformed input with a
    located message (it used to end in a TypeError)."""
    small = {"dim": 1, "metric": [[1, 1, 1]]}
    for key in ("brackets", "metric"):
        for value in (None, 5, "[]", {}):
            with pytest.raises(SpecFormatError,
                               match=f"^algebra: '{key}' must be a list$"):
                load_algebra_dict({"dim": 2, key: value})
            for part in ("d", "h"):
                spec = {"d": small, "h": small, "pi": [[[0]]],
                        part: {**small, key: value}}
                with pytest.raises(SpecFormatError,
                                   match=f"^builder\\.{part}: '{key}' must be a list$"):
                    load_builder_dict(spec)
