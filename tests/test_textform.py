from fractions import Fraction

import pytest

from germlab import ParseError, Poly, format_poly, parse_poly


def test_grammar_examples():
    f = parse_poly("x1^2 - 3/2*x1*x2 + x2^3", 2)
    assert f.coeff((2, 0)) == 1
    assert f.coeff((1, 1)) == Fraction(-3, 2)
    assert f.coeff((0, 3)) == 1


def test_whitespace_insignificant():
    assert parse_poly(" x1 ^2-3/2 * x1* x2+x2^3 ", 2) == parse_poly(
        "x1^2-3/2*x1*x2+x2^3", 2
    )


def test_coefficient_forms():
    assert parse_poly("5", 2) == Poly.constant(2, 5)
    assert parse_poly("-x1", 2) == Poly.variable(2, 0).scale(-1)
    assert parse_poly("3x1", 2) == parse_poly("3*x1", 2)
    assert parse_poly("x1*x1", 2) == parse_poly("x1^2", 2)
    assert parse_poly("x1^0", 2) == Poly.constant(2, 1)
    assert parse_poly("x1 + x1", 2) == parse_poly("2*x1", 2)
    assert parse_poly("x1 - x1", 2).is_zero


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_poly("x1^", 2)
    assert info.value.column == 4
    with pytest.raises(ParseError):
        parse_poly("x3 + x1", 2)
    with pytest.raises(ParseError):
        parse_poly("", 2)
    with pytest.raises(ParseError):
        parse_poly("x1 + + x2", 2)
    with pytest.raises(ParseError):
        parse_poly("1/0", 2)
    with pytest.raises(ParseError):
        parse_poly("x1 x2", 2)


def test_roundtrip_exact():
    samples = [
        "0",
        "1",
        "-7/3",
        "x1",
        "-x2^4",
        "x1^2 - 3/2*x1*x2 + x2^3",
        "1/2 - x1 + 5*x1^3*x2^2",
    ]
    for text in samples:
        f = parse_poly(text, 2)
        assert parse_poly(format_poly(f), 2) == f


def test_canonical_print_is_sorted_forward():
    f = parse_poly("x2^3 + x1^2 - 3/2*x1*x2", 2)
    assert format_poly(f) == "-3/2*x1*x2 + x1^2 + x2^3"
    assert format_poly(Poly.zero(2)) == "0"


# (text, reason, line, column) for malformed input on two variables, each
# as the character-by-character scanner reported it
PARSE_ERRORS = [
    ("x", "expected a variable index after 'x'", 1, 1),
    ("x0", "variable x0 outside x1..x2", 1, 1),
    ("x3", "variable x3 outside x1..x2", 1, 1),
    ("x1^", "expected a digit", 1, 4),
    ("x1^^2", "expected a digit", 1, 4),
    ("1/0", "zero denominator", 1, 3),
    ("1/", "expected a digit", 1, 3),
    ("x1 + + x2", "expected a coefficient or a variable", 1, 6),
    ("x1 x2", "unexpected character 'x'", 1, 4),
    ("2 3", "unexpected character '3'", 1, 3),
    ("x1**x2", "expected a variable", 1, 4),
    ("*x1", "expected a coefficient or a variable", 1, 1),
    ("+", "unexpected end of input", 1, 2),
    ("", "empty polynomial", 1, 1),
    ("  ", "empty polynomial", 1, 3),
    ("x1²", "unexpected character '²'", 1, 3),
    ("x1^²", "expected a digit", 1, 4),
    ("٣*x1", "expected a coefficient or a variable", 1, 1),
    ("x²", "expected a variable index after 'x'", 1, 1),
    ("x1 +\n  x9", "variable x9 outside x1..x2", 2, 3),
    ("1" * 5000 + "*x1", "integer of 5000 digits is too long", 1, 1),
    ("x1 - 3/" + "4" * 5000, "integer of 5000 digits is too long", 1, 8),
]


@pytest.mark.parametrize(
    "text,reason,line,column",
    PARSE_ERRORS,
    ids=[text if len(text) < 20 else f"{text[:6]}...{len(text)}-chars" for text, *_ in PARSE_ERRORS],
)
def test_parse_error_reason_and_position(text, reason, line, column):
    with pytest.raises(ParseError) as info:
        parse_poly(text, 2)
    assert (info.value.reason, info.value.line, info.value.column) == (reason, line, column)


@pytest.mark.parametrize(
    "text,terms",
    [
        ("x01", [((1, 0), 1)]),
        ("3x1", [((1, 0), 3)]),
        ("x1^0", [((0, 0), 1)]),
        ("x1 ^ 2", [((2, 0), 1)]),
        ("x1\u2003+\u2003x2", [((1, 0), 1), ((0, 1), 1)]),  # em spaces
        ("x2 + x1 - x2 + 3/6*x2", [((1, 0), 1), ((0, 1), Fraction(1, 2))]),
    ],
)
def test_accepted_forms_keep_their_terms_in_order(text, terms):
    assert list(parse_poly(text, 2).items()) == terms


def test_whitespace_is_exactly_str_isspace():
    """The grammar's whitespace is every code point of str.isspace: the
    parser skips them with the pattern class \\s, which matches no other."""
    import re
    import sys

    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = [c for c in every if c.isspace()]
    assert re.findall(r"\s", every) == spaces
    expected = parse_poly("x1 + 2/3*x2^2", 2)
    for c in spaces:
        text = c.join(["", "x1", "+", "2", "/", "3", "*", "x2", "^", "2", ""])
        assert parse_poly(text, 2) == expected, repr(c)


@pytest.mark.parametrize("text", ["3", "x1", ""])
def test_variable_count_is_checked_before_the_text(text):
    with pytest.raises(ValueError, match=r"^ambient variable count must be >= 1$"):
        parse_poly(text, 0)
