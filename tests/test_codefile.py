"""Text format for batches of generator matrices: parsing, emission,
round-trips, and line-numbered diagnostics."""

import pytest

from codequiv import CodeFileError, GeneratorMatrix, emit_codes, field, parse_codes, random_code

SAMPLE = """\
# two ternary codes
3 3 6
1 0 0 1 2 0
0 1 0 1 1 1
0 0 1 1 1 0

3 3 6   # inline comment after the header
1 0 0 1 1 0
0 1 0 1 2 0
0 0 1 1 0 2
"""


def test_parse_sample():
    codes = parse_codes(SAMPLE)
    assert len(codes) == 2
    assert codes[0].spec.q == 3 and codes[0].n == 6 and codes[0].k == 3
    # column 5 of the input is (2,1,1); storage rescales every column to a
    # leading 1, so it comes back as (1,2,2)
    assert codes[0].mat.rows == [[1, 0, 0, 1, 1, 0],
                                 [0, 1, 0, 1, 2, 1],
                                 [0, 0, 1, 1, 2, 0]]


def test_parse_empty_and_comment_only():
    assert parse_codes("") == []
    assert parse_codes("# nothing here\n\n  # still nothing\n") == []


def test_emit_then_parse_roundtrip():
    spec = field(3)
    codes = [random_code(spec, 8, 3, seed=s) for s in range(5)]
    text = emit_codes(codes)
    back = parse_codes(text)
    assert [c.mat.rows for c in back] == [c.mat.rows for c in codes]
    assert emit_codes(back) == text  # emission is a fixed point


def test_emit_composite_field_includes_modulus():
    code = random_code(field(9), 6, 2, seed=0)
    text = emit_codes([code])
    header = text.splitlines()[0]
    assert header == "9 2 6 10"
    back = parse_codes(text)
    assert back[0].spec.q == 9 and back[0].spec.modulus == 10


def test_parse_explicit_modulus():
    text = "4 2 3 7\n1 0 1\n0 1 2\n"
    (code,) = parse_codes(text)
    assert code.spec.q == 4 and code.spec.modulus == 7


def test_parse_prime_field_header_has_three_fields():
    (code,) = parse_codes("2 2 3\n1 0 1\n0 1 1\n")
    assert code.spec.q == 2
    # a modulus on a prime field is rejected with the offending line number
    with pytest.raises(CodeFileError, match="line 1"):
        parse_codes("3 2 3 7\n1 0 1\n0 1 1\n")


def test_parse_negative_modulus_rejected():
    # a negative modulus has no end of digits: rejected, not looped on
    with pytest.raises(CodeFileError, match="line 1"):
        parse_codes("9 2 4 -5\n1 0 1 1\n0 1 1 2\n")


@pytest.mark.parametrize("text,lineno", [
    ("x 2 3\n1 0 1\n0 1 1\n", 1),            # non-integer in header
    ("3 2\n1 0 1\n0 1 1\n", 1),               # header too short
    ("3 2 3 11 5\n1 0 1\n0 1 1\n", 1),        # header too long
    ("3 2 3\n1 0\n0 1 1\n", 2),               # wrong entry count
    ("3 2 3\n1 0 3\n0 1 1\n", 2),             # entry out of range
    ("3 2 3\n1 0 1\n0 1 one\n", 3),           # non-integer entry
    ("3 2 3\n1 0 1\n", 1),                    # truncated matrix
    ("3 2 3\n1 0 0\n0 1 0\n", 1),             # zero column -> header line
    ("3 2 3\n1 0 1\n2 0 2\n", 1),             # rank-deficient -> header line
    ("6 2 3\n1 0 1\n0 1 1\n", 1),             # invalid field order
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(CodeFileError, match=f"line {lineno}"):
        parse_codes(text)


def test_parse_error_is_value_error():
    assert issubclass(CodeFileError, ValueError)


def test_codes_may_abut_without_blank_line():
    # the parser consumes exactly k rows per code, so a following header may
    # start immediately on the next line
    text = "3 2 3\n1 0 1\n0 1 1\n3 2 3\n1 0 1\n0 1 1\n"
    assert len(parse_codes(text)) == 2


def test_multiple_blank_lines_and_indentation_tolerated():
    text = "\n\n  3 2 3\n  1 0 1\n\t0 1 1\n\n\n\n2 2 3\n1 0 1\n0 1 1\n\n"
    codes = parse_codes(text)
    assert [c.spec.q for c in codes] == [3, 2]


def test_emit_normalized_columns_roundtrip_exact():
    # constructor normalizes columns, so emitted text reflects stored form
    code = GeneratorMatrix(3, [[2, 0, 2], [0, 1, 1]])
    text = emit_codes([code])
    assert text == "3 2 3\n1 0 1\n0 1 2\n"
