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


# Every CodeFileError the parser raises, with its exact message and line
# number.  The checks run in a fixed order: header, field, then each row in
# turn (the file ending, then integers, width, range), and the matrix last
# (the first zero column, then rank), so a bad entry is reported before a
# file that ends early, and a zero column before a rank below k.
PARSE_ERRORS = [
    pytest.param('3 2\n1 0 1\n0 1 1\n',
                 "line 1: expected header 'q k n [modulus]', got '3 2'",
                 id='header too short'),
    pytest.param('3 2 3 11 5\n1 0 1\n0 1 1\n',
                 "line 1: expected header 'q k n [modulus]', got '3 2 3 11 5'",
                 id='header too long'),
    pytest.param('x 2 3\n1 0 1\n0 1 1\n',
                 "line 1: non-integer value in header 'x 2 3'",
                 id='non-integer header'),
    pytest.param('1 2 3\n1 0 1\n0 1 1\n',
                 'line 1: invalid header values q=1 k=2 n=3',
                 id='q below 2'),
    pytest.param('3 0 3\n',
                 'line 1: invalid header values q=3 k=0 n=3',
                 id='k below 1'),
    pytest.param('3 2 0\n\n',
                 'line 1: invalid header values q=3 k=2 n=0',
                 id='n below 1'),
    pytest.param('6 2 3\n1 0 1\n0 1 1\n',
                 'line 1: field order 6 is not a prime power',
                 id='not a prime power'),
    pytest.param('131072 1 1\n1\n',
                 'line 1: field order 131072 exceeds table limit 65536',
                 id='over the table limit'),
    pytest.param('3 2 3 7\n1 0 1\n0 1 1\n',
                 'line 1: prime fields take no modulus',
                 id='modulus on a prime field'),
    pytest.param('9 2 4 -5\n1 0 1 1\n0 1 1 2\n',
                 'line 1: modulus must be non-negative, got -5',
                 id='negative modulus'),
    pytest.param('9 2 3 11\n1 0 1\n0 1 1\n',
                 'line 1: modulus 11 is not a monic irreducible of degree 2 '
                 'over GF(3)',
                 id='reducible modulus'),
    pytest.param('32 1 1\n1\n',
                 'line 1: no default modulus for q=32; pass one explicitly',
                 id='no default modulus'),
    pytest.param('3 2 3\n1 0 1\n',
                 'line 1: code needs 2 rows, file ends after 1',
                 id='file ends'),
    pytest.param('3 3 3\n1 0 x\n0 1 1\n',
                 "line 2: non-integer entry in '1 0 x'",
                 id='bad entry in a file that ends early'),
    pytest.param('3 3 3\n1 0 1 1\n0 1 1\n',
                 'line 2: expected 3 entries, got 4',
                 id='wrong width in a file that ends early'),
    pytest.param('3 2 3\n1 0\n0 1 1\n',
                 'line 2: expected 3 entries, got 2',
                 id='too few entries'),
    pytest.param('3 2 3\n1 0 1 2\n0 1 1\n',
                 'line 2: expected 3 entries, got 4',
                 id='too many entries'),
    pytest.param('3 2 3\n1 0 3\n0 1 1\n',
                 'line 2: entry 3 outside field range 0..2',
                 id='entry past q - 1'),
    pytest.param('3 2 3\n1 -1 2\n0 1 1\n',
                 'line 2: entry -1 outside field range 0..2',
                 id='negative entry'),
    pytest.param('3 2 3\n1 0 1\n0 1 one\n',
                 "line 3: non-integer entry in '0 1 one'",
                 id='non-integer entry'),
    pytest.param('3 2 3\n1 0 1.0\n0 1 1\n',
                 "line 2: non-integer entry in '1 0 1.0'",
                 id='decimal entry'),
    pytest.param('3 2 3\n1 0 0\n0 1 0\n',
                 'line 1: invalid generator matrix: column 3 is zero',
                 id='zero column'),
    pytest.param('3 2 3\n1 1 2\n2 2 1\n',
                 'line 1: invalid generator matrix: rank is below k=2',
                 id='rank below k'),
    pytest.param('4 2 3\n1 2 3\n2 3 1\n',
                 'line 1: invalid generator matrix: rank is below k=2',
                 id='rank below k over GF(4)'),
    pytest.param('3 2 3\n1 1 0\n2 2 0\n',
                 'line 1: invalid generator matrix: column 3 is zero',
                 id='zero column in a code of rank below k'),
    pytest.param('3 3 2\n1 0\n0 1\n1 1\n',
                 'line 1: invalid generator matrix: rank is below k=3',
                 id='k above n'),
    pytest.param('# header comment\n2 2 3\n1 0 1\n0 1 1\n\n'
                 '4 2 3  # second\n1 0 1\n# between rows\n0 1 4\n',
                 'line 9: entry 4 outside field range 0..3',
                 id='second code, after comments'),
    pytest.param('2 2 3\n1 0 1\n0 1 1\n2 2 3\n1 0 1\n1 0 1\n',
                 'line 4: invalid generator matrix: column 2 is zero',
                 id='second code abutting the first'),
]


@pytest.mark.parametrize("text,message", PARSE_ERRORS)
def test_parse_error_messages_pinned(text, message):
    with pytest.raises(CodeFileError) as exc:
        parse_codes(text)
    assert str(exc.value) == message
