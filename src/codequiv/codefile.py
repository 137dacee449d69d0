"""Plain-text exchange format for generator matrices.

A file holds one or more codes separated by blank lines.  Each code is a
header line ``q k n`` (optionally ``q k n modulus`` for composite fields)
followed by exactly k rows of n field elements written as integers.
``#`` starts a comment anywhere on a line; blank and comment-only lines
between codes are ignored.

`parse_codes` checks each code in a fixed order: its header and field, then
each row in turn (present, integers, width, range), and reports the first
failure with its line number.  The rows it has checked go to the
`GeneratorMatrix` constructor's private entry, which does not check them
again, so a matrix error (first zero column, then rank below k) is
reported at the code's header line after every row has passed.

Example::

    # two ternary codes
    3 3 13
    1 0 0 0 1 1 1 0 1 1 1 2 2
    0 1 0 1 0 1 2 1 0 1 2 1 2
    0 0 1 1 1 0 2 2 2 1 0 0 1

    3 2 4
    1 0 1 1
    0 1 1 2
"""

from __future__ import annotations

from .gfield import field
from .lincode import GeneratorMatrix


class CodeFileError(ValueError):
    """Malformed code file; message always carries a 1-based line number."""


def _fail(lineno: int, msg: str):
    raise CodeFileError(f"line {lineno}: {msg}")


def parse_codes(text: str) -> list[GeneratorMatrix]:
    """Parse every code in `text`, in order of appearance."""
    stripped = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            stripped.append((lineno, line))
    codes = []
    pos = 0
    while pos < len(stripped):
        lineno, line = stripped[pos]
        parts = line.split()
        if len(parts) not in (3, 4):
            _fail(lineno, f"expected header 'q k n [modulus]', got {line!r}")
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            _fail(lineno, f"non-integer value in header {line!r}")
        q, k, n = nums[:3]
        modulus = nums[3] if len(nums) == 4 else None
        if q < 2 or k < 1 or n < 1:
            _fail(lineno, f"invalid header values q={q} k={k} n={n}")
        try:
            spec = field(q, modulus)
        except ValueError as e:
            _fail(lineno, str(e))
        rows = []
        for r in range(k):
            if pos + 1 + r >= len(stripped):
                _fail(lineno, f"code needs {k} rows, file ends after {r}")
            row_lineno, row_line = stripped[pos + 1 + r]
            try:
                row = list(map(int, row_line.split()))
            except ValueError:
                _fail(row_lineno, f"non-integer entry in {row_line!r}")
            if len(row) != n:
                _fail(row_lineno, f"expected {n} entries, got {len(row)}")
            if not (0 <= min(row) and max(row) < q):
                bad = next(v for v in row if not 0 <= v < q)
                _fail(row_lineno, f"entry {bad} outside field range 0..{q - 1}")
            rows.append(row)
        try:
            codes.append(GeneratorMatrix._checked(spec, rows))
        except ValueError as e:
            _fail(lineno, f"invalid generator matrix: {e}")
        pos += 1 + k
    return codes


def emit_codes(codes) -> str:
    """Render codes in the format parse_codes reads (round-trips exactly)."""
    blocks = []
    for code in codes:
        spec = code.spec
        header = f"{spec.q} {code.k} {code.n}"
        if spec.m > 1:
            header += f" {spec.modulus}"
        lines = [header]
        lines.extend(" ".join(str(v) for v in row) for row in code.mat.rows)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
