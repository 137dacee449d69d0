"""Seeded input generator, independent of the library under test.

Every code the benchmark feeds to codequiv is built here and handed over as
code-file text, so a change to the library's own generators or transform
classes cannot change the inputs.  Field elements use the same base-p digit
encoding as the code-file format; composite fields carry their modulus
explicitly in the header.
"""

from __future__ import annotations

import hashlib
import random

# Irreducible moduli of the composite fields, as base-p digit encodings
# (x^2+x+1, x^3+x+1, x^2+1).
MODULI = {4: 7, 8: 11, 9: 10}


class GF:
    """Table-backed GF(q) for q = p or p^m with a fixed modulus."""

    def __init__(self, q: int):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = 0
        rest = q
        while rest > 1:
            rest //= p
            m += 1
        self.q, self.p, self.m = q, p, m
        self.modulus = MODULI.get(q, 0)
        digits = [[(a // p ** i) % p for i in range(m)] for a in range(q)]

        def enc(ds):
            return sum(d * p ** i for i, d in enumerate(ds))

        self.add_t = [[enc([(x + y) % p for x, y in zip(digits[a], digits[b])])
                       for b in range(q)] for a in range(q)]
        self.neg_t = [enc([(-x) % p for x in digits[a]]) for a in range(q)]
        mod_digits = [(self.modulus // p ** i) % p for i in range(m + 1)]
        self.mul_t = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                prod = [0] * (2 * m)
                for i, x in enumerate(digits[a]):
                    for j, y in enumerate(digits[b]):
                        prod[i + j] = (prod[i + j] + x * y) % p
                if m > 1:  # reduce by the monic modulus from the top
                    for i in range(2 * m - 1, m - 1, -1):
                        c = prod[i]
                        if c:
                            for j in range(m + 1):
                                prod[i - m + j] = (prod[i - m + j] - c * mod_digits[j]) % p
                self.mul_t[a][b] = enc(prod[:m])
        self.inv_t = [0] * q
        for a in range(1, q):
            self.inv_t[a] = next(b for b in range(1, q) if self.mul_t[a][b] == 1)

    def frob(self, a: int, rho: int) -> int:
        """a ** (p ** rho)."""
        out = a
        for _ in range(rho):
            r = 1
            for _ in range(self.p):
                r = self.mul_t[r][out]
            out = r
        return out

    def header(self, k: int, n: int) -> str:
        return f"{self.q} {k} {n}" + (f" {self.modulus}" if self.m > 1 else "")


_FIELDS: dict[int, GF] = {}


def gf(q: int) -> GF:
    if q not in _FIELDS:
        _FIELDS[q] = GF(q)
    return _FIELDS[q]


def nullspace(f: GF, rows) -> list[list[int]]:
    """Basis of {x : rows . x = 0}, used to build dual codes."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv_t[rows[r][c]]
        rows[r] = [f.mul_t[inv][e] for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                neg = f.neg_t[rows[i][c]]
                rows[i] = [f.add_t[x][f.mul_t[neg][y]] for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = 1
        for t, pc in enumerate(pivots):
            vec[pc] = f.neg_t[rows[t][free]]
        basis.append(vec)
    return basis


def rank(f: GF, rows) -> int:
    return len(rows[0]) - len(nullspace(f, rows))


def mat_mul(f: GF, a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = 0
            for t, x in enumerate(row):
                if x and b[t][j]:
                    acc = f.add_t[acc][f.mul_t[x][b[t][j]]]
            out_row.append(acc)
        out.append(out_row)
    return out


def random_code(f: GF, k: int, n: int, rng: random.Random):
    """Uniform k x n matrix of rank k with no zero column."""
    while True:
        cols = []
        while len(cols) < n:
            c = [rng.randrange(f.q) for _ in range(k)]
            if any(c):
                cols.append(c)
        rows = [[c[i] for c in cols] for i in range(k)]
        if rank(f, rows) == k:
            return rows


def random_invertible(f: GF, k: int, rng: random.Random):
    while True:
        a = [[rng.randrange(f.q) for _ in range(k)] for _ in range(k)]
        if rank(f, a) == k:
            return a


def transformed_copy(f: GF, rows, rng: random.Random, with_rho: bool = True):
    """A * rho(G P_sigma D) for a seeded basis change A, permutation sigma,
    nonzero scalings D and field automorphism rho (nonzero when the field
    has one and `with_rho`)."""
    k, n = len(rows), len(rows[0])
    sigma = list(range(n))
    rng.shuffle(sigma)
    lam = [rng.randrange(1, f.q) for _ in range(n)]
    rho = rng.randrange(1, f.m) if with_rho and f.m > 1 else 0
    moved = [[0] * n for _ in range(k)]
    for i in range(k):
        for j in range(n):
            moved[i][sigma[j]] = f.frob(f.mul_t[rows[i][j]][lam[sigma[j]]], rho)
    return mat_mul(f, random_invertible(f, k, rng), moved)


def code_text(f: GF, rows) -> str:
    lines = [f.header(len(rows), len(rows[0]))]
    lines.extend(" ".join(map(str, r)) for r in rows)
    return "\n".join(lines)


def file_text(blocks) -> str:
    return "\n\n".join(blocks) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
