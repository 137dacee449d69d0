"""Structured codes with large automorphism groups, built from closed forms.

Each entry is built from its generator polynomial or its defining point set
and carries the order of its monomial (semilinear over GF(4)) automorphism
group as published.  These are the inputs that reach deep search trees, many
generators, the group-order computation, the coset cap and the fallback
route; random codes reach none of them.
"""

from __future__ import annotations

from itertools import product

from gen import GF, gf, nullspace


def cyclic(f: GF, n: int, g) -> list[list[int]]:
    """Rows are the k = n - deg(g) shifts of g (coefficients low to high)."""
    k = n - (len(g) - 1)
    return [[0] * s + list(g) + [0] * (n - len(g) - s) for s in range(k)]


def parity_extend(f: GF, rows) -> list[list[int]]:
    """Append -sum(row) to every raw row, before any column normalization."""
    out = []
    for r in rows:
        acc = 0
        for e in r:
            acc = f.add_t[acc][e]
        out.append(list(r) + [f.neg_t[acc]])
    return out


def points(f: GF, k: int) -> list[list[int]]:
    """Normalized points of PG(k-1, q) (first nonzero coordinate 1)."""
    pts = []
    for v in product(range(f.q), repeat=k):
        lead = next((x for x in v if x), 0)
        if lead == 1:
            pts.append(list(v))
    return pts


def simplex(f: GF, k: int) -> list[list[int]]:
    pts = points(f, k)
    return [[p[i] for p in pts] for i in range(k)]


def reed_muller_1(m: int) -> list[list[int]]:
    pts = list(product((0, 1), repeat=m))
    return [[1] * len(pts)] + [[p[i] for p in pts] for i in range(m)]


def build() -> list[tuple[str, GF, list[list[int]], int]]:
    """(name, field, generator rows, published automorphism-group order)."""
    f2, f3, f4, f5 = gf(2), gf(3), gf(4), gf(5)
    golay23 = cyclic(f2, 23, [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1])
    tgolay11 = cyclic(f3, 11, [2, 0, 1, 2, 1, 1])
    return [
        ("golay24_2", f2, parity_extend(f2, golay23), 244_823_040),
        ("golay23_2", f2, golay23, 10_200_960),
        ("golay12_3", f3, parity_extend(f3, tgolay11), 190_080),
        ("golay11_3", f3, tgolay11, 15_840),
        ("hamming7_2", f2, cyclic(f2, 7, [1, 1, 0, 1]), 168),
        ("hamming15_2", f2, cyclic(f2, 15, [1, 1, 0, 0, 1]), 20_160),
        ("hamming13_3", f3, nullspace(f3, simplex(f3, 3)), 11_232),
        ("simplex13_3", f3, simplex(f3, 3), 11_232),
        ("simplex31_2", f2, simplex(f2, 5), 9_999_360),
        ("rm1_4", f2, reed_muller_1(4), 322_560),
        ("rm1_5", f2, reed_muller_1(5), 319_979_520),
        ("simplex6_5", f5, simplex(f5, 2), 480),
        ("simplex21_4", f4, simplex(f4, 3), 362_880),
    ]
