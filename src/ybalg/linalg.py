"""Exact linear algebra over the rationals.

Row reduction is fraction-free: rows are scaled to integers and eliminated by
cross-multiplication (with gcd reduction to tame growth); nothing is divided
until the final normalization pass.  Pivots are chosen in lexicographic order
(leftmost column first, earliest row first), so echelon forms, ranks,
nullspace bases, and quotient bases are reproducible run to run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .sparse import ONE, ZERO

Vector = list[Fraction]


def _integerize(row: Sequence[Fraction]) -> list[int]:
    scale = math.lcm(*(c.denominator for c in row)) if row else 1
    out = [int(c * scale) for c in row]
    g = math.gcd(*out) if any(out) else 1
    if g > 1:
        out = [c // g for c in out]
    return out


def _reduce_row(row: list[int]) -> list[int]:
    g = math.gcd(*row) if any(row) else 1
    if g > 1:
        row = [c // g for c in row]
    return row


class ExactRREF:
    """Reduced row echelon form with pivot bookkeeping."""

    def __init__(self, ncols: int, pivot_cols: list[int], rows: list[Vector]):
        self.ncols = ncols
        self.pivot_cols = pivot_cols
        self.rows = rows

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def free_cols(self) -> list[int]:
        pivots = set(self.pivot_cols)
        return [j for j in range(self.ncols) if j not in pivots]

    def reduce(self, vec: Sequence[Fraction]) -> Vector:
        """Residual of ``vec`` after clearing every pivot column."""
        if len(vec) != self.ncols:
            raise ValueError("length mismatch")
        out = [Fraction(c) for c in vec]
        for row, col in zip(self.rows, self.pivot_cols):
            factor = out[col]
            if factor:
                for j in range(self.ncols):
                    if row[j]:
                        out[j] -= factor * row[j]
        return out

    def in_row_space(self, vec: Sequence[Fraction]) -> bool:
        return not any(self.reduce(vec))

    def nullspace(self) -> list[Vector]:
        """Basis of the kernel, one vector per free column, in column order."""
        basis = []
        for free in self.free_cols():
            vec = [ZERO] * self.ncols
            vec[free] = ONE
            for row, col in zip(self.rows, self.pivot_cols):
                if row[free]:
                    vec[col] = -row[free]
            basis.append(vec)
        return basis


def rref(rows: Sequence[Sequence[Fraction]], ncols: int) -> ExactRREF:
    work = [_integerize(row) for row in rows if any(row)]
    pivot_cols: list[int] = []
    pivot_rows: list[list[int]] = []
    for col in range(ncols):
        pivot_idx = None
        for idx, row in enumerate(work):
            if row[col]:
                pivot_idx = idx
                break
        if pivot_idx is None:
            continue
        pivot_row = work.pop(pivot_idx)
        p = pivot_row[col]
        remaining = []
        for row in work:
            if row[col]:
                row = _reduce_row(
                    [p * row[j] - row[col] * pivot_row[j] for j in range(ncols)]
                )
            if any(row):
                remaining.append(row)
        work = remaining
        pivot_cols.append(col)
        pivot_rows.append(pivot_row)
        if not work:
            break
    # back substitution, still fraction-free
    for i in range(len(pivot_rows) - 1, -1, -1):
        row_i = pivot_rows[i]
        col_i = pivot_cols[i]
        p = row_i[col_i]
        for k in range(i):
            row_k = pivot_rows[k]
            if row_k[col_i]:
                pivot_rows[k] = _reduce_row(
                    [p * row_k[j] - row_k[col_i] * row_i[j] for j in range(ncols)]
                )
    # final normalization (the only division)
    normalized: list[Vector] = []
    for row, col in zip(pivot_rows, pivot_cols):
        p = Fraction(row[col])
        normalized.append([Fraction(c) / p for c in row])
    return ExactRREF(ncols, pivot_cols, normalized)


def rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    return rref(rows, ncols).rank


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vector]:
    return rref(rows, ncols).nullspace()


def row_space_equal(
    rows_a: Sequence[Sequence[Fraction]],
    rows_b: Sequence[Sequence[Fraction]],
    ncols: int,
) -> bool:
    """Whether two row sets span the same subspace (RREF is a canonical form)."""
    ra = rref(rows_a, ncols)
    rb = rref(rows_b, ncols)
    return ra.pivot_cols == rb.pivot_cols and ra.rows == rb.rows
