"""Exact linear algebra over the rationals, on sparse integer rows.

The systems the package solves (commutants, relation spans, quotient ideals,
obstruction systems) are almost entirely zero, so rows are stored as
``{column: coefficient}`` dicts holding nonzero entries only.  :func:`rref`
accepts each input row either as a dense sequence of length ``ncols`` or as
such a mapping, with ``int`` or ``Fraction`` entries.

Elimination is fraction-free (Bareiss-style cross-multiplication).  Each
input row is turned once into a primitive integer dict-row: scaled by the
lcm of its denominators, then divided by the gcd of its entries.  It is
then reduced against the pivot rows found so far: while its leftmost column
holds a pivot, it is replaced by ``a * row - b * pivot_row`` with ``a, b``
the two leading entries over their gcd, and divided again by its content.
A row that survives gets its leftmost column as a new pivot.  Back
substitution clears every pivot column from the other pivot rows the same
way, and only then is each row divided by its pivot, on its nonzero entries.

Rows are read once, in order.  A union-find over the columns of the rows
read so far counts, per connected component, the columns still without a
pivot.  A row meets only pivot rows of its own component, so once none is
left it would reduce to zero: it is skipped before it is made primitive.
:func:`rank` is this forward pass alone and can stop at a limit.

The result is the reduced row echelon form, which is a canonical form of
the row space: pivot columns, normalized rows, nullspace bases and residuals
do not depend on the order of the input rows or of the elimination, and
every value returned is a ``Fraction``, even for ``int`` input.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from typing import Union

from .sparse import accumulate, frac

# the Fraction constants, not the int ones of ``sparse``: every value returned
# here is a Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)

Vector = list[Fraction]
#: a sparse row: nonzero coefficients by column, columns ascending
Terms = dict[int, Fraction]
Row = Union[Sequence, Mapping[int, object]]


def _items(row: Row, ncols: int) -> Iterable[tuple[int, object]]:
    if isinstance(row, Mapping):
        if row and (min(row) < 0 or max(row) >= ncols):
            raise ValueError(f"column index out of range 0..{ncols - 1}")
        return row.items()
    if len(row) != ncols:
        raise ValueError("length mismatch")
    return enumerate(row)


def _primitive(row: Row, ncols: int) -> dict[int, int]:
    """The row as integers without a common factor, nonzero entries only."""
    entries = {j: c for j, c in _items(row, ncols) if c}
    if not entries:
        return entries
    try:
        scale = math.lcm(*(c.denominator for c in entries.values()))
    except AttributeError:
        raise TypeError("row entries must be int or Fraction") from None
    out = {j: c.numerator * (scale // c.denominator) for j, c in entries.items()}
    return _content_free(out)


def _content_free(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return {j: c // g for j, c in row.items()} if g > 1 else row


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """``a * row - b * pivot_row`` with column ``col`` cleared, content removed."""
    p = pivot_row[col]
    c = row[col]
    g = math.gcd(p, c)
    a, b = p // g, c // g
    out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in pivot_row.items():
        if j in out:
            w = out[j] - b * v
            if w:
                out[j] = w
            else:
                del out[j]
        else:
            out[j] = -b * v
    return _content_free(out) if out else out


class ExactRREF:
    """Reduced row echelon form with pivot bookkeeping.

    ``sparse_rows[k]`` is the normalized row whose pivot is
    ``pivot_cols[k]`` (coefficient 1 there, 0 in every other pivot column);
    pivot columns ascend.
    """

    def __init__(self, ncols: int, pivot_cols: list[int], sparse_rows: list[Terms]):
        self.ncols = ncols
        self.pivot_cols = pivot_cols
        self.sparse_rows = sparse_rows
        self._row_at = dict(zip(pivot_cols, sparse_rows))

    def __eq__(self, other) -> bool:
        """Equal forms span the same row space (the form is canonical)."""
        return (
            isinstance(other, ExactRREF)
            and self.ncols == other.ncols
            and self.pivot_cols == other.pivot_cols
            and self.sparse_rows == other.sparse_rows
        )

    @property
    def rows(self) -> list[Vector]:
        """The normalized rows as dense vectors."""
        return [self._dense(row) for row in self.sparse_rows]

    def _dense(self, terms: Terms) -> Vector:
        return [terms.get(j, _ZERO) for j in range(self.ncols)]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def free_cols(self) -> list[int]:
        return [j for j in range(self.ncols) if j not in self._row_at]

    def _residual(self, vec: Row) -> Terms:
        out = {j: Fraction(frac(c)) for j, c in _items(vec, self.ncols) if c}
        # rows of a reduced form do not touch each other's pivot columns,
        # so each pivot is cleared by the input's own coefficient there
        for col, c in list(out.items()):
            row = self._row_at.get(col)
            if row is not None:
                accumulate(out, row.items(), -c)
        return {j: out[j] for j in sorted(out) if out[j]}

    def reduce(self, vec: Row) -> Vector | Terms:
        """Residual of ``vec`` after clearing every pivot column.

        A dense vector gives a dense residual, a mapping a sparse one.
        """
        residual = self._residual(vec)
        return residual if isinstance(vec, Mapping) else self._dense(residual)

    def kernel(self) -> list[Terms]:
        """Sparse basis of the kernel, one vector per free column, in column order."""
        above: dict[int, Terms] = {}
        for col, row in zip(self.pivot_cols, self.sparse_rows):
            for j, c in row.items():
                if j != col:
                    above.setdefault(j, {})[col] = -c
        basis = []
        for free in self.free_cols():
            vec = above.get(free, {})
            vec[free] = _ONE
            basis.append(vec)
        return basis

    def nullspace(self) -> list[Vector]:
        """Basis of the kernel as dense vectors, one per free column, in column order."""
        return [self._dense(vec) for vec in self.kernel()]


def _echelon(
    rows: Iterable[Row], ncols: int, limit: int | None = None
) -> dict[int, dict[int, int]]:
    """Primitive pivot rows with a positive pivot, by column; at most ``limit``."""
    parent = list(range(ncols))
    # columns still lacking a pivot, per component root
    unpivoted = [1] * ncols
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if limit is not None and len(pivots) >= limit:
            break
        roots = set()
        for j, c in _items(row, ncols):
            if c:
                while parent[j] != j:  # path halving
                    parent[j] = parent[parent[j]]
                    j = parent[j]
                roots.add(j)
        if not roots:
            continue
        root = roots.pop()
        for other in roots:
            parent[other] = root
            unpivoted[root] += unpivoted[other]
        if not unpivoted[root]:
            continue
        work = _primitive(row, ncols)
        while work:
            col = min(work)
            pivot_row = pivots.get(col)
            if pivot_row is None:
                # a positive pivot makes a pivot of 1 a plain subtraction
                pivots[col] = work if work[col] > 0 else {j: -c for j, c in work.items()}
                unpivoted[root] -= 1
                break
            work = _eliminate(work, pivot_row, col)
    return pivots


def rref(rows: Sequence[Row], ncols: int) -> ExactRREF:
    pivots = _echelon(rows, ncols)
    pivot_cols = sorted(pivots)
    # back substitution: rows with a higher pivot are final when reached
    for col in reversed(pivot_cols):
        row = pivots[col]
        for j in [j for j in row if j != col and j in pivots]:
            row = _eliminate(row, pivots[j], j)
        pivots[col] = row
    normalized = []
    for col in pivot_cols:
        row = pivots[col]
        p = row[col]
        normalized.append({j: Fraction(row[j], p) for j in sorted(row)})
    return ExactRREF(ncols, pivot_cols, normalized)


def rank(rows: Iterable[Row], ncols: int, limit: int | None = None) -> int:
    """``min(rank, limit)`` of the rows."""
    return len(_echelon(rows, ncols, limit))


def nullspace(rows: Sequence[Row], ncols: int) -> list[Vector]:
    return rref(rows, ncols).nullspace()


def row_space_equal(rows_a: Sequence[Row], rows_b: Sequence[Row], ncols: int) -> bool:
    """Whether two row sets span the same subspace (RREF is a canonical form)."""
    return rref(rows_a, ncols) == rref(rows_b, ncols)
