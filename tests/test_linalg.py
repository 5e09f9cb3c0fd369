import math
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from ybalg.linalg import nullspace, rank, row_space_equal, rref

ZERO = Fraction(0)
ONE = Fraction(1)


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# dense reference: the elimination the sparse routine replaced, kept as an
# oracle (lexicographic pivots, dense fraction-free rows, one final division)


def _integerize(row):
    scale = math.lcm(*(c.denominator for c in row)) if row else 1
    out = [int(c * scale) for c in row]
    g = math.gcd(*out) if any(out) else 1
    if g > 1:
        out = [c // g for c in out]
    return out


def _reduce_row(row):
    g = math.gcd(*row) if any(row) else 1
    if g > 1:
        row = [c // g for c in row]
    return row


class _DenseRREF:
    def __init__(self, ncols, pivot_cols, rows):
        self.ncols = ncols
        self.pivot_cols = pivot_cols
        self.rows = rows

    def reduce(self, vec):
        out = [Fraction(c) for c in vec]
        for row, col in zip(self.rows, self.pivot_cols):
            factor = out[col]
            if factor:
                for j in range(self.ncols):
                    if row[j]:
                        out[j] -= factor * row[j]
        return out

    def nullspace(self):
        pivots = set(self.pivot_cols)
        basis = []
        for free in (j for j in range(self.ncols) if j not in pivots):
            vec = [ZERO] * self.ncols
            vec[free] = ONE
            for row, col in zip(self.rows, self.pivot_cols):
                if row[free]:
                    vec[col] = -row[free]
            basis.append(vec)
        return basis


def _dense_rref(rows, ncols):
    work = [_integerize(row) for row in rows if any(row)]
    pivot_cols = []
    pivot_rows = []
    for col in range(ncols):
        pivot_idx = next((i for i, row in enumerate(work) if row[col]), None)
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
    normalized = [
        [Fraction(c) / Fraction(row[col]) for c in row]
        for row, col in zip(pivot_rows, pivot_cols)
    ]
    return _DenseRREF(ncols, pivot_cols, normalized)


def random_matrix(seed, nrows, ncols, lo=-4, hi=4):
    rng = random.Random(seed)
    return [
        [Fraction(rng.randrange(lo, hi + 1)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_known_rref():
    rows = [
        [F(2), F(4), F(2)],
        [F(1), F(2), F(3)],
    ]
    r = rref(rows, 3)
    assert r.pivot_cols == [0, 2]
    assert r.rows == [
        [F(1), F(2), F(0)],
        [F(0), F(0), F(1)],
    ]


def test_rank_and_nullspace_dimensions():
    rows = [
        [F(1), F(2), F(3), F(4)],
        [F(2), F(4), F(6), F(8)],
        [F(0), F(1), F(1), F(0)],
    ]
    assert rank(rows, 4) == 2
    basis = nullspace(rows, 4)
    assert len(basis) == 2


@given(st.integers(0, 5000), st.integers(1, 5), st.integers(1, 5))
def test_nullspace_vectors_are_in_the_kernel(seed, nrows, ncols):
    rows = random_matrix(seed, nrows, ncols)
    for vec in nullspace(rows, ncols):
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@given(st.integers(0, 5000), st.integers(1, 4), st.integers(1, 4))
def test_rank_nullity(seed, nrows, ncols):
    rows = random_matrix(seed, nrows, ncols)
    assert rank(rows, ncols) + len(nullspace(rows, ncols)) == ncols


@given(st.integers(0, 5000))
def test_row_space_invariant_under_row_operations(seed):
    rng = random.Random(seed ^ 0xBEEF)
    rows = random_matrix(seed, 3, 4)
    mixed = [list(r) for r in rows]
    rng.shuffle(mixed)
    mixed[0] = [a + 2 * b for a, b in zip(mixed[0], mixed[1])]
    mixed.append([Fraction(3) * c for c in mixed[2]])
    assert row_space_equal(rows, mixed, 4)


def test_row_space_detects_difference():
    a = [[F(1), F(0)], [F(0), F(1)]]
    b = [[F(1), F(1)]]
    assert not row_space_equal(a, b, 2)


def test_reduce_residual_and_membership():
    rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    r = rref(rows, 3)
    residual = r.reduce([F(1), F(2), F(1)])
    assert residual == [F(0), F(0), F(0)]


def test_determinism_same_input_same_output():
    rows = random_matrix(99, 5, 6)
    r1 = rref(rows, 6)
    r2 = rref(rows, 6)
    assert r1.pivot_cols == r2.pivot_cols
    assert r1.rows == r2.rows
    assert nullspace(rows, 6) == nullspace(rows, 6)


def test_fractional_input():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert rank(rows, 2) == 1  # second row is 3 times the first
    assert nullspace(rows, 2) == [[Fraction(-2, 3), Fraction(1)]]
    rows2 = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert rank(rows2, 2) == 2
    assert nullspace(rows2, 2) == []


# ---------------------------------------------------------------------------
# the sparse routine against the dense oracle

_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.just(0),
)


@st.composite
def _systems(draw):
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, 9))  # up to half again more rows than columns
    dense = [draw(st.lists(_ENTRY, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if draw(st.booleans()) and dense:
        dense[draw(st.integers(0, nrows - 1))] = [0] * ncols
    vec = draw(st.lists(_ENTRY, min_size=ncols, max_size=ncols))
    return dense, ncols, vec


def _as_dicts(rows, keep_zeros):
    return [{j: c for j, c in enumerate(row) if c or keep_zeros} for row in rows]


@given(_systems(), st.booleans(), st.booleans())
def test_sparse_rref_matches_the_dense_oracle(system, as_dicts, keep_zeros):
    dense, ncols, vec = system
    rows = _as_dicts(dense, keep_zeros) if as_dicts else dense
    got = rref(rows, ncols)
    want = _dense_rref(dense, ncols)
    assert got.pivot_cols == want.pivot_cols
    assert got.rows == want.rows
    assert got.nullspace() == want.nullspace()
    assert got.reduce(vec) == want.reduce(vec)
    sparse_residual = got.reduce({j: c for j, c in enumerate(vec) if c})
    assert sparse_residual == {j: c for j, c in enumerate(want.reduce(vec)) if c}


@given(_systems())
def test_int_input_gives_only_fractions(system):
    dense, ncols, vec = system
    ints = [[int(c) for c in row] for row in dense]
    r = rref(ints, ncols)
    values = [c for row in r.rows for c in row]
    values += [c for v in r.nullspace() for c in v]
    values += r.reduce([int(c) for c in vec])
    values += list(r.reduce({j: int(c) for j, c in enumerate(vec) if int(c)}).values())
    assert all(type(c) is Fraction for c in values)
    assert all(type(c) is Fraction for v in nullspace(ints, ncols) for c in v)


# ---------------------------------------------------------------------------
# block-structured systems: rows of a component whose every column already
# holds a pivot are skipped, which must not change any result


@st.composite
def _block_systems(draw):
    ncols = draw(st.integers(1, 8))
    columns = draw(st.permutations(range(ncols)))
    cuts = sorted(draw(st.lists(st.integers(1, ncols - 1), max_size=2, unique=True))) if ncols > 1 else []
    blocks = [columns[a:b] for a, b in zip([0, *cuts], [*cuts, ncols])]
    coeff = st.integers(-3, 3)
    dense = []
    for block in blocks:
        for _ in range(draw(st.integers(0, len(block) + 1))):
            row = [0] * ncols
            for j in block:
                row[j] = draw(coeff)
            dense.append(row)
    # redundant rows (combinations of earlier rows, possibly across blocks)
    # and duplicates, after the rows they depend on
    for _ in range(draw(st.integers(0, 5))):
        if not dense:
            break
        if draw(st.booleans()):
            dense.append(list(dense[draw(st.integers(0, len(dense) - 1))]))
        else:
            picks = draw(st.lists(st.integers(0, len(dense) - 1), min_size=1, max_size=3))
            weights = [draw(coeff) for _ in picks]
            dense.append([sum(w * dense[i][j] for i, w in zip(picks, weights)) for j in range(ncols)])
    if draw(st.booleans()):
        dense = [[Fraction(c, draw(st.integers(1, 3))) for c in row] for row in dense]
    return dense, ncols


@given(_block_systems(), st.booleans(), st.booleans())
def test_block_systems_match_the_dense_oracle(system, as_dicts, keep_zeros):
    dense, ncols = system
    rows = _as_dicts(dense, keep_zeros) if as_dicts else dense
    got = rref(rows, ncols)
    want = _dense_rref(dense, ncols)
    assert got.pivot_cols == want.pivot_cols
    assert got.rows == want.rows
    assert got.nullspace() == want.nullspace()


@given(_block_systems(), st.booleans(), st.booleans(), st.none() | st.integers(0, 9))
def test_rank_stops_at_the_limit(system, as_dicts, keep_zeros, limit):
    dense, ncols = system
    rows = _as_dicts(dense, keep_zeros) if as_dicts else dense
    true_rank = len(_dense_rref(dense, ncols).pivot_cols)
    want = true_rank if limit is None else min(true_rank, limit)
    assert rank(rows, ncols, limit) == want
    assert rank(iter(rows), ncols, limit) == want
