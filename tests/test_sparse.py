"""The sparse exact-vector kernel: invariants, bilinearity, reference loops."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybalg import sparse

words = st.lists(st.integers(0, 2), max_size=3).map(tuple)
scalars = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
raw_terms = st.dictionaries(words, scalars, max_size=6)
vectors = raw_terms.map(sparse.vector)
nonzero = scalars.filter(bool)


def sorted_product(a, b):
    """A commutative monomial product: many pairs collide, some cancel."""
    return tuple(sorted(a + b))


KEYS = [operator.add, sorted_product]


def is_canonical(c):
    """An ``int``, or a ``Fraction`` that is not integral."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def is_exact(c):
    """An ``int`` or a ``Fraction``, as ``accumulate`` may leave before a purge."""
    return type(c) in (int, Fraction)


def is_vector(x):
    return all(is_canonical(c) and c != 0 for c in x.values())


def naive_product(x, y, key):
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            k = key(a, b)
            out[k] = out[k] + ca * cb if k in out else ca * cb
    return {k: c for k, c in out.items() if c}


@given(raw_terms)
def test_vector_drops_zeros_and_stores_fractions(terms):
    x = sparse.vector(terms)
    assert is_vector(x)
    assert x == {k: c for k, c in terms.items() if c}


def test_vector_coerces_and_merges_pairs():
    x = sparse.vector([((0,), 1), ((1,), "2/3"), ((0,), Fraction(-1)), ((2,), 0)])
    assert x == {(1,): Fraction(2, 3)}
    assert is_vector(x)


@pytest.mark.parametrize("bad", [0.5, 1.0, None, 1j])
def test_floats_and_other_scalars_rejected(bad):
    with pytest.raises(TypeError, match="not an exact scalar"):
        sparse.frac(bad)
    with pytest.raises(TypeError, match="not an exact scalar"):
        sparse.vector({(0,): bad})
    with pytest.raises(TypeError, match="not an exact scalar"):
        sparse.scale({(0,): Fraction(1)}, bad)


@pytest.mark.parametrize(
    "value, want",
    [
        (3, 3),
        (True, 1),
        ("4/2", 2),
        ("-6/4", Fraction(-3, 2)),
        (Fraction(6, 3), 2),
        (Fraction(1, 2), Fraction(1, 2)),
    ],
)
def test_frac_returns_the_canonical_form(value, want):
    got = sparse.frac(value)
    assert got == want and type(got) is type(want)


def test_integral_results_become_ints():
    half = {(0,): Fraction(1, 2), (1,): Fraction(3, 2), (2,): 1}
    assert sparse.add(half, half) == {(0,): 1, (1,): 3, (2,): 2}
    assert is_vector(sparse.add(half, half))
    assert is_vector(sparse.scale(half, 2)) and is_vector(sparse.scale(half, "2/3"))
    assert is_vector(sparse.product(half, half, operator.add))
    total = dict(half)
    sparse.accumulate(total, half.items())
    assert is_vector(sparse.purge(total))


@pytest.mark.parametrize("bad", [-1.0, 0.5, "1", 1j])
def test_accumulate_rejects_an_inexact_scalar(bad):
    with pytest.raises(TypeError, match="not an exact scalar"):
        sparse.accumulate({}, [((0,), 1)], bad)


@given(vectors, vectors, st.sampled_from(KEYS), st.integers(-2, 2) | scalars)
def test_results_are_vectors(x, y, key, c):
    for result in (sparse.add(x, y), sparse.scale(x, c), sparse.product(x, y, key)):
        assert is_vector(result)


@given(vectors, vectors, vectors)
def test_add_is_commutative_and_associative(x, y, z):
    assert sparse.add(x, y) == sparse.add(y, x)
    assert sparse.add(sparse.add(x, y), z) == sparse.add(x, sparse.add(y, z))
    assert sparse.add(x, sparse.scale(x, -1)) == {}
    assert sparse.add(x, {}) == x


@given(vectors, vectors, scalars, scalars)
def test_scale_is_linear(x, y, a, b):
    assert sparse.scale(sparse.add(x, y), a) == sparse.add(
        sparse.scale(x, a), sparse.scale(y, a)
    )
    assert sparse.scale(x, a + b) == sparse.add(sparse.scale(x, a), sparse.scale(x, b))
    assert sparse.scale(sparse.scale(x, a), b) == sparse.scale(x, a * b)
    assert sparse.scale(x, 0) == {}


@given(vectors, vectors, vectors, scalars, st.sampled_from(KEYS))
@settings(max_examples=60)
def test_product_is_bilinear(x, y, z, a, key):
    assert sparse.product(sparse.add(x, y), z, key) == sparse.add(
        sparse.product(x, z, key), sparse.product(y, z, key)
    )
    assert sparse.product(x, sparse.add(y, z), key) == sparse.add(
        sparse.product(x, y, key), sparse.product(x, z, key)
    )
    assert sparse.product(sparse.scale(x, a), y, key) == sparse.scale(
        sparse.product(x, y, key), a
    )
    assert sparse.product(x, sparse.scale(y, a), key) == sparse.scale(
        sparse.product(x, y, key), a
    )


def table_product(x, y, key):
    """``structure_product`` on a table whose basis products are single keys."""
    return sparse.structure_product(x, y, lambda a, b: {key(a, b): 1})


@given(vectors, vectors, st.sampled_from(KEYS), st.sampled_from([sparse.product, table_product]))
def test_product_matches_naive_double_loop(x, y, key, product):
    got = product(x, y, key)
    want = naive_product(x, y, key)
    assert got == want
    assert list(got) == list(want)  # keys in the order they are first met


@given(vectors, vectors, st.none() | nonzero)
def test_accumulate_then_purge_is_add(x, y, c):
    total = dict(x)
    sparse.accumulate(total, y.items(), c)
    assert all(is_exact(v) for v in total.values())
    assert is_vector(sparse.purge(total))
    expected = sparse.add(x, y if c is None else sparse.scale(y, c))
    assert sparse.purge(total) == expected
    assert list(sparse.purge(total)) == list(expected)


@given(vectors, st.integers(-3, 3))
def test_accumulate_with_int_scalar_keeps_fractions(x, c):
    total = {}
    sparse.accumulate(total, x.items(), c)
    assert all(is_exact(v) for v in total.values())
    assert is_vector(sparse.purge(total))
    assert sparse.purge(total) == sparse.scale(x, c)


def test_accumulate_keeps_place_of_cancelled_keys():
    total = {(0,): Fraction(1), (1,): Fraction(2)}
    sparse.accumulate(total, [((0,), Fraction(-1)), ((2,), Fraction(3)), ((0,), Fraction(5))])
    assert list(total) == [(0,), (1,), (2,)]
    assert sparse.purge(total) == {(0,): Fraction(5), (1,): Fraction(2), (2,): Fraction(3)}


def seeded_rational_map(dim, seed):
    """A square map with about half its entries small nonzero fractions."""
    import random

    from ybalg.tensoralg import TensorMap, words

    rng = random.Random(seed)
    pairs = [(o, i) for o in words(dim, 2) for i in words(dim, 2)]
    return TensorMap(
        dim,
        2,
        2,
        {pair: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
         for pair in pairs if rng.random() < 0.5},
    )


@pytest.mark.parametrize("dim,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
def test_computed_vectors_stay_canonical(dim, seed):
    """Vectors the package builds by hand, not through ``sparse.vector``,
    store no zero and no integral ``Fraction``."""
    from ybalg.frt import partitions, young_symmetrizer
    from ybalg.tensoralg import words
    from ybalg.twisted import TensorWordBracket

    r = seeded_rational_map(dim, seed)
    br = TensorWordBracket(r)
    all_words = [w for length in range(1, 4) for w in words(dim, length)]
    for v in all_words:
        if len(v) == 2:
            assert is_vector(r.apply_word(v)), v
        for w in all_words:
            assert is_vector(br.extend(v, w)), (v, w)
            assert is_vector(br.extend_recursive(v, w)), (v, w)
    for m in range(1, 5):
        for lam in partitions(m):
            assert is_vector(young_symmetrizer(lam)), lam
