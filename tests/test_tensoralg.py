import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybalg import sparse
from ybalg.tensoralg import (
    TensorMap,
    embed_components,
    identity_perm,
    koszul_sort,
    perm_compose,
    perm_inverse,
    perm_sign,
    perm_str,
    word_permute,
    words,
)
from perm_reference import apply_permutation, block_permutation_expand, sigma_prime

perms3 = st.permutations(range(3)).map(tuple)
perms4 = st.permutations(range(4)).map(tuple)
small_fracs = st.integers(-4, 4).map(Fraction)


def sparse_map(dim, deg, seed):
    """Deterministic small test map from an integer seed."""
    import random

    rng = random.Random(seed)
    entries = {}
    all_words = list(words(dim, deg))
    for _ in range(rng.randrange(1, 6)):
        o = rng.choice(all_words)
        i = rng.choice(all_words)
        entries[(o, i)] = Fraction(rng.randrange(-3, 4))
    return TensorMap(dim, deg, deg, entries)


# ---------------------------------------------------------------------------
# permutation primitives
# ---------------------------------------------------------------------------


def test_left_action_convention():
    # content of slot j moves to slot p[j]
    assert word_permute((1, 2, 0), (7, 8, 9)) == (9, 7, 8)


@given(perms4, perms4, st.tuples(*[st.integers(0, 5)] * 4))
def test_word_permute_is_a_left_action(p, q, w):
    assert word_permute(perm_compose(p, q), w) == word_permute(p, word_permute(q, w))


@given(perms4)
def test_perm_inverse(p):
    assert perm_compose(p, perm_inverse(p)) == identity_perm(4)
    assert perm_compose(perm_inverse(p), p) == identity_perm(4)


@given(perms4, perms4)
def test_perm_sign_is_multiplicative(p, q):
    assert perm_sign(perm_compose(p, q)) == perm_sign(p) * perm_sign(q)


def test_perm_sign_counts_inversions():
    for n in range(7):
        for p in itertools.permutations(range(n)):
            inversions = sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n))
            assert perm_sign(p) == (-1) ** inversions


def test_koszul_sort_is_stable_under_a_key():
    items = [(2, "u"), (0, "a"), (2, "v"), (1, "w"), (0, "b")]
    odd = lambda item: item[1] in "uvw"
    placed, sign = koszul_sort(items, odd, key=lambda item: item[0])
    assert placed == ((0, "a"), (0, "b"), (1, "w"), (2, "u"), (2, "v"))
    # w moves past u and v, both odd; a and b are even
    assert sign == 1
    placed, sign = koszul_sort(items[:4], odd, key=lambda item: item[0])
    assert placed == ((0, "a"), (1, "w"), (2, "u"), (2, "v")) and sign == 1
    assert koszul_sort([(1, "u"), (0, "v")], odd, key=lambda item: item[0])[1] == -1
    assert koszul_sort([(1, "u"), (0, "a")], odd, key=lambda item: item[0])[1] == 1


def test_block_swap_of_unequal_blocks():
    # swapping a 1-block past a 2-block expands to the 3-cycle printed (312):
    # v (x) w1 (x) w2 goes to w1 (x) w2 (x) v
    expanded = block_permutation_expand((1, 0), (1, 2))
    assert expanded == (2, 0, 1)
    assert perm_str(expanded) == "(312)"
    assert apply_permutation(expanded, {(0, 1, 2): 1}) == {(1, 2, 0): 1}


@given(st.permutations(range(3)).map(tuple), st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_block_expand_identity_blocks(tau, sizes):
    # all sizes 1 reduces to the permutation itself
    assert block_permutation_expand(tau, (1, 1, 1)) == tau
    # identity block permutation expands to the identity
    n = sum(sizes)
    assert block_permutation_expand((0, 1, 2), tuple(sizes)) == identity_perm(n)


@given(
    st.permutations(range(3)).map(tuple),
    st.permutations(range(3)).map(tuple),
    st.lists(st.integers(1, 3), min_size=3, max_size=3).map(tuple),
)
def test_block_expand_is_functorial(sigma, tau, sizes):
    # first move blocks by tau, then permute positions by sigma
    composite = block_permutation_expand(perm_compose(sigma, tau), sizes)
    after_tau = tuple(sizes[perm_inverse(tau)[p]] for p in range(3))
    step1 = block_permutation_expand(tau, sizes)
    step2 = block_permutation_expand(sigma, after_tau)
    assert composite == perm_compose(step2, step1)


def test_sigma_prime_plain_symbols():
    p = sigma_prime(["u", "v", "w"], [("v", 1), ("u", 1), ("w", 1)])
    t = {(1, 0, 2): 1}  # contents v, u, w
    assert apply_permutation(p, t) == {(0, 1, 2): 1}


def test_sigma_prime_with_block_sizes():
    p = sigma_prime(["x", "y"], [("y", 2), ("x", 1)])
    assert p == (1, 2, 0)
    # a bracket value occupying two slots is carried as a unit
    t = {(2, 3, 0): 1}  # y1, y2, x
    assert apply_permutation(p, t) == {(0, 2, 3): 1}


def test_sigma_prime_rejects_symbol_mismatch():
    with pytest.raises(ValueError):
        sigma_prime(["u", "v"], [("u", 1), ("w", 1)])


# ---------------------------------------------------------------------------
# tensors: sparse vectors keyed by words, tensored by word concatenation
# ---------------------------------------------------------------------------


def tensor(u, v):
    return sparse.product(u, v, operator.add)


def test_zero_purge_makes_equality_semantic():
    t = {(0, 1): Fraction(3)}
    assert sparse.add(t, sparse.scale(t, -1)) == {}


@given(small_fracs, small_fracs)
def test_tensor_is_bilinear(a, b):
    u = sparse.vector({(0,): a})
    v = sparse.vector({(1,): b})
    assert tensor(u, v) == sparse.vector({(0, 1): a * b})


def test_tensor_product_is_associative():
    u = {(0,): 2, (1,): -1}
    v = {(1,): 3}
    w = {(0, 0): Fraction(1, 2)}
    assert tensor(tensor(u, v), w) == tensor(u, tensor(v, w))


# ---------------------------------------------------------------------------
# tensor maps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args", [(3, 2, {((0, 0), (0, 0)): 1}), (Fraction(3), 2, 2), (3, "2", 2), (3, 2, 2.0)]
)
def test_dim_and_degrees_must_be_int(args):
    with pytest.raises(TypeError, match="must be int"):
        TensorMap(*args)


def test_identity_and_swap():
    ident = TensorMap.identity(2, 2)
    tau = TensorMap.swap(2)
    assert tau.compose(tau) == ident
    assert tau.apply_word((0, 1)) == {(1, 0): 1}


def test_apply_checks_word_length():
    with pytest.raises(ValueError, match="does not match map domain"):
        TensorMap.swap(2).apply({(0, 1): 1, (1,): 2})


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_compose_is_associative(s1, s2, s3):
    f = sparse_map(2, 2, s1)
    g = sparse_map(2, 2, s2)
    h = sparse_map(2, 2, s3)
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_compose_respects_apply(s1, s2):
    f = sparse_map(2, 2, s1)
    g = sparse_map(2, 2, s2)
    for w in words(2, 2):
        assert f.compose(g).apply_word(w) == f.apply(g.apply_word(w))


def test_embed_matches_tensor_with_identity():
    r = sparse_map(2, 2, 7)
    ident = TensorMap.identity(2, 1)
    assert embed_components(r, (2, 3), 3) == ident.tensor_product(r)
    assert embed_components(r, (1, 2), 3) == r.tensor_product(ident)


def test_embed_interleaved_slots():
    tau = TensorMap.swap(3)
    r13 = embed_components(tau, (1, 3), 3)
    assert r13.apply_word((0, 1, 2)) == {(2, 1, 0): 1}


def test_embed_reversed_slots_is_r21_embedding():
    r = sparse_map(2, 2, 11)
    assert embed_components(r, (3, 1), 3) == embed_components(r.r21(), (1, 3), 3)


def _embed_by_filling(r, slots, n):
    """Reference embedding: fill each word slot by slot, entry by entry."""
    idx = [s - 1 for s in slots]
    passive = [j for j in range(n) if j not in idx]
    out = {}
    for (o, i), c in r.entries.items():
        for filler in words(r.dim, len(passive)):
            out_word = [0] * n
            in_word = [0] * n
            for t, j in enumerate(idx):
                out_word[j] = o[t]
                in_word[j] = i[t]
            for t, j in enumerate(passive):
                out_word[j] = filler[t]
                in_word[j] = filler[t]
            out[(tuple(out_word), tuple(in_word))] = c
    return out


@st.composite
def maps_and_slots(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(n, 3)))
    dim = draw(st.integers(1, 3))
    slots = tuple(draw(st.permutations(range(1, n + 1)))[:k])
    return sparse_map(dim, k, draw(st.integers(0, 10_000))), slots, n


@settings(max_examples=150)
@given(maps_and_slots())
def test_embed_matches_the_slot_filling_reference(case):
    r, slots, n = case
    got = embed_components(r, slots, n)
    want = _embed_by_filling(r, slots, n)
    assert (got.dom_deg, got.cod_deg) == (n, n)
    assert got.entries == want
    assert list(got.entries) == list(want)  # same insertion order


@given(perms3, st.integers(0, 10_000))
def test_conjugation_relabels_components(pi, seed):
    # P r^{ij} P^{-1} = r^{pi(i) pi(j)} for the slot-relabeling action
    r = sparse_map(2, 2, seed)
    i, j = 1, 3
    lhs = embed_components(r, (i, j), 3).conjugate_by_perm(pi)
    rhs = embed_components(r, (pi[i - 1] + 1, pi[j - 1] + 1), 3)
    assert lhs == rhs


@settings(max_examples=60)
@given(
    st.integers(1, 4).flatmap(lambda n: st.permutations(range(n))),
    st.integers(0, 10_000),
)
def test_conjugation_is_composition_with_the_permutation_operator(p, seed):
    p = tuple(p)
    r = sparse_map(2, len(p), seed)
    big_p = TensorMap.from_permutation(p, 2)
    big_p_inv = TensorMap.from_permutation(perm_inverse(p), 2)
    assert r.conjugate_by_perm(p) == big_p.compose(r).compose(big_p_inv)


def test_r21_is_swap_conjugation():
    r = sparse_map(2, 2, 13)
    tau = TensorMap.swap(2)
    assert r.r21() == tau.compose(r).compose(tau)
    assert r.r21().r21() == r


def test_first_nonzero_is_lexicographic():
    entries = {
        ((1, 0), (1, 1)): Fraction(5),
        ((0, 1), (1, 0)): Fraction(-2),
        ((0, 1), (0, 1)): Fraction(7),
    }
    f = TensorMap(2, 2, 2, entries)
    assert f.first_nonzero() == ((0, 1), (0, 1), Fraction(7))


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_map_addition_matches_pointwise(s1, s2):
    f = sparse_map(2, 2, s1)
    g = sparse_map(2, 2, s2)
    for w in words(2, 2):
        assert (f + g).apply_word(w) == sparse.add(f.apply_word(w), g.apply_word(w))
    assert (f - f).is_zero()
