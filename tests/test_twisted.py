import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybalg import sparse
from ybalg.fixtures import (
    random_map,
    random_skew_map,
    search_skew_solutions,
    sl2_poisson_bracket,
)
from ybalg.tensoralg import (
    TensorMap,
    apply_permutation,
    block_permutation_expand,
    perm_inverse,
    sigma_prime,
    words,
)
from ybalg.twisted import (
    PolynomialPoissonBracket,
    TensorWordBracket,
    _regroup,
    _word_tuples,
    bracket_roundtrip,
    check_bracket_extension,
    degree111_jacobi_map,
    poly_mul,
    twisted_jacobi_defect,
    twisted_leibniz_defect,
    twisted_skew_defect,
)
from ybalg.ybe import cybe_residual, is_skew


@pytest.fixture(scope="module")
def cybe_solutions():
    sols, non = search_skew_solutions("cybe", 2)
    return sols, non


def seeded_skew(seed, dim=2):
    return random_skew_map(dim, random.Random(seed))


# ---------------------------------------------------------------------------
# the extension formula itself
# ---------------------------------------------------------------------------


def test_extension_at_letters_is_the_table():
    r = seeded_skew(3)
    br = TensorWordBracket(r)
    for a, b in words(2, 2):
        assert br.extend((a,), (b,)) == r.apply_word((a, b))


def test_extension_interleaves_spectators():
    # with r = swap, {u, w1 w2} should place the first value slot first,
    # then w1, then the second value slot: {u,w1}(x)w2 keeps letter order
    r = TensorMap.swap(2)
    br = TensorWordBracket(r)
    got = br.extend((0,), (1, 0))
    # terms: realign({0,1} (x) 0) with {0,1} = swap(0,1) = (1,0) -> word (1,0,0)
    #        realign({0,0} (x) 1) torn around the spectator w1 = 1
    assert got == {(1, 0, 0): 1, (0, 1, 0): 1}


def test_value_slots_can_be_torn_apart():
    # generator value with distinguishable slots: r(e0 (x) e0) = e0 (x) e1
    r = TensorMap(2, 2, 2, {((0, 1), (0, 0)): Fraction(1)})
    br = TensorWordBracket(r)
    got = br.extend((0,), (1, 0))
    # only the pair (u, w2) = (0, 0) contributes; value = e0 (x) e1 with the
    # spectator w1 = e1 realigned between the two value slots
    assert got == {(0, 1, 1): 1}


@given(st.integers(0, 10_000))
def test_leibniz_holds_for_any_table(seed):
    # the closed-form extension satisfies the left Leibniz rule identically
    r = seeded_skew(seed)
    br = TensorWordBracket(r)
    rng = random.Random(seed ^ 0xA5)
    for _ in range(5):
        lu, lv, lw = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        u = tuple(rng.randrange(2) for _ in range(lu))
        v = tuple(rng.randrange(2) for _ in range(lv))
        w = tuple(rng.randrange(2) for _ in range(lw))
        assert twisted_leibniz_defect(br, u, v, w) == {}


@given(st.integers(0, 10_000))
def test_routes_agree_for_skew_tables(seed):
    r = seeded_skew(seed)
    br = TensorWordBracket(r)
    rng = random.Random(seed ^ 0x5A)
    for _ in range(5):
        lv, lw = rng.randint(1, 3), rng.randint(1, 2)
        v = tuple(rng.randrange(2) for _ in range(lv))
        w = tuple(rng.randrange(2) for _ in range(lw))
        assert br.extend(v, w) == br.extend_recursive(v, w)


# ---------------------------------------------------------------------------
# slot substitution against explicit slot permutations
# ---------------------------------------------------------------------------


def tensor(u, v):
    return sparse.product(u, v, operator.add)


def total(*vectors):
    out = {}
    for vec in vectors:
        out = sparse.add(out, vec)
    return out


def extend_by_sigma_prime(r, v, w):
    """Reference extension: each letter pair's generator value tensored with
    the spectators, realigned by an expanded ``sigma_prime`` permutation."""
    m, n = len(v), len(w)
    target = [("v", i) for i in range(m)] + [("w", j) for j in range(n)]
    out = {}
    for i in range(m):
        for j in range(n):
            value = r.apply_word((v[i], w[j]))
            if not value:
                continue
            spectators = v[:i] + v[i + 1 :] + w[:j] + w[j + 1 :]
            current = (
                [("v", i), ("w", j)]
                + [("v", k) for k in range(m) if k != i]
                + [("w", l) for l in range(n) if l != j]
            )
            realign = sigma_prime(target, [(sym, 1) for sym in current])
            term = tensor(value, {spectators: 1})
            out = total(out, apply_permutation(realign, term))
    return out


def defects_by_block_permutations(r, u, v, w):
    """Reference skew, Jacobi and Leibniz defects realigned by expanded
    block permutations, on the reference extension."""
    lu, lv, lw = len(u), len(v), len(w)
    ext = lambda a, b: extend_by_sigma_prime(r, a, b)

    def bracket(a, t):
        return total(*(sparse.scale(ext(a, word), c) for word, c in t.items()))

    skew = total(
        ext(v, u), apply_permutation(block_permutation_expand((1, 0), (lu, lv)), ext(u, v))
    )
    target = ["u", "v", "w"]
    jacobi = total(
        bracket(u, ext(v, w)),
        apply_permutation(
            sigma_prime(target, [("v", lv), ("w", lw), ("u", lu)]), bracket(v, ext(w, u))
        ),
        apply_permutation(
            sigma_prime(target, [("w", lw), ("u", lu), ("v", lv)]), bracket(w, ext(u, v))
        ),
    )
    inner = tensor({v: 1}, ext(u, w))
    leibniz = total(
        ext(u + v, w),
        sparse.scale(tensor({u: 1}, ext(v, w)), -1),
        sparse.scale(
            apply_permutation(block_permutation_expand((1, 0, 2), (lv, lu, lw)), inner), -1
        ),
    )
    return skew, jacobi, leibniz


def seeded_non_skew(seed, dim):
    rng = random.Random(seed)
    r = random_map(dim, 2, rng)
    # a rational rescaling keeps Fraction coefficients in play
    return r.scale(Fraction(2, 3)) if seed % 2 else r


@pytest.mark.parametrize("dim,seed", [(2, 0), (2, 1), (2, 2), (3, 3), (3, 4)])
def test_extend_matches_sigma_prime_reference(dim, seed):
    r = seeded_non_skew(seed, dim)
    assert not is_skew(r)
    br = TensorWordBracket(r)
    all_words = [w for length in range(4) for w in words(dim, length)]
    rng = random.Random(seed)
    pairs = [(v, w) for v in all_words for w in all_words]
    if dim == 3:
        pairs = rng.sample(pairs, 300)
    for v, w in pairs:
        assert br.extend(v, w) == extend_by_sigma_prime(r, v, w), (v, w)


@pytest.mark.parametrize("dim,seed", [(2, 5), (2, 6), (3, 7)])
def test_defects_match_block_permutation_reference(dim, seed):
    r = seeded_non_skew(seed, dim)
    br = TensorWordBracket(r)
    rng = random.Random(seed)
    nonzero = 0
    for _ in range(12):
        u, v, w = (
            tuple(rng.randrange(dim) for _ in range(rng.randint(1, 2))) for _ in range(3)
        )
        skew, jacobi, leibniz = defects_by_block_permutations(r, u, v, w)
        assert twisted_skew_defect(br, u, v) == skew
        assert twisted_jacobi_defect(br, u, v, w) == jacobi
        assert twisted_leibniz_defect(br, u, v, w) == leibniz
        nonzero += bool(skew) + bool(jacobi)
    assert nonzero  # the comparison saw non-vanishing defects


@settings(max_examples=60)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_regroup_is_the_block_permutation(sizes, rng):
    order = list(range(len(sizes)))
    rng.shuffle(order)
    length = sum(sizes)
    t = sparse.vector(
        (tuple(rng.randrange(2) for _ in range(length)), Fraction(rng.randint(-3, 3), 2))
        for _ in range(5)
    )
    expected = apply_permutation(block_permutation_expand(perm_inverse(tuple(order)), sizes), t)
    assert _regroup(t, sizes, order) == expected


def test_skew_defect_vanishes_only_for_skew_tables():
    r = seeded_skew(11)
    br = TensorWordBracket(r)
    assert twisted_skew_defect(br, (0, 1), (1,)) == {}
    not_skew = TensorMap(2, 2, 2, {((0, 0), (0, 1)): Fraction(1)})
    brn = TensorWordBracket(not_skew)
    assert twisted_skew_defect(brn, (0,), (1,))


# ---------------------------------------------------------------------------
# the jacobi / classical-equation correspondence
# ---------------------------------------------------------------------------


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_letter_triple_jacobi_equals_classical_residual(seed):
    r = seeded_skew(seed)
    assert degree111_jacobi_map(TensorWordBracket(r)) == cybe_residual(r)


def test_solutions_extend_to_brackets(cybe_solutions):
    sols, _ = cybe_solutions
    assert len(sols) == 47  # exact count for entries in {-1, 0, 1} at dim 2
    for r in sols[:6]:
        report = check_bracket_extension(r, 4)
        assert report.passed, [c.line() for c in report.checks]


def test_non_solutions_fail_jacobi_at_letters(cybe_solutions):
    _, non = cybe_solutions
    for r in non[:25]:
        br = TensorWordBracket(r)
        assert not degree111_jacobi_map(br).is_zero()


def test_roundtrip_report_on_solution_and_non_solution(cybe_solutions):
    sols, non = cybe_solutions
    r = next(r for r in sols if not r.is_zero())
    rep = bracket_roundtrip(r, 3)
    assert rep.passed
    assert rep.r_is_skew and rep.cybe_holds and rep.bracket_report.passed
    assert rep.restriction_equals_r
    # a skew non-solution still satisfies the correspondence: both sides fail
    rep2 = bracket_roundtrip(non[0], 3)
    assert rep2.passed
    assert not rep2.cybe_holds and not rep2.bracket_report.passed


def test_jacobi_defect_realignment_blocks():
    # mixed word lengths exercise the block realignment of the cyclic sum
    r = seeded_skew(23)
    sols, _ = search_skew_solutions("cybe", 2)
    r = next(s for s in sols if not s.is_zero())
    br = TensorWordBracket(r)
    assert twisted_jacobi_defect(br, (0, 1), (1,), (0,)) == {}
    assert twisted_jacobi_defect(br, (1,), (0, 0), (1, 0)) == {}


# ---------------------------------------------------------------------------
# the degree-0 case: classical polynomial Poisson brackets
# ---------------------------------------------------------------------------


def test_poly_arithmetic():
    p = sparse.vector({(0,): Fraction(2)})
    q = sparse.vector({(1,): Fraction(3)})
    assert poly_mul(p, q) == {(0, 1): Fraction(6)}
    assert poly_mul(q, p) == poly_mul(p, q)  # commutative, monomials sorted


def test_sl2_bracket_is_poisson():
    br = sl2_poisson_bracket()
    report = br.check(max_degree=4)
    assert report.passed, [c.line() for c in report.checks]


def test_sl2_casimir_is_central():
    br = sl2_poisson_bracket()
    # casimir: h^2 + 4 e f   (with generators ordered e, h, f = 0, 1, 2)
    casimir = sparse.vector({(1, 1): Fraction(1), (0, 2): Fraction(4)})
    for g in range(3):
        assert br.bracket({(g,): Fraction(1)}, casimir) == {}


def test_polynomial_bracket_detects_jacobi_failure():
    bad = PolynomialPoissonBracket.from_table(
        3,
        {
            (0, 1): {(2,): Fraction(1)},
            (1, 2): {(0,): Fraction(1)},
            (0, 2): {(0,): Fraction(1)},  # breaks jacobi
        },
    )
    report = bad.check(max_degree=3)
    names = {c.name: c.passed for c in report.checks}
    assert names["antisymmetry"] and names["leibniz"]
    assert not names["jacobi"]


def test_polynomial_bracket_table_keys_must_be_ordered():
    with pytest.raises(ValueError, match="ordered generator pairs"):
        PolynomialPoissonBracket.from_table(2, {(1, 0): {(0,): Fraction(1)}})


def test_polynomial_bracket_from_callable_counts_multiplicity():
    # named generators, {x, y} = z: {x^2, y} = 2 x z and {y, x^2} = -2 x z
    def gen(a, b):
        if (a, b) == ("x", "y"):
            return {("z",): Fraction(1)}
        if (a, b) == ("y", "x"):
            return {("z",): Fraction(-1)}
        return {}

    br = PolynomialPoissonBracket(gen)
    assert br.extend(("x", "x"), ("y",)) == {("x", "z"): Fraction(2)}
    assert br.bracket({("y",): Fraction(1)}, {("x", "x"): Fraction(3)}) == {
        ("x", "z"): Fraction(-6)
    }


def _word_pairs(dim, max_total):
    for total in range(2, max_total + 1):
        for lv in range(1, total):
            lw = total - lv
            for v in words(dim, lv):
                for w in words(dim, lw):
                    yield v, w


def _word_triples(dim, max_total):
    for total in range(3, max_total + 1):
        for lu in range(1, total - 1):
            for lv in range(1, total - lu):
                lw = total - lu - lv
                for u in words(dim, lu):
                    for v in words(dim, lv):
                        for w in words(dim, lw):
                            yield u, v, w


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("max_total", [0, 1, 2, 3, 4, 5])
def test_word_tuples_keep_the_pair_and_triple_order(dim, max_total):
    # by total length, then by the tuple of lengths, then by the words
    assert list(_word_tuples(dim, 2, max_total)) == list(_word_pairs(dim, max_total))
    assert list(_word_tuples(dim, 3, max_total)) == list(_word_triples(dim, max_total))
