import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybalg import sparse, twisted
from ybalg.fixtures import (
    random_map,
    random_skew_map,
    search_skew_solutions,
    sl2_poisson_bracket,
)
from ybalg.harness import BOUNDS
from ybalg.tensoralg import TensorMap, perm_inverse, words
from perm_reference import apply_permutation, block_permutation_expand, sigma_prime
from ybalg.twisted import (
    PolynomialPoissonBracket,
    TensorWordBracket,
    _families,
    _regroup,
    _word_tuples,
    audit_extension,
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
# skew maps by the theorem: letter triples plus the formal audit
# ---------------------------------------------------------------------------


def skew_diagonal(dim, rng):
    """``r(e_i (x) e_j) = a_ij e_i (x) e_j`` with ``a`` antisymmetric: a
    classical solution."""
    entries = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            a = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
            entries[((i, j), (i, j))] = a
            entries[((j, i), (j, i))] = -a
    return TensorMap(dim, 2, 2, entries)


def abelian_r_matrix(dim, rng):
    """``A (x) B - B (x) A`` acting on the tensor square, with ``A = M`` and
    ``B = M^2 + M`` for a seeded integer matrix ``M``: ``A`` and ``B``
    commute, so this is a dense skew classical solution."""
    m = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    b = [
        [sum(m[i][k] * m[k][j] for k in range(dim)) + m[i][j] for j in range(dim)]
        for i in range(dim)
    ]
    return TensorMap(dim, 2, 2, {
        ((o1, o2), (i1, i2)): m[o1][i1] * b[o2][i2] - b[o1][i1] * m[o2][i2]
        for o1, o2, i1, i2 in words(dim, 4)
    })


SKEW_GRID = [
    (kind, dim, seed)
    for kind in ("random", "diagonal", "abelian")
    for dim in (2, 3)
    for seed in range(3)
]


def skew_grid_map(kind, dim, seed):
    rng = random.Random(seed)
    if kind == "random":
        return random_skew_map(dim, rng)
    return (skew_diagonal if kind == "diagonal" else abelian_r_matrix)(dim, rng)


@pytest.mark.parametrize("kind,dim,seed", SKEW_GRID)
def test_skew_reports_match_the_literal_families(kind, dim, seed):
    r = skew_grid_map(kind, dim, seed)
    assert is_skew(r)
    for max_degree in (2, 3, 4):
        fast = check_bracket_extension(r, max_degree)
        assert fast.lines() == _families(r, max_degree).lines(), (max_degree, fast.lines())
    if kind != "random":
        assert fast.passed and not r.is_zero()


def test_skew_grid_sees_jacobi_failures_and_vacuous_degree_two():
    r = skew_grid_map("random", 3, 0)
    assert not cybe_residual(r).is_zero()
    assert check_bracket_extension(r, 4).lines()[2].startswith("jacobi: FAIL at args [")
    # no word triple has total length 2
    assert check_bracket_extension(r, 2).lines()[2] == "jacobi: PASS"


def record_concrete_evaluations(monkeypatch):
    """The defect and recursive-route evaluations on a concrete bracket, as
    ``(name, argument lengths)``; the formal audit's are not recorded."""
    calls = []
    for name in ("twisted_skew_defect", "twisted_jacobi_defect", "twisted_leibniz_defect"):

        def recording(br, *args, defect=getattr(twisted, name), name=name):
            if type(br) is TensorWordBracket:
                calls.append((name, tuple(map(len, args))))
            return defect(br, *args)

        monkeypatch.setattr(twisted, name, recording)
    extend_recursive = TensorWordBracket.extend_recursive

    def recording_route(br, v, w):
        if type(br) is TensorWordBracket:
            calls.append(("extend_recursive", (len(v), len(w))))
        return extend_recursive(br, v, w)

    monkeypatch.setattr(TensorWordBracket, "extend_recursive", recording_route)
    return calls


def test_skew_maps_evaluate_only_letter_triples(monkeypatch):
    calls = record_concrete_evaluations(monkeypatch)
    report = check_bracket_extension(skew_grid_map("abelian", 3, 0), 4)
    assert report.passed
    assert calls == [("twisted_jacobi_defect", (1, 1, 1))] * 27


@pytest.mark.parametrize("dim,seed", [(2, 0), (2, 1), (3, 3)])
def test_non_skew_maps_evaluate_no_leibniz_defect(monkeypatch, dim, seed):
    r = seeded_non_skew(seed, dim)
    assert not is_skew(r)
    calls = record_concrete_evaluations(monkeypatch)
    report = check_bracket_extension(r, 3)
    # the audit of a table that is not skew proves Leibniz for every map
    assert calls and [name for name, _ in calls if name == "twisted_leibniz_defect"] == []
    monkeypatch.undo()
    assert report.lines() == _families(r, 3).lines()
    assert not report.passed


def skew_plus_one_entry(dim, rng):
    """A random skew map with one entry added, which leaves it not skew."""
    out_w, in_w = rng.choice(list(words(dim, 2))), rng.choice(list(words(dim, 2)))
    return random_skew_map(dim, rng) + TensorMap(dim, 2, 2, {(out_w, in_w): 1})


NON_SKEW_GRID = [
    (kind, dim, density, seed)
    for kind in ("random", "skew+1")
    for dim in (1, 2, 3, 4)
    for density in ((0.3, 1.0) if kind == "random" else (None,))
    for seed in (1, 3)
]


@pytest.mark.parametrize("kind,dim,density,seed", NON_SKEW_GRID)
def test_non_skew_reports_match_the_literal_families(kind, dim, density, seed):
    rng = random.Random(seed)
    if kind == "random":
        r = random_map(dim, 2, rng, density=density)
    else:
        r = skew_plus_one_entry(dim, rng)
    assert not is_skew(r)
    for max_degree in (2, 3, 4, 5):
        report = check_bracket_extension(r, max_degree)
        assert report.lines() == _families(r, max_degree).lines(), (max_degree, report.lines())


@st.composite
def small_maps(draw):
    """A map on the tensor square of dim 1 to 3 with few small entries,
    antisymmetrized (so skew) half the time."""
    dim = draw(st.integers(1, 3))
    pairs = st.sampled_from(list(words(dim, 2)))
    entries = draw(st.dictionaries(st.tuples(pairs, pairs), st.integers(-2, 2), max_size=6))
    r = TensorMap(dim, 2, 2, entries)
    return r - r.r21() if draw(st.booleans()) else r


@settings(max_examples=60, deadline=None)
@given(small_maps(), st.integers(2, 4))
def test_reports_match_the_literal_families_for_any_map(r, max_degree):
    assert check_bracket_extension(r, max_degree).lines() == _families(r, max_degree).lines()


def test_patterns_the_audit_leaves_open_are_checked_literally(monkeypatch):
    # with no pattern settled, every tuple is scanned as by the literal families
    monkeypatch.setattr(
        twisted,
        "audit_extension",
        lambda max_degree, skew: {
            name: {tuple(map(len, t)) for t in _word_tuples(1, arity, max_degree)}
            for name, arity in (
                ("antisymmetry", 2), ("jacobi", 3), ("leibniz", 3), ("route-agreement", 2)
            )
        },
    )
    for r in (skew_grid_map("random", 2, 1), skew_grid_map("abelian", 2, 1), seeded_non_skew(1, 2)):
        assert check_bracket_extension(r, 4).lines() == _families(r, 4).lines()


FAMILIES = ("antisymmetry", "jacobi", "leibniz", "route-agreement")


def test_audit_reduces_every_pattern_up_to_the_degree_bound():
    assert audit_extension(BOUNDS["degree"], skew=True) == {name: set() for name in FAMILIES}
    assert audit_extension(BOUNDS["degree"] + 1, skew=True) == {name: set() for name in FAMILIES}


def test_audit_with_a_table_that_is_not_skew_fails():
    failed = audit_extension(BOUNDS["degree"], skew=False)
    assert (1, 1) in failed["antisymmetry"]
    assert failed["route-agreement"]
    # Leibniz holds for every table, skew or not
    assert failed["leibniz"] == set()


def test_audit_sees_a_swapped_jacobi_realignment(monkeypatch):
    def swapped(br, u, v, w):
        lu, lv, lw = len(u), len(v), len(w)
        t1 = br.bracket({u: 1}, br.extend(v, w))
        t2 = _regroup(br.bracket({v: 1}, br.extend(w, u)), (lv, lw, lu), (2, 0, 1))
        # (1, 2, 0) is the realignment of {w,{u,v}}; (2, 0, 1) is that of {v,{w,u}}
        t3 = _regroup(br.bracket({w: 1}, br.extend(u, v)), (lw, lu, lv), (2, 0, 1))
        return sparse.add(sparse.add(t1, t2), t3)

    monkeypatch.setattr(twisted, "twisted_jacobi_defect", swapped)
    assert audit_extension(BOUNDS["degree"], skew=True)["jacobi"] == {
        (1, 1, 2), (1, 2, 1), (2, 1, 1)
    }


def test_audit_sees_a_leibniz_rule_without_its_realignment(monkeypatch):
    def unaligned(br, u, v, w):
        # v (x) {u, w} left in block order instead of between u's and w's slots
        terms = sparse.add(br.extend(u + v, w), sparse.scale(tensor({u: 1}, br.extend(v, w)), -1))
        return sparse.add(terms, sparse.scale(tensor({v: 1}, br.extend(u, w)), -1))

    monkeypatch.setattr(twisted, "twisted_leibniz_defect", unaligned)
    assert audit_extension(BOUNDS["degree"], skew=True)["leibniz"] == {
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)
    }


def test_audit_repeats_exactly_in_one_process():
    assert audit_extension(4, skew=True) == audit_extension(4, skew=True)
    assert audit_extension(4, skew=False) == audit_extension(4, skew=False)


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
