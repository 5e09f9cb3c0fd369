"""Graded bracket families: signs, axiom residuals, extension, fixtures."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybalg import io, sparse
from ybalg.sparse import structure_product
from ybalg.algebras import TruncationOverflow
from ybalg.linfty import (
    CONVENTIONS,
    ExtendedFamily,
    FormalBrackets,
    GradedBasis,
    MultiBracketFamily,
    ExtensionCheck,
    SuperSymAlgebra,
    _atom_degree,
    _audit_pattern,
    _axiom_terms,
    _formal_extension,
    _selection_table,
    all_orders,
    audit_cancellation,
    cone_fixture,
    family_is_linfty,
    homotopy_fixture,
    linfty_residual,
    linfty_residual_blocks,
    shuffles,
    sign_odd,
    solve_homotopy_bracket,
    product_extension_check,
    three_generator_fixture,
)
from ybalg.tensoralg import koszul_sort, perm_compose, perm_inverse, perm_sign
from perm_reference import block_permutation_expand

ONE = Fraction(1)
TWO = Fraction(2)


def sign_odd_direct(degrees, sel):
    """Independent oracle: product of pair signs over inversions."""
    sign = 1
    for k in range(len(sel)):
        for l in range(k + 1, len(sel)):
            if sel[k] > sel[l]:
                sign *= (-1) ** ((degrees[sel[k]] + 1) * (degrees[sel[l]] + 1))
    return sign


def bubble_koszul_sort(word, odd):
    """Independent oracle: a bubble sort flipping the sign at each swap of
    two odd letters."""
    items = list(word)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                if odd(items[j]) and odd(items[j + 1]):
                    sign = -sign
                items[j], items[j + 1] = items[j + 1], items[j]
    return tuple(items), sign


def sl2_family():
    basis = GradedBasis(("e", "f", "h"), (0, 0, 0))
    return MultiBracketFamily(
        basis,
        {2: {(0, 1): {2: ONE}, (0, 2): {0: -TWO}, (1, 2): {1: TWO}}},
    )


class TestSignOdd:
    def test_identity(self):
        assert sign_odd((0, 1, 5, -2), (0, 1, 2, 3)) == 1

    def test_even_even_swap_anticommutes(self):
        assert sign_odd((0, 0), (1, 0)) == -1

    def test_odd_odd_swap_commutes(self):
        assert sign_odd((1, 1), (1, 0)) == 1

    def test_even_odd_swap_commutes(self):
        assert sign_odd((0, 1), (1, 0)) == 1
        assert sign_odd((1, 0), (1, 0)) == 1

    def test_all_odd_any_permutation_is_plus_one(self):
        for sel in itertools.permutations(range(4)):
            assert sign_odd((1, 3, 1, -1), sel) == 1

    def test_all_even_reduces_to_permutation_sign(self):
        for sel in itertools.permutations(range(4)):
            assert sign_odd((0, 0, 2, -2), sel) == perm_sign(sel)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            sign_odd((0, 1), (0, 1, 2))

    @pytest.mark.parametrize("sel", [(0, 0), (1, 1, 0), (0, 5), (-1, 0), (1, 2)])
    def test_non_permutation_raises(self, sel):
        with pytest.raises(ValueError, match="not a permutation"):
            sign_odd((0,) * len(sel), sel)

    def test_matches_expanded_block_permutation_sign(self):
        rng = random.Random(13)
        for m in range(6):
            for _ in range(4):
                degrees = tuple(rng.randint(-3, 3) for _ in range(m))
                sizes = tuple((d + 1) % 2 for d in degrees)
                for sel in itertools.permutations(range(m)):
                    expected = perm_sign(block_permutation_expand(perm_inverse(sel), sizes))
                    assert sign_odd(degrees, sel) == expected, (degrees, sel)

    @given(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_matches_inversion_product_oracle(self, degrees, rng):
        sel = list(range(len(degrees)))
        rng.shuffle(sel)
        assert sign_odd(degrees, tuple(sel)) == sign_odd_direct(degrees, tuple(sel))

    @given(
        st.lists(st.integers(min_value=-1, max_value=2), min_size=2, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_cocycle_under_composition(self, degrees, rng):
        m = len(degrees)
        sig = list(range(m))
        tau = list(range(m))
        rng.shuffle(sig)
        rng.shuffle(tau)
        net = tuple(tau[sig[l]] for l in range(m))
        permuted = [degrees[tau[k]] for k in range(m)]
        assert sign_odd(degrees, net) == sign_odd(permuted, tuple(sig)) * sign_odd(
            degrees, tuple(tau)
        )


class TestShuffles:
    def test_counts_are_binomial(self):
        for i in range(4):
            for j in range(4):
                assert len(shuffles(i, j)) == math.comb(i + j, i)

    def test_trivial_blocks_give_identity(self):
        assert shuffles(0, 3) == [(0, 1, 2)]
        assert shuffles(3, 0) == [(0, 1, 2)]

    def test_heads_and_tails_increase(self):
        for sel in shuffles(2, 3):
            assert list(sel[:2]) == sorted(sel[:2])
            assert list(sel[2:]) == sorted(sel[2:])


class TestGradedBasis:
    @pytest.mark.parametrize("labels, degrees, message", [
        (("a", "b"), (0,), "labels and degrees must align"),
        (("x", "x"), (0, 1), "duplicate label 'x'"),
    ])
    def test_refusals(self, labels, degrees, message):
        with pytest.raises(ValueError, match=message):
            GradedBasis(labels, degrees)


class TestMultiBracketFamily:
    def test_degree_shift_enforced(self):
        basis = GradedBasis(("a", "z"), (0, 0))
        with pytest.raises(ValueError, match="degree"):
            MultiBracketFamily(basis, {1: {(0,): {1: ONE}}})

    def test_unsorted_key_rejected(self):
        basis = GradedBasis(("a", "b", "z"), (0, 0, 0))
        with pytest.raises(ValueError, match="sorted"):
            MultiBracketFamily(basis, {2: {(1, 0): {2: ONE}}})

    def test_forced_zero_entry_rejected(self):
        basis = GradedBasis(("a",), (0,))
        with pytest.raises(ValueError, match="vanish"):
            MultiBracketFamily(basis, {2: {(0, 0): {0: ONE}}})

    def test_repeated_odd_argument_is_allowed(self):
        basis = GradedBasis(("u", "w"), (1, 2))
        fam = MultiBracketFamily(basis, {2: {(0, 0): {1: ONE}}})
        assert fam.value(2, (0, 0)) == {1: ONE}

    def test_lookup_applies_skew_clause(self):
        fam = sl2_family()
        assert fam.value(2, (0, 1)) == {2: ONE}
        assert fam.value(2, (1, 0)) == {2: -ONE}

    def test_odd_pair_lookup_is_symmetric(self):
        basis = GradedBasis(("u", "v", "z"), (1, 1, 2))
        fam = MultiBracketFamily(basis, {2: {(0, 1): {2: ONE}}})
        assert fam.value(2, (1, 0)) == fam.value(2, (0, 1))


class TestAxiomResiduals:
    def test_sl2_satisfies_all_axioms(self):
        assert family_is_linfty(sl2_family(), 4) == (True, None)

    def test_pure_differential_satisfies_all_axioms(self):
        basis = GradedBasis(("a", "z"), (0, 1))
        fam = MultiBracketFamily(basis, {1: {(0,): {1: ONE}}})
        assert family_is_linfty(fam, 4) == (True, None)

    def test_nonsquarezero_differential_fails_m1(self):
        basis = GradedBasis(("a", "y", "z"), (0, 1, 2))
        fam = MultiBracketFamily(basis, {1: {(0,): {1: ONE}, (1,): {2: ONE}}})
        ok, witness = family_is_linfty(fam, 1)
        assert not ok and witness == (1, (0,))

    def test_jacobi_violation_fails_m3(self):
        basis = GradedBasis(("e", "f", "h"), (0, 0, 0))
        fam = MultiBracketFamily(
            basis, {2: {(0, 1): {2: ONE}, (0, 2): {0: ONE}, (1, 2): {1: ONE}}}
        )
        ok, witness = family_is_linfty(fam, 3)
        assert not ok and witness[0] == 3

    def test_cone_fixture_is_dg_lie(self):
        cone = cone_fixture()
        assert family_is_linfty(cone, 4) == (True, None)

    def test_cone_rejects_a_flipped_structure_constant(self):
        cone = cone_fixture()
        tables = {1: cone.ops[1], 2: {k: dict(v) for k, v in cone.ops[2].items()}}
        tables[2][(0, 1)] = {2: -ONE}
        broken = MultiBracketFamily(cone.basis, tables)
        assert not family_is_linfty(broken, 3)[0]

    def test_m2_residual_is_the_derivation_defect(self):
        # d{a, u} - {da, u} - sign_odd . {du, a}-style term, on the fixture
        fam = homotopy_fixture()
        partial = MultiBracketFamily(fam.basis, {1: fam.ops[1], 2: fam.ops[2]})
        for args in itertools.combinations_with_replacement(range(4), 2):
            assert linfty_residual(partial, 2, args) == {}

    def test_full_mode_inflates_blocks_by_symmetry_factor(self):
        cone = cone_fixture()
        for m in (2, 3):
            for args in itertools.combinations_with_replacement(range(6), m):
                sh = linfty_residual_blocks(cone, m, args, mode="shuffle")
                fl = linfty_residual_blocks(cone, m, args, mode="full")
                assert set(fl) <= set(sh) | set(fl)
                for (i, j) in set(sh) | set(fl):
                    scale = math.factorial(i) * math.factorial(j - 1)
                    scaled = {
                        k: scale * c for k, c in sh.get((i, j), {}).items()
                    }
                    assert scaled == fl.get((i, j), {})

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            linfty_residual_blocks(sl2_family(), 2, (0, 1), mode="sum")

    def test_argument_count_must_match(self):
        with pytest.raises(ValueError, match="argument"):
            linfty_residual(sl2_family(), 3, (0, 1))



def axiom_terms_per_selection(m, args, degrees, bracket, selections=shuffles):
    """The axiom's terms with the selections listed and ``sign_odd``
    evaluated afresh for every argument tuple: the literal loop."""
    if len(args) != m:
        raise ValueError(f"expected {m} arguments, got {len(args)}")
    for i in range(1, m + 1):
        j = m + 1 - i
        for sel in selections(i, j - 1):
            inner = bracket(i, tuple(args[k] for k in sel[:i]))
            if not inner:
                continue
            sign = sign_odd(degrees, sel)
            tail = tuple(args[k] for k in sel[i:])
            for v, c in inner.items():
                yield (i, j), sign * c, bracket(j, (v,) + tail)


def in_order(terms):
    """Each term with its value's keys in order and every scalar's type."""
    return [
        (block, repr(c), [(k, repr(x)) for k, x in outer.items()])
        for block, c, outer in terms
    ]


def random_family(seed):
    """Arities 1-3 on four generators of degrees in -1..1, random integral
    values of the right degree; no axiom is expected to hold."""
    rng = random.Random(seed)
    degrees = tuple(rng.choice((-1, 0, 1)) for _ in range(4))
    fam = MultiBracketFamily(GradedBasis(tuple("abcd"), degrees), {})
    for n in (1, 2, 3):
        for args in itertools.combinations_with_replacement(range(4), n):
            want = sum(degrees[a] for a in args) + 2 - n
            value = {t: rng.choice((-2, -1, 1, 3)) for t in range(4) if degrees[t] == want}
            if value and rng.random() < 0.6 and not any(
                a == b and degrees[a] % 2 == 0 for a, b in zip(args, args[1:])
            ):
                fam.add(n, args, value)
    return fam


class TestSelectionTable:
    @pytest.mark.parametrize("rule", [shuffles, all_orders], ids=["shuffle", "full"])
    def test_rows_carry_the_literal_sign(self, rule):
        for m in range(1, 6):
            for parities in itertools.product((0, 1), repeat=m):
                expected = [
                    (i, m + 1 - i, sel[:i], sel[i:], sign_odd(parities, sel))
                    for i in range(1, m + 1)
                    for sel in rule(i, m - i)
                ]
                assert list(_selection_table(m, parities, rule)) == expected
                assert all(
                    sign == sign_odd_direct(parities, head + tail)
                    for _, _, head, tail, sign in expected
                )

    @pytest.mark.parametrize("mode", ["shuffle", "full"])
    @pytest.mark.parametrize(
        "make",
        [cone_fixture, homotopy_fixture, three_generator_fixture]
        + [lambda seed=seed: random_family(seed) for seed in range(6)],
        ids=["cone", "homotopy", "three-generator"] + [f"random-{s}" for s in range(6)],
    )
    def test_terms_match_the_per_selection_loop(self, make, mode):
        fam = make()
        rule = shuffles if mode == "shuffle" else all_orders
        ngen = len(fam.basis.labels)
        for m in (1, 2, 3, 4):
            tuples = (
                itertools.product(range(ngen), repeat=m)
                if m <= 3
                else itertools.combinations_with_replacement(range(ngen), m)
            )
            for args in tuples:
                degrees = [fam.basis.degree(a) for a in args]
                got = _axiom_terms(m, args, degrees, fam.value, rule)
                want = axiom_terms_per_selection(m, args, degrees, fam.value, rule)
                assert in_order(got) == in_order(want), (m, args)

    @pytest.mark.parametrize("make", [cone_fixture, homotopy_fixture])
    def test_extended_terms_match_the_per_selection_loop(self, make):
        fam = make()
        ext = ExtendedFamily(fam, SuperSymAlgebra(fam.basis.degree, 3))
        ngen = len(fam.basis.labels)
        for m in (1, 2, 3):
            for others in itertools.combinations_with_replacement(range(ngen), m - 1):
                for word in itertools.combinations_with_replacement(range(ngen), 2):
                    args = (word,) + tuple((g,) for g in others)
                    degrees = [ext.algebra.degree(a) for a in args]
                    got = ext.axiom_terms(m, args)
                    want = axiom_terms_per_selection(m, args, degrees, ext.value)
                    assert in_order(got) == in_order(want), args

    def test_full_mode_reuses_its_tables(self):
        _selection_table.cache_clear()
        cone = cone_fixture()
        linfty_residual_blocks(cone, 3, (0, 3, 4), mode="full")
        before = _selection_table.cache_info()
        for _ in range(3):
            linfty_residual_blocks(cone, 3, (0, 3, 4), mode="full")
        after = _selection_table.cache_info()
        assert 0 < after.currsize == before.currsize < after.maxsize
        assert after.hits > before.hits


class TestSuperSymAlgebra:
    def test_even_generators_commute(self):
        alg = SuperSymAlgebra(GradedBasis(("a", "b"), (0, 0)).degree, 3)
        assert alg.mul({(1,): ONE}, {(0,): ONE}) == {(0, 1): ONE}

    def test_odd_generators_anticommute(self):
        alg = SuperSymAlgebra(GradedBasis(("u", "v"), (1, 1)).degree, 3)
        assert alg.mul({(1,): ONE}, {(0,): ONE}) == {(0, 1): -ONE}

    def test_odd_square_vanishes(self):
        alg = SuperSymAlgebra(GradedBasis(("u",), (1,)).degree, 3)
        assert alg.mul({(0,): ONE}, {(0,): ONE}) == {}

    def test_even_square_survives(self):
        alg = SuperSymAlgebra(GradedBasis(("a",), (0,)).degree, 3)
        assert alg.mul({(0,): ONE}, {(0,): ONE}) == {(0, 0): ONE}

    def test_cap_overflow_raises(self):
        alg = SuperSymAlgebra(GradedBasis(("a",), (0,)).degree, 2)
        with pytest.raises(TruncationOverflow):
            alg.mul_word((0, 0), (0,))

    def test_koszul_sign_of_a_longer_sort(self):
        alg = SuperSymAlgebra(GradedBasis(("u", "v", "w"), (1, 1, 1)).degree, 3)
        word, sign = alg.sort_word((2, 1, 0))
        assert word == (0, 1, 2) and sign == -1

    def test_kernel_and_sort_word_match_a_bubble_sort(self):
        # four generators of mixed parity, every word of length <= 5
        basis = GradedBasis(("a", "u", "b", "v"), (0, 1, -2, 3))
        alg = SuperSymAlgebra(basis.degree)
        odd = lambda g: basis.degree(g) % 2
        for length in range(6):
            for word in itertools.product(range(4), repeat=length):
                items, sign = bubble_koszul_sort(word, odd)
                assert koszul_sort(word, odd) == (items, sign), word
                repeated_odd = any(a == b and odd(a) for a, b in zip(items, items[1:]))
                expected = (None, 0) if repeated_odd else (items, sign)
                assert alg.sort_word(word) == expected, word


class TestExtension:
    def test_unary_extension_is_an_odd_derivation(self):
        # d(ab) = d(a) b + (-1)^{|a|} a d(b) on the cone's even generators
        cone = cone_fixture()
        alg = SuperSymAlgebra(cone.basis.degree, 3)
        ext = ExtendedFamily(cone, alg)
        out = ext.value(1, (alg.sort_word((3, 4))[0],))  # d(ye yf)
        # d(ye.yf) = xe.yf + (-1)^{|ye|} ye.xf = xe.yf - ye.xf; sorted words
        assert out == {(1, 3): -ONE, (0, 4): ONE}

    def test_unit_argument_gives_zero(self):
        cone = cone_fixture()
        ext = ExtendedFamily(cone, SuperSymAlgebra(cone.basis.degree, 3))
        assert ext.value(2, ((), (0,))) == {}

    def test_binary_extension_leibniz_in_last_slot(self):
        fam = sl2_family()
        alg = SuperSymAlgebra(fam.basis.degree, 3)
        ext = ExtendedFamily(fam, alg)
        # {e, f h} = {e, f} h + {e, h} f = h.h - 2 e.f
        assert ext.value(2, ((0,), (1, 2))) == {(2, 2): ONE, (0, 1): -TWO}

    def test_rotation_matches_direct_slot_rule(self):
        fam = sl2_family()
        alg = SuperSymAlgebra(fam.basis.degree, 3)
        ext = ExtendedFamily(fam, alg)
        # {f h, e} = -{e, f h} for three even generators
        forward = ext.value(2, ((0,), (1, 2)))
        rotated = ext.value(2, ((1, 2), (0,)))
        assert rotated == {k: -c for k, c in forward.items()}

    @pytest.mark.parametrize("make", [cone_fixture, homotopy_fixture])
    def test_in_place_split_matches_the_rotation(self, make):
        class Rotated(ExtendedFamily):
            """The skew-clause rule: rotate the product into the last slot."""

            def _compute(self, n, args):
                split = next((k for k, a in enumerate(args) if len(a) > 1), n - 1)
                if split == n - 1:
                    return super()._compute(n, args)
                sel = tuple(k for k in range(n) if k != split) + (split,)
                sign = sign_odd([self.algebra.degree(a) for a in args], sel)
                rotated = self.value(n, tuple(args[k] for k in sel))
                return {w: sign * c for w, c in rotated.items()}

        fam = make()
        alg = SuperSymAlgebra(fam.basis.degree, 3)
        in_place, rotated = ExtendedFamily(fam, alg), Rotated(fam, alg)
        ngen = len(fam.basis.labels)
        pairs = itertools.combinations_with_replacement(range(ngen), 2)
        words = [w for w in (alg.sort_word(p)[0] for p in pairs) if w]
        assert words
        for n in (1, 2, 3):
            for others in itertools.product(range(ngen), repeat=n - 1):
                for pos in range(n):
                    for word in words:
                        args = tuple((g,) for g in others)
                        args = args[:pos] + (word,) + args[pos:]
                        assert in_place.value(n, args) == rotated.value(n, args), args

    def test_extension_residual_vanishes_on_products(self):
        cone = cone_fixture()
        alg = SuperSymAlgebra(cone.basis.degree, 3)
        ext = ExtendedFamily(cone, alg)
        for pair in ((0, 3), (3, 4), (0, 1)):
            word, _ = alg.sort_word(pair)
            if word is None:
                continue
            for extra in range(6):
                assert ext.residual(2, (word, (extra,))) == {}



def mul_word_literal(alg, a, b):
    """The product of two words as a one-term vector, refused past the cap."""
    if alg.cap is not None and len(a) + len(b) > alg.cap:
        raise TruncationOverflow(f"product of words {a} and {b} leaves the cap")
    word, sign = alg.sort_word(a + b)
    return {} if word is None else {word: sign}


class MulRoute(ExtendedFamily):
    """The Leibniz step through ``sparse.structure_product`` on a one-term
    vector, the way ``SuperSymAlgebra.mul`` multiplies."""

    def _compute(self, n, args):
        if not all(args):
            return {}
        split = next((k for k, a in enumerate(args) if len(a) > 1), None)
        if split is None:
            base = self.fam.value(n, tuple(a[0] for a in args))
            return {(g,): c for g, c in base.items()}
        head, tail = args[:split], args[split + 1 :]
        x, y = args[split][:-1], args[split][-1:]
        dx, dy = self.algebra.degree(x), self.algebra.degree(y)
        s = sum(self.algebra.degree(a) + 1 for a in tail)
        total = {}
        for kept, moved, exponent in ((x, y, dy * s), (y, x, dx * (dy + s))):
            value = self.value(n, head + (kept,) + tail)
            term = structure_product(
                value, {moved: ONE}, lambda a, b: mul_word_literal(self.algebra, a, b)
            )
            sparse.accumulate(total, term.items(), -1 if exponent % 2 else 1)
        return sparse.purge(total)


def outcome(ext, n, args):
    """The value with its keys in order and scalar types, or the overflow."""
    try:
        return [(k, repr(c)) for k, c in ext.value(n, args).items()]
    except TruncationOverflow as exc:
        return f"overflow: {exc}"


class TestOneMonomialStep:
    @pytest.mark.parametrize("cap", [2, 3, 4])
    @pytest.mark.parametrize(
        "make", [sl2_family, cone_fixture, homotopy_fixture, three_generator_fixture]
    )
    def test_matches_the_mul_route(self, make, cap):
        fam = make()
        alg = SuperSymAlgebra(fam.basis.degree, cap)
        new, old = ExtendedFamily(fam, alg), MulRoute(fam, alg)
        ngen = len(fam.basis.labels)
        words = [
            word
            for size in (2, 3)
            for gens in itertools.combinations_with_replacement(range(ngen), size)
            for word in [alg.sort_word(gens)[0]]
            if word
        ]
        seen = set()
        for n in (1, 2, 3):
            for others in itertools.product(range(ngen), repeat=n - 1):
                for pos in range(n):
                    for word in words:
                        args = tuple((g,) for g in others)
                        args = args[:pos] + (word,) + args[pos:]
                        got, want = outcome(new, n, args), outcome(old, n, args)
                        assert got == want, args
                        seen.add("overflow" if isinstance(got, str) else bool(got))
        # only a three-letter word can leave cap 2; no value leaves cap 3
        assert True in seen and ("overflow" in seen) == (cap == 2)

    def test_cancelling_leibniz_terms(self):
        # {h, e f} = {h, e} f + {h, f} e = 2 e f - 2 e f
        fam = sl2_family()
        alg = SuperSymAlgebra(fam.basis.degree, 3)
        ext = ExtendedFamily(fam, alg)
        assert ext.value(2, ((2,), (0,))) == {(0,): TWO}
        assert ext.value(2, ((2,), (1,))) == {(1,): -TWO}
        assert ext.value(2, ((2,), (0, 1))) == {}
        assert MulRoute(fam, alg).value(2, ((2,), (0, 1))) == {}

    def test_formal_brackets_match_the_mul_route(self):
        for degs in itertools.product((0, 1), repeat=3):
            x, y, z = ((0, name, d) for name, d in zip("xyz", degs))
            alg = SuperSymAlgebra(_atom_degree)
            for fam in (FormalBrackets(), FormalBrackets(None)):
                new, old = ExtendedFamily(fam, alg), MulRoute(fam, alg)
                for args in (((x, y),), ((z,), (x, y)), ((x, y), (z,)), ((x, y, z), (x,))):
                    assert outcome(new, len(args), args) == outcome(old, len(args), args)


class TestCancellationAudit:
    def test_every_small_degree_pattern_closes(self):
        totals = {}
        for m in (1, 2, 3, 4):
            totals[m] = 0
            for degs in itertools.product((0, 1), repeat=m + 1):
                generated, surviving, ok = audit_cancellation(m, degs)
                assert ok, (m, degs)
                assert surviving == 0, (m, degs)
                totals[m] += generated
        assert totals == {1: 8, 2: 32, 3: 128, 4: 512}

    def test_pairs_pinned_per_degree_pattern(self):
        # recorded with the product rotated into the last slot: 2^m paired
        # product terms on every pattern, none surviving
        for m in (1, 2, 3, 4):
            for degs in itertools.product((0, 1), repeat=m + 1):
                assert audit_cancellation(m, degs) == (2 ** m, 0, True), degs

    def test_cross_terms_are_actually_generated(self):
        generated, surviving, ok = audit_cancellation(2, (0, 0, 0))
        assert generated > 0 and surviving == 0 and ok

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            audit_cancellation(2, (0, 0))

    def test_negative_degrees_give_no_float_coefficients(self, monkeypatch):
        # (-1) ** k is the float -1.0 for negative k; every sign must stay exact
        scalars = []
        accumulate = sparse.accumulate

        def spy(total, terms, scalar=None):
            scalars.append(scalar)
            accumulate(total, terms, scalar)

        monkeypatch.setattr(sparse, "accumulate", spy)
        for degs in ((-1, 1, 0), (1, -1, -2), (-1, -1, 1)):
            generated, surviving, ok = audit_cancellation(2, degs)
            assert ok and surviving == 0, degs
        assert product_extension_check(homotopy_fixture(), max_m=3, cap=3).passed
        used = [c for c in scalars if c is not None]
        assert used and all(type(c) in (int, Fraction) for c in used)


class TestSharedAudit:
    """The audit's degree patterns share one family of formal brackets."""

    PATTERNS = [
        (m, degs) for m in (1, 2, 3, 4) for degs in itertools.product((0, 1), repeat=m + 1)
    ]

    def test_a_shared_family_gives_every_pattern_its_own_result(self):
        for order in (self.PATTERNS, self.PATTERNS[::-1]):
            shared = _formal_extension()
            for m, degs in order:
                assert _audit_pattern(shared, m, degs) == audit_cancellation(m, degs), (m, degs)

    @pytest.mark.parametrize("max_m, generated", [(1, 8), (2, 40), (3, 168), (4, 680)])
    def test_report_totals_are_the_per_pattern_sums(self, max_m, generated):
        results = [audit_cancellation(m, degs) for m, degs in self.PATTERNS if m <= max_m]
        report = product_extension_check(homotopy_fixture(), max_m=max_m, cap=3)
        assert report.audit_cross_terms_generated == sum(r[0] for r in results) == generated
        assert report.audit_cross_terms_surviving == sum(r[1] for r in results) == 0
        assert report.checks[-1] == ExtensionCheck("formal Leibniz identity", True, None)

    def test_a_failing_family_gets_the_same_audit_lines(self):
        basis = GradedBasis(("e", "f", "h"), (0, 0, 0))
        broken = MultiBracketFamily(
            basis, {2: {(0, 1): {2: ONE}, (0, 2): {0: ONE}, (1, 2): {1: ONE}}}
        )

        def audit_lines(fam):
            lines = product_extension_check(fam, max_m=3, cap=3).lines()
            return [line for line in lines if line.startswith(("formal", "cancellation"))]

        assert audit_lines(broken) == audit_lines(homotopy_fixture()) == [
            "formal Leibniz identity: PASS",
            "cancellation audit: 168 paired product terms generated, 0 survive collection",
        ]


class TestHomotopyFixture:
    def test_partial_family_fails_m3_on_the_nose(self):
        fam = homotopy_fixture()
        partial = MultiBracketFamily(fam.basis, {1: fam.ops[1], 2: fam.ops[2]})
        assert family_is_linfty(partial, 2) == (True, None)
        ok, witness = family_is_linfty(partial, 3)
        assert not ok and witness == (3, (0, 1, 2))

    def test_completed_family_passes_through_m4(self):
        assert family_is_linfty(homotopy_fixture(), 4) == (True, None)

    def test_ternary_correction_is_nonzero_and_deterministic(self):
        one = homotopy_fixture()
        two = homotopy_fixture()
        assert one.ops[3] and one.ops == two.ops

    def test_solver_refuses_an_inexact_defect(self):
        basis = GradedBasis(("e", "f", "h"), (0, 0, 0))
        bad = {(0, 1): {2: ONE}, (0, 2): {0: ONE}, (1, 2): {1: ONE}}
        assert solve_homotopy_bracket(basis, {}, bad) is None

    def test_solver_adds_nothing_to_a_dgla(self):
        cone = cone_fixture()
        solved = solve_homotopy_bracket(cone.basis, cone.ops[1], cone.ops[2])
        assert solved is not None and solved.ops == cone.ops

    def test_solver_reproduces_a_known_correction(self):
        fam = homotopy_fixture()
        solved = solve_homotopy_bracket(fam.basis, fam.ops[1], fam.ops[2])
        assert solved is not None and solved.ops[3] == fam.ops[3]

    def test_solved_fixtures_dump_to_pinned_text(self):
        assert io.dump_linfty_family(homotopy_fixture()) == (
            "ybalg schema/1 linfty-family\n"
            "labels: a b u v\n"
            "degrees: 0 0 1 1\n"
            "op 1: 0 -> 2:1\n"
            "op 1: 1 -> 3:1\n"
            "op 2: 0,2 -> 2:-1 3:-1\n"
            "op 2: 1,3 -> 3:-1\n"
            "op 3: 0,2,3 -> 3:1\n"
        )
        assert io.dump_linfty_family(three_generator_fixture()) == (
            "ybalg schema/1 linfty-family\n"
            "labels: a b u\n"
            "degrees: 0 0 1\n"
            "op 1: 0 -> 2:1\n"
            "op 1: 1 -> 2:1\n"
            "op 2: 0,1 -> 0:1\n"
            "op 2: 0,2 -> 2:1\n"
            "op 3: 0,1,2 -> 1:-1\n"
        )

    def test_three_generator_fixture_has_all_three_operations(self):
        fam = three_generator_fixture()
        assert len(fam.basis.labels) == 3
        assert fam.arities() == [1, 2, 3]
        assert all(fam.ops[n] for n in (1, 2, 3))
        assert family_is_linfty(fam, 4) == (True, None)
        # the binary bracket alone is not a differential graded Lie algebra
        partial = MultiBracketFamily(fam.basis, {1: fam.ops[1], 2: fam.ops[2]})
        ok, witness = family_is_linfty(partial, 3)
        assert not ok and witness is not None


class TestProductExtensionCheck:
    @pytest.mark.parametrize(
        "make", [sl2_family, cone_fixture, homotopy_fixture], ids=["sl2", "cone", "homotopy"]
    )
    def test_passes_on_honest_families(self, make):
        report = product_extension_check(make(), max_m=3, cap=3)
        assert report.passed
        assert report.audit_cross_terms_generated > 0
        assert report.audit_cross_terms_surviving == 0
        assert any(line.endswith("PASS") for line in report.lines())

    def test_fails_on_a_broken_family(self):
        basis = GradedBasis(("e", "f", "h"), (0, 0, 0))
        fam = MultiBracketFamily(
            basis, {2: {(0, 1): {2: ONE}, (0, 2): {0: ONE}, (1, 2): {1: ONE}}}
        )
        report = product_extension_check(fam, max_m=3, cap=3)
        assert not report.passed
        assert report.checks[0].witness is not None

    @pytest.mark.parametrize("max_m, skipped", [(2, 15), (3, 48), (4, 105)])
    def test_a_pass_counts_every_tuple_beyond_the_cap(self, max_m, skipped):
        # at cap 1 every product argument leaves the cap, so the products
        # check passes on the broken family with all its tuples skipped
        basis = GradedBasis(("e", "f", "h"), (0, 0, 0))
        fam = MultiBracketFamily(
            basis, {2: {(0, 1): {2: ONE}, (0, 2): {0: ONE}, (1, 2): {1: ONE}}}
        )
        check = product_extension_check(fam, max_m=max_m, cap=1).checks[1]
        assert (check.passed, check.witness, check.skipped) == (True, None, skipped)
        assert check.line() == (
            f"axioms on products of two generators: PASS ({skipped} tuples beyond the cap skipped)"
        )

    def test_report_lists_conventions(self):
        report = product_extension_check(sl2_family(), max_m=2, cap=2)
        listed = dict(report.conventions)
        assert listed == CONVENTIONS
        assert any("convention axiom" in line for line in report.lines())
