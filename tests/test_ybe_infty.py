"""Infinity-residuals for both Yang-Baxter flavours and n-ary double brackets."""

import itertools
import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybalg import double, fixtures, sparse, ybe
from ybalg.algebras import (
    Quiver,
    TruncatedAlgebra,
    TruncationOverflow,
    double_quiver,
    first_failure,
    free_algebra,
    path_algebra,
    scan,
)
from ybalg.linfty import all_orders, shuffles, sign_odd
from ybalg.tensoralg import TensorMap, columns, embed_components, word_permute, words
from infty_helpers import (
    abelian_lie,
    assoc_pair_product,
    cybe_infty_sum,
    matrix_element_to_map,
    matrix_map_to_element,
    scalar_algebra,
)
from ybalg.ybe_infty import (
    InftyReport,
    LieStructure,
    RnFamily,
    _pair_product,
    aybe_infty_residual,
    aybe_infty_sum,
    classical_aybe_element,
    classical_cybe_element,
    cybe_infty_residual,
    cyclic_selections,
    double_leibniz_defects,
    gl_lie,
    jacobi_infty_check,
    jacobi_infty_residual,
    lie_pair_bracket,
    matrix_algebra,
    skew_clause_defects,
)


def commutator(f: TensorMap, g: TensorMap) -> TensorMap:
    return f.compose(g) - g.compose(f)


ONE = Fraction(1)


def random_element(rng, dim, length, entries=5, lo=-3, hi=3):
    out = {}
    for _ in range(entries):
        w = tuple(rng.randrange(dim) for _ in range(length))
        out[w] = out.get(w, Fraction(0)) + Fraction(rng.randint(lo, hi))
    return {w: c for w, c in out.items() if c}


def super_heisenberg():
    # one odd generator squaring onto a central even element
    return LieStructure(("th", "h"), {(0, 0): {1: ONE}}, degrees=(1, 2))


def odd_pair_structure():
    # [th, ps] = [ps, th] = z with th odd, ps odd of negative degree
    return LieStructure(
        ("th", "ps", "z"),
        {(0, 1): {2: ONE}, (1, 0): {2: ONE}},
        degrees=(1, -1, 0),
    )


def zero_product_algebra(nletters, degrees=None):
    labels = [f"x{k}" for k in range(nletters)]
    return TruncatedAlgebra(
        labels,
        list(degrees) if degrees is not None else [0] * nletters,
        {},
        {},
        mode="quotient",
        cap=0,
    )


def letter_generator_values(alg, r):
    lidx = [alg.index(f"x{k}") for k in range(r.dim)]
    values = {}
    for (out_pair, in_pair), c in r.entries.items():
        key = (lidx[in_pair[0]], lidx[in_pair[1]])
        values.setdefault(key, {})[(lidx[out_pair[0]], lidx[out_pair[1]])] = c
    return values


def interleave_reference(resolve, degrees, x, slots_x, y, slots_y, n):
    """Independent oracle for the pair product: an insertion sort of the
    ``(slot, letter)`` factors by slot alone, flipping the sign at each swap
    of two odd letters, then the letters grouped slot by slot."""
    total = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            seq = [(s, wx[t]) for t, s in enumerate(slots_x)]
            seq += [(s, wy[t]) for t, s in enumerate(slots_y)]
            sign = 1
            for top in range(1, len(seq)):
                pos = top
                while pos > 0 and seq[pos - 1][0] > seq[pos][0]:
                    if (degrees[seq[pos - 1][1]] * degrees[seq[pos][1]]) % 2:
                        sign = -sign
                    seq[pos - 1], seq[pos] = seq[pos], seq[pos - 1]
                    pos -= 1
            per_slot = {}
            for slot, letter in seq:
                per_slot.setdefault(slot, []).append(letter)
            choices = []
            for slot in range(n):
                letters = per_slot[slot]
                if len(letters) == 1:
                    choices.append([(letters[0], ONE)])
                else:
                    choices.append(sorted(resolve(letters[0], letters[1]).items()))
            for combo in itertools.product(*choices):
                coeff = sign * cx * cy
                for _, c in combo:
                    coeff *= c
                word = tuple(k for k, _ in combo)
                total[word] = total.get(word, 0) + coeff
    return {w: c for w, c in total.items() if c}


class TestLieStructure:
    @pytest.mark.parametrize("size", [2, 3])
    def test_gl_passes(self, size):
        assert gl_lie(size).defects() == []

    def test_abelian_with_degrees_passes(self):
        assert abelian_lie(4, degrees=(1, 0, -1, 2)).defects() == []

    def test_super_heisenberg_passes(self):
        assert super_heisenberg().defects() == []
        assert odd_pair_structure().defects() == []

    def test_antisymmetry_violation_found(self):
        g = LieStructure(("x", "y", "z"), {(0, 1): {2: ONE}, (1, 0): {2: ONE}})
        assert any("antisymmetry" in d for d in g.defects())

    def test_jacobi_violation_found(self):
        table = {
            (0, 1): {2: ONE},
            (1, 0): {2: -ONE},
            (2, 0): {0: ONE},
            (0, 2): {0: -ONE},
            (2, 1): {1: ONE},
            (1, 2): {1: -ONE},
        }
        g = LieStructure(("e", "f", "h"), table)
        assert any("Jacobi" in d for d in g.defects())

    def test_homogeneity_violation_found(self):
        g = LieStructure(
            ("x", "y"), {(0, 1): {0: ONE}, (1, 0): {0: -ONE}}, degrees=(0, 1)
        )
        assert any("homogeneous" in d for d in g.defects())

    def test_require_lie_raises(self):
        g = LieStructure(("x",), {(0, 0): {0: ONE}})
        with pytest.raises(ValueError, match="not a graded Lie algebra"):
            g.require_lie()

    def test_bracket_is_bilinear(self):
        g = gl_lie(2)
        x = {0: Fraction(2), 1: Fraction(-1)}
        y = {2: Fraction(3)}
        lhs = g.bracket(x, y)
        rhs = {}
        for i, ci in x.items():
            for k, c in g.bracket({i: ONE}, y).items():
                rhs[k] = rhs.get(k, Fraction(0)) + ci * c
        assert lhs == {k: c for k, c in rhs.items() if c}


class TestRnFamily:
    def test_zero_degrees_force_binary_only(self):
        with pytest.raises(ValueError, match="expected -1"):
            RnFamily(2, {3: {(0, 0, 1): ONE}})

    def test_binary_component_accepted_and_purged(self):
        fam = RnFamily(2, {2: {(0, 1): ONE, (1, 0): Fraction(0)}})
        assert fam.arities == (2,)
        assert fam.component(2) == {(0, 1): ONE}

    def test_graded_components_must_match_degrees(self):
        fam = RnFamily(2, {1: {(0,): ONE}}, degrees=(1, 2))
        assert fam.arities == (1,)
        with pytest.raises(ValueError, match="expected 1"):
            RnFamily(2, {1: {(1,): ONE}}, degrees=(1, 2))

    def test_word_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            RnFamily(2, {2: {(0, 1, 1): ONE}})

    def test_letter_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            RnFamily(2, {2: {(0, 5): ONE}})

    def test_arity_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            RnFamily(2, {0: {(): ONE}})

    def test_component_returns_copy(self):
        fam = RnFamily(2, {2: {(0, 1): ONE}})
        fam.component(2)[(1, 1)] = ONE
        assert fam.component(2) == {(0, 1): ONE}


class TestPairOperations:
    def test_shared_slot_product_hand_case(self):
        A = matrix_algebra(2)
        e11, e12, e21 = 0, 1, 2
        x = {(e12, e21): ONE}
        y = {(e21, e11): ONE}
        got = assoc_pair_product(A, x, (0, 1), y, (0, 2), 3)
        assert got == {(e11, e21, e11): ONE}

    def test_disjoint_slots_give_plain_embedding(self):
        A = matrix_algebra(2)
        x = {(1,): Fraction(2)}
        y = {(2, 3): Fraction(3)}
        got = assoc_pair_product(A, x, (1,), y, (0, 2), 3)
        assert got == {(2, 1, 3): Fraction(6)}

    def test_lie_pair_requires_one_shared_slot(self):
        g = gl_lie(2)
        with pytest.raises(ValueError, match="share exactly one"):
            lie_pair_bracket(g, {(0,): ONE}, (0,), {(1,): ONE}, (1,), 2)

    def test_coverage_required(self):
        A = matrix_algebra(2)
        with pytest.raises(ValueError, match="cover"):
            assoc_pair_product(A, {(0, 1): ONE}, (0, 1), {(0,): ONE}, (1,), 3)

    def test_at_most_two_factors_per_slot(self):
        A = matrix_algebra(2)
        with pytest.raises(ValueError, match="at most two"):
            assoc_pair_product(A, {(0,): ONE}, (0,), {(0, 0): ONE}, (0, 0), 1)

    def test_koszul_sign_of_disjoint_interleaving(self):
        # x = th in slot 3 crosses both factors of y = th (x) ps: two odd
        # crossings cancel
        A = zero_product_algebra(2, degrees=(1, 1))
        got = assoc_pair_product(
            A, {(0,): ONE}, (2,), {(0, 1): ONE}, (0, 1), 3, super_degrees=(1, 1)
        )
        assert got == {(0, 1, 0): ONE}
        # x = th in slot 2 crosses one odd factor: one sign
        got = assoc_pair_product(
            A, {(0,): ONE}, (1,), {(1,): ONE}, (0,), 2, super_degrees=(1, 1)
        )
        assert got == {(1, 0): -ONE}

    def test_graded_pair_antisymmetry(self):
        g = odd_pair_structure()
        rng = random.Random(5)
        for _ in range(60):
            wx = tuple(rng.randrange(3) for _ in range(2))
            wy = tuple(rng.randrange(3) for _ in range(2))
            x = {wx: Fraction(rng.randint(1, 3))}
            y = {wy: Fraction(rng.randint(1, 3))}
            lhs = lie_pair_bracket(g, x, (1, 2), y, (1, 0), 3)
            rhs = lie_pair_bracket(g, y, (1, 0), x, (1, 2), 3)
            px = sum(g.degrees[k] for k in wx)
            py = sum(g.degrees[k] for k in wy)
            sign = 1 if (px * py) % 2 else -1
            assert lhs == {w: sign * c for w, c in rhs.items()}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pair_product_matches_the_interleave_reference(self, n):
        # gl(1|1) matrix units (e12 and e21 odd) and a Lie structure with
        # odd generators of positive and negative degree
        A = matrix_algebra(2)
        g = odd_pair_structure()
        cases = [(A.mul_basis, (0, 1, 1, 0), 4), (g.bracket_basis, g.degrees, 3)]
        rng = random.Random(40 + n)
        for resolve, degrees, dim in cases:
            for sel in itertools.permutations(range(n)):
                for i in range(1, n + 1):
                    slots_x, slots_y = sel[:i], (sel[0],) + sel[i:]
                    x = random_element(rng, dim, len(slots_x), lo=-4, hi=4)
                    y = random_element(rng, dim, len(slots_y), lo=-4, hi=4)
                    x = {w: c / rng.randint(1, 3) for w, c in x.items()}
                    got = _pair_product(resolve, degrees, x, slots_x, y, slots_y, n)
                    want = interleave_reference(resolve, degrees, x, slots_x, y, slots_y, n)
                    assert got == want, (sel, i)
            # disjoint slots: a plain Koszul interleaving
            for slots_x in itertools.combinations(range(n), n // 2):
                slots_y = tuple(k for k in range(n) if k not in slots_x)
                x = random_element(rng, dim, len(slots_x))
                y = random_element(rng, dim, len(slots_y))
                got = _pair_product(resolve, degrees, x, slots_x, y, slots_y, n)
                assert got == interleave_reference(resolve, degrees, x, slots_x, y, slots_y, n)


class TestSelections:
    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
    def test_shuffle_counts(self, i, j):
        assert len(shuffles(i, j)) == math.comb(i + j, i)

    def test_shuffle_shapes(self):
        assert shuffles(2, 1) == [(0, 1, 2), (0, 2, 1), (1, 2, 0)]
        # the shuffle reading's selections increase on head and tail, in this order
        for n in range(1, 6):
            for i in range(1, n + 1):
                assert shuffles(i, n - i) == [
                    p for p in itertools.permutations(range(n))
                    if list(p[:i]) == sorted(p[:i]) and list(p[i:]) == sorted(p[i:])
                ]

    def test_full_selections(self):
        # the literal reading takes all of S_n, in this order, whatever the split
        for n in range(1, 6):
            for i in range(1, n + 1):
                assert list(all_orders(i, n - i)) == [
                    tuple(p) for p in itertools.permutations(range(n))
                ]

    def test_cyclic_selections(self):
        assert cyclic_selections(3) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


class TestCybeInfty:
    def test_residual_checks_the_algebra_once(self, monkeypatch):
        g = gl_lie(2)
        calls = []
        monkeypatch.setattr(g, "require_lie", lambda: calls.append(1))
        fam = RnFamily(4, {2: {(1, 1): ONE}})
        assert cybe_infty_residual(g, fam, 3).passed
        assert len(calls) == 1

    def test_shuffle_reading_reduces_to_single_bracket(self):
        g = gl_lie(2)
        rng = random.Random(11)
        for _ in range(25):
            r2 = random_element(rng, 4, 2)
            fam = RnFamily(4, {2: r2})
            total = cybe_infty_sum(g, fam, 3, "shuffle")
            single = lie_pair_bracket(g, r2, (1, 2), r2, (1, 0), 3)
            assert total == single

    def test_literal_reading_degenerates_at_three(self):
        g = gl_lie(2)
        rng = random.Random(13)
        for _ in range(25):
            fam = RnFamily(4, {2: random_element(rng, 4, 2)})
            assert cybe_infty_sum(g, fam, 3, "literal") == {}

    def test_residual_matches_map_commutator(self):
        g = gl_lie(2)
        rng = random.Random(17)
        for _ in range(15):
            r2 = random_element(rng, 4, 2)
            total = cybe_infty_sum(g, RnFamily(4, {2: r2}), 3, "shuffle")
            rmap = matrix_element_to_map(r2, 2, 2)
            want = commutator(
                embed_components(rmap, (2, 3), 3), embed_components(rmap, (2, 1), 3)
            )
            assert (matrix_element_to_map(total, 2, 3) - want).is_zero()

    def test_classical_element_matches_map_residual(self):
        g = gl_lie(2)
        rng = random.Random(19)
        for _ in range(15):
            r2 = random_element(rng, 4, 2)
            element = classical_cybe_element(g, r2)
            rmap = matrix_element_to_map(r2, 2, 2)
            got = matrix_element_to_map(element, 2, 3)
            assert (got - ybe.cybe_residual(rmap)).is_zero()

    def test_nilpotent_square_solution_passes(self):
        g = gl_lie(2)
        e12 = 1
        report = cybe_infty_residual(g, RnFamily(4, {2: {(e12, e12): ONE}}), 3)
        assert report.passed
        assert all(reading.zero for reading in report.readings)

    def test_abelian_any_family_is_zero(self):
        g = abelian_lie(3, degrees=(1, 0, -1))
        fam = RnFamily(
            3,
            {1: {(0,): ONE}, 2: {(1, 1): Fraction(2)}, 3: {(2, 1, 1): Fraction(4)}},
            degrees=(1, 0, -1),
        )
        for n in range(1, 5):
            assert cybe_infty_sum(g, fam, n) == {}

    def test_arity_one_equation_is_self_bracket(self):
        g = super_heisenberg()
        fam = RnFamily(2, {1: {(0,): ONE}}, degrees=(1, 2))
        assert cybe_infty_sum(g, fam, 1) == {(1,): -ONE}

    def test_mixed_arity_hand_expansion(self):
        # [x, th] = u with th, u odd: the n=2 residual couples r_1 and r_2
        g = LieStructure(
            ("th", "x", "u"),
            {(1, 0): {2: ONE}, (0, 1): {2: -ONE}},
            degrees=(1, 0, 1),
        )
        assert g.defects() == []
        fam = RnFamily(3, {1: {(0,): ONE}, 2: {(1, 1): ONE}}, degrees=(1, 0, 1))
        assert cybe_infty_sum(g, fam, 2) == {(2, 1): Fraction(2), (1, 2): ONE}

    def test_non_lie_structure_rejected(self):
        bad = LieStructure(("x",), {(0, 0): {0: ONE}})
        fam = RnFamily(1, {2: {(0, 0): ONE}})
        with pytest.raises(ValueError, match="not a graded Lie"):
            cybe_infty_sum(bad, fam, 3)

    def test_family_structure_mismatch_rejected(self):
        g = gl_lie(2)
        with pytest.raises(ValueError, match="does not match"):
            cybe_infty_sum(g, RnFamily(2, {2: {(0, 1): ONE}}), 3)

    def test_report_lines_deterministic(self):
        g = gl_lie(2)
        r_forward = {(1, 2): ONE, (2, 1): -ONE}
        r_reverse = dict(reversed(list(r_forward.items())))
        lines_a = cybe_infty_residual(g, RnFamily(4, {2: r_forward}), 3).lines()
        lines_b = cybe_infty_residual(g, RnFamily(4, {2: r_reverse}), 3).lines()
        assert lines_a == lines_b
        assert any("reading shuffle" in line for line in lines_a)
        assert any("reading literal" in line for line in lines_a)

    def test_literal_flag_governs_verdict(self):
        g = gl_lie(2)
        fam = RnFamily(4, {2: {(1, 2): ONE, (2, 1): -ONE}})
        default = cybe_infty_residual(g, fam, 3)
        literal = cybe_infty_residual(g, fam, 3, literal_shuffles=True)
        assert not default.passed  # [r23, r21] is nonzero for this r
        assert literal.passed  # the literal reading cancels identically


class TestAybeInfty:
    @given(
        st.fractions(
            min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
        )
    )
    @settings(max_examples=40)
    def test_scalar_oracle(self, c):
        fam = RnFamily(1, {2: {(0, 0): c}} if c else {})
        total = aybe_infty_sum(scalar_algebra(), fam, 3)
        assert total == ({(0, 0, 0): 3 * c * c} if c else {})

    def test_flip_element_residual(self):
        A = matrix_algebra(2)
        flip = {(a * 2 + b, b * 2 + a): ONE for a in range(2) for b in range(2)}
        report = aybe_infty_residual(A, RnFamily(4, {2: flip}), 3)
        assert not report.passed
        terms = dict(report.readings[0].terms)
        assert terms[(0, 0, 0)] == Fraction(3)

    def test_nilpotent_square_solution_passes(self):
        A = matrix_algebra(2)
        e12 = 1
        report = aybe_infty_residual(A, RnFamily(4, {2: {(e12, e12): ONE}}), 3)
        assert report.passed

    def test_classical_element_matches_map_residual(self):
        A = matrix_algebra(2)
        rng = random.Random(23)
        for _ in range(15):
            r2 = random_element(rng, 4, 2)
            element = classical_aybe_element(A, r2)
            rmap = matrix_element_to_map(r2, 2, 2)
            got = matrix_element_to_map(element, 2, 3)
            assert (got - ybe.aybe_residual(rmap)).is_zero()

    def test_dictionary_round_trip(self):
        rng = random.Random(29)
        r2 = random_element(rng, 4, 2)
        rmap = matrix_element_to_map(r2, 2, 2)
        assert matrix_map_to_element(rmap, 2) == r2

    def test_non_associative_rejected(self):
        bad = TruncatedAlgebra(
            ["a", "b"],
            [0, 0],
            {(0, 0): {1: ONE}, (0, 1): {0: ONE}},
            {},
            mode="quotient",
            cap=0,
        )
        fam = RnFamily(2, {2: {(0, 0): ONE}})
        with pytest.raises(ValueError, match="not associative"):
            aybe_infty_sum(bad, fam, 3)

    def test_window_overflow_propagates(self):
        F = free_algebra(2, cap=1, mode="window")
        x0 = F.index("x0")
        fam = RnFamily(F.nbasis, {2: {(x0, x0): ONE}})
        with pytest.raises(TruncationOverflow):
            aybe_infty_sum(F, fam, 3)

    def test_window_overflow_in_the_report_is_an_input_error(self):
        F = free_algebra(2, cap=1, mode="window")
        one, x0 = F.index("1"), F.index("x0")
        # (x0, x0) overflows in the residual; (1, x0) only in the n=3 classical note
        for word in ((x0, x0), (one, x0)):
            fam = RnFamily(F.nbasis, {2: {word: ONE}})
            with pytest.raises(ValueError, match=r"product x0 \* x0 leaves the window"):
                aybe_infty_residual(F, fam, 3)
        # the residual alone stays inside the window
        assert aybe_infty_sum(F, RnFamily(F.nbasis, {2: {(one, x0): ONE}}), 3)

    def test_graded_arity_one_is_negated_square(self):
        F = free_algebra(2, cap=2, mode="window")
        lengths = tuple(F.degrees)
        x0 = F.index("x0")
        fam = RnFamily(F.nbasis, {1: {(x0,): ONE}}, degrees=lengths)
        total = aybe_infty_sum(F, fam, 1)
        assert total == {(F.index("x0x0"),): -ONE}


class TestClassicalEqual:
    def test_suite_family_agrees_on_both_flavours(self):
        fam = RnFamily(4, {2: {(1, 1): ONE}})
        assert cybe_infty_residual(gl_lie(2), fam, 3).classical_equal is True
        assert aybe_infty_residual(matrix_algebra(2), fam, 3).classical_equal is True

    def test_disagreeing_family_on_both_flavours(self):
        fam = RnFamily(4, {2: {(0, 1): ONE}})
        for report in (
            cybe_infty_residual(gl_lie(2), fam, 3),
            aybe_infty_residual(matrix_algebra(2), fam, 3),
        ):
            assert report.classical_equal is False
            assert report.notes[-1].endswith("equals the classical sum: False")

    def test_none_away_from_n_three(self):
        fam = RnFamily(4, {2: {(1, 1): ONE}})
        assert cybe_infty_residual(gl_lie(2), fam, 4).classical_equal is None
        assert aybe_infty_residual(matrix_algebra(2), fam, 2).classical_equal is None


class TestJacobiInfty:
    def _skew_pairs(self):
        solutions, non_solutions = fixtures.search_skew_solutions("aybe", 2)
        return solutions, non_solutions

    def test_double_lie_brackets_have_zero_residual(self):
        solutions, _ = self._skew_pairs()
        A = zero_product_algebra(2)
        for r in solutions:
            residual = jacobi_infty_residual({2: r}, A, 3)
            assert residual.is_zero()

    def test_skew_non_solutions_have_nonzero_residual(self):
        _, non_solutions = self._skew_pairs()
        A = zero_product_algebra(2)
        for r in non_solutions[:12]:
            assert not jacobi_infty_residual({2: r}, A, 3).is_zero()

    def test_residual_is_transposed_associative_residual(self):
        # for a skew binary bracket the cyclic sum is the three-slot
        # associative residual conjugated by a transposition
        solutions, non_solutions = self._skew_pairs()
        A = zero_product_algebra(2)
        for r in solutions[:4] + non_solutions[:12]:
            got = jacobi_infty_residual({2: r}, A, 3)
            want = ybe.aybe_residual(r).conjugate_by_perm((0, 2, 1))
            assert (got - want).is_zero()

    def test_free_algebra_extension_passes_full_check(self):
        solutions, _ = self._skew_pairs()
        alg = free_algebra(2, cap=1, mode="window")
        bracket = double.extend_by_derivations(
            alg, letter_generator_values(alg, solutions[1])
        )
        report = jacobi_infty_check({2: bracket.as_tensor_map()}, alg, 3)
        assert report.skew_ok
        assert report.residual_zero is True
        assert not report.leibniz_defects
        assert report.passed

    def test_symplectic_necklace_bracket_passes(self):
        bracket = double.two_cycle_symplectic_bracket(cap=2)
        fam = {2: bracket.as_tensor_map()}
        report = jacobi_infty_check(fam, bracket.algebra, 3)
        assert report.passed
        assert report.leibniz_skipped > 0  # window-edge products are skipped

    def test_binary_only_family_trivial_at_higher_arity(self):
        bracket = double.two_cycle_symplectic_bracket(cap=2)
        fam = {2: bracket.as_tensor_map()}
        assert jacobi_infty_residual(fam, bracket.algebra, 4).is_zero()

    def test_skew_violation_reported_before_residual(self):
        A = zero_product_algebra(3)
        bad = TensorMap(3, 2, 2, {((1, 2), (1, 1)): ONE})
        report = jacobi_infty_check({2: bad}, A, 3)
        assert not report.skew_ok
        assert report.residual_zero is None
        assert any("skipped (skew" in line for line in report.lines())

    def test_arity_mismatch_rejected(self):
        A = zero_product_algebra(2)
        with pytest.raises(ValueError, match="arity mismatch"):
            jacobi_infty_residual({3: TensorMap.zero(2, 2, 2)}, A, 3)
        with pytest.raises(ValueError, match="arity mismatch"):
            jacobi_infty_residual({2: TensorMap.zero(5, 2, 2)}, A, 3)

    def test_degree_homogeneity_enforced(self):
        A = zero_product_algebra(2)
        d = TensorMap(2, 1, 1, {((0,), (1,)): ONE})
        with pytest.raises(ValueError, match="homogeneous"):
            jacobi_infty_residual({1: d}, A, 1)

    def test_arity_one_equation_is_squared_differential(self):
        A = zero_product_algebra(3, degrees=(0, 1, 2))
        degs = (0, 1, 2)
        a, u, v = 0, 1, 2
        flat = TensorMap(3, 1, 1, {((u,), (a,)): ONE})
        assert jacobi_infty_residual({1: flat}, A, 1, super_degrees=degs).is_zero()
        chained = TensorMap(3, 1, 1, {((u,), (a,)): ONE, ((v,), (u,)): ONE})
        residual = jacobi_infty_residual({1: chained}, A, 1, super_degrees=degs)
        assert residual.entries == {((v,), (a,)): -ONE}

    def test_skew_clause_needs_one_degree_per_letter(self):
        sym = TensorMap(2, 2, 2, {((0, 1), (0, 1)): ONE})
        with pytest.raises(ValueError, match="one degree per basis element"):
            skew_clause_defects({2: sym}, super_degrees=(1,))

    def test_skew_clause_defect_location(self):
        sym = TensorMap(2, 2, 2, {((0, 1), (0, 1)): ONE, ((0, 1), (1, 0)): ONE})
        defects = skew_clause_defects({2: sym})
        assert defects and "swap (1 2)" in defects[0]

    def test_leibniz_detects_broken_product_rule(self):
        # the zero bracket trivially satisfies leibniz; a bracket that is
        # nonzero on a product but zero on its factors cannot
        A = matrix_algebra(2)
        e11 = 0
        b = TensorMap(4, 2, 2, {((e11, e11), (e11, e11)): ONE})
        defects, skipped = double_leibniz_defects({2: b}, A)
        assert skipped == 0
        assert defects

    def test_report_lines_on_the_symplectic_window(self):
        # the whole report, skip counts included, for the bracket and for
        # its map with one entry added
        bracket = double.two_cycle_symplectic_bracket(cap=2)
        r = bracket.as_tensor_map()
        perturbed = r + TensorMap(r.dim, 2, 2, {((2, 3), (3, 2)): 1})
        head = ["check: double-jacobi-infty", "n: 3", "alphabet: 6", "arities: 2"]
        conventions = [
            "convention cyclic sum: rotations of range(n) with sign (-1)^i sign_odd",
            "convention skew clause: permuted arguments and output slots cost the odd"
            " Koszul sign; the ungraded binary case is the usual minus",
            "convention leibniz sign: second term read as (-1)^(arity * |y|); the source"
            " display leaves the exponent unclosed",
        ]
        assert jacobi_infty_check({2: r}, bracket.algebra, 3).lines() == head + [
            "skew-symmetry clause: holds",
            "residual zero: True",
            "double-leibniz clause: holds (36 products outside the window skipped)",
            "result: PASS",
        ] + conventions
        assert jacobi_infty_check({2: perturbed}, bracket.algebra, 3).lines() == head + [
            "skew-symmetry clause: FAILS",
            "  arity 2: swap (1 2) fails on word (2,3)",
            "residual: skipped (skew-symmetry clause failed)",
            "double-leibniz clause: FAILS (37 products outside the window skipped)",
            "  arity 2: leibniz fails at args=(a*), x=a, y=e_1",
            "  arity 2: leibniz fails at args=(a*), x=a, y=e_2",
            "  arity 2: leibniz fails at args=(a*), x=a, y=a",
            "result: FAIL",
        ] + conventions

    def test_report_lines_deterministic(self):
        bracket = double.two_cycle_symplectic_bracket(cap=2)
        fam = {2: bracket.as_tensor_map()}
        first = jacobi_infty_check(fam, bracket.algebra, 3).lines()
        second = jacobi_infty_check(fam, bracket.algebra, 3).lines()
        assert first == second


# ---------------------------------------------------------------------------
# the shared clauses against the n-ary defects they replaced: each reads
# the bracket word by word through ``TensorMap.apply_word``


def _ref_skew_word(b, degs, tau, *w):
    permuted = b.apply_word(word_permute(tau, w))
    lhs = {word_permute(tau, v): c for v, c in permuted.items()}
    sign = sign_odd(tuple(degs[k] for k in w), tau)
    return lhs != sparse.scale(b.apply_word(w), sign)


def _ref_leibniz_word(algebra, degs, b, args, x, y):
    arity = len(args) + 1
    arg_deg = sum(degs[k] for k in args)
    # lhs minus the left and right terms, in one total
    diff = {}
    for p, cp in sorted(algebra.mul_basis(x, y).items()):
        sparse.accumulate(diff, b.apply_word(args + (p,)).items(), cp)
    sign_left = -1 if (degs[x] * arg_deg) % 2 else 1
    for v, c in b.apply_word(args + (y,)).items():
        left = algebra.mul_basis(x, v[0]).items()
        sparse.accumulate(diff, (((q,) + v[1:], cq) for q, cq in left), -sign_left * c)
    sign_right = -1 if (arity * degs[y]) % 2 else 1
    for v, c in b.apply_word(args + (x,)).items():
        right = algebra.mul_basis(v[-1], y).items()
        sparse.accumulate(diff, ((v[:-1] + (q,), cq) for q, cq in right), -sign_right * c)
    return any(diff.values())


def _clause_outcomes(n, length, defect):
    """The failing and skipped words of a scan as (word, skipped) pairs, and
    the first failure with its skip count."""
    found = [(w, value is None) for w, value in scan(words(n, length), defect)]
    witness, _, skipped = first_failure(words(n, length), defect)
    return found, witness, skipped


def _column_lookup(m):
    images = columns(m.entries)
    return lambda *w: images.get(w, {})


def _graded_cases():
    two_cycle = path_algebra(double_quiver(Quiver(("1", "2"), (("a", "1", "2"),))), 2)
    two_loops = path_algebra(Quiver(("v",), (("a", "v", "v"), ("b", "v", "v"))), 1)
    return {
        "zero-product-3": zero_product_algebra(3),
        "free-2-cap1": free_algebra(2, cap=1),
        "two-loops-cap1": two_loops,
        "two-cycle-cap2": two_cycle,
    }


def _random_component(rng, n, arity, entries):
    out = {}
    for _ in range(entries):
        out_word, in_word = (tuple(rng.randrange(n) for _ in range(arity)) for _ in range(2))
        out[(out_word, in_word)] = Fraction(rng.randint(-3, 3))
    return TensorMap(n, arity, arity, out)


def _skew_binary(b, degs):
    """``b`` plus its image under the swap rule, which the clause then holds on."""
    tau = (1, 0)
    out = dict(b.entries)
    for (o, i), c in b.entries.items():
        key = (word_permute(tau, o), word_permute(tau, i))
        out[key] = out.get(key, 0) + sign_odd(tuple(degs[k] for k in i), tau) * c
    return TensorMap(b.dim, 2, 2, out)


@pytest.mark.parametrize("name", sorted(_graded_cases()))
def test_shared_clauses_match_the_nary_defects(name):
    algebra = _graded_cases()[name]
    n = algebra.nbasis
    rng = random.Random(name)
    skew_verdicts, leibniz_verdicts, skips = set(), set(), 0
    for trial in range(6):
        degs = tuple(rng.randrange(2) for _ in range(n))
        for arity in (1, 2, 3):
            b = _random_component(rng, n, arity, entries=2 + 2 * trial)
            maps = [b, _skew_binary(b, degs)] if arity == 2 else [b]
            for m in maps:
                value = _column_lookup(m)
                for t in range(arity - 1):
                    tau = tuple(range(t)) + (t + 1, t) + tuple(range(t + 2, arity))
                    got = _clause_outcomes(n, arity, partial(double.skew_defect, value, degs, t))
                    assert got == _clause_outcomes(n, arity, partial(_ref_skew_word, m, degs, tau))
                    skew_verdicts.add(got[1] is None)

                def ref(*w, _m=m):
                    return _ref_leibniz_word(algebra, degs, _m, w[:-2], w[-2], w[-1])

                got = _clause_outcomes(
                    n, arity + 1, partial(double.leibniz_defect, algebra, value, degs)
                )
                assert got == _clause_outcomes(n, arity + 1, ref)
                leibniz_verdicts.add(got[1] is None)
                skips += sum(skipped for _, skipped in got[0])
    assert skew_verdicts == {True, False}
    # a zero product satisfies the Leibniz clause on every bracket
    assert (False in leibniz_verdicts) == bool(algebra.table)
    assert (skips > 0) == (algebra.mode == "window")
