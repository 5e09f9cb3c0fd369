"""Twisted symmetric-group actions, Young symmetrizers, commutants."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from ybalg.linalg import rref
from ybalg.tensoralg import (
    TensorMap, embed_components, identity_perm, perm_compose, word_permute, words,
)
from ybalg import frt, sparse, ybe
from ybalg.frt import (
    YoungDiagram,
    action_table,
    braid_generators,
    commutant,
    evaluate_in_action,
    group_algebra_rank,
    hr_component_dual_basis,
    hr_dimension_oracles,
    hr_graded_dimension,
    image_dimension,
    partitions,
    permutation_operator,
    r_permutation_action,
    schur_weyl_decompose,
    young_symmetrizer,
)

ONE = Fraction(1)


def identity_twist(dim=2):
    return TensorMap.identity(dim, 2)


def diagonal_twist():
    eps = [[1, -1], [-1, 1]]
    return TensorMap(
        2, 2, 2, {(w, w): Fraction(eps[w[0]][w[1]]) for w in words(2, 2)}
    )


def swap_twist():
    return TensorMap(
        2, 2, 2, {(word_permute((1, 0), w), w): ONE for w in words(2, 2)}
    )


def rational_diagonal_twist(dim):
    """Unitary diagonal twist: diagonal ``1, -1, 1, ...``, ``eps_ij * eps_ji = 1``."""
    ratios = iter([Fraction(131, 227), Fraction(-173, 193), Fraction(211, 149)])
    eps = [[Fraction(1 if i % 2 == 0 else -1)] * dim for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            eps[i][j] = next(ratios)
            eps[j][i] = 1 / eps[i][j]
    return TensorMap(
        dim, 2, 2, {(w, w): eps[w[0]][w[1]] for w in words(dim, 2)}
    )


def signed_swap():
    return TensorMap(
        2,
        2,
        2,
        {
            ((0, 0), (0, 0)): ONE,
            ((1, 1), (1, 1)): ONE,
            ((1, 0), (0, 1)): ONE,
            ((0, 1), (1, 0)): -ONE,
        },
    )


def random_group_element(rng, m, size=4):
    perms = list(itertools.permutations(range(m)))
    return sparse.vector((rng.choice(perms), rng.randint(-3, 3)) for _ in range(size))


def mul(x, y):
    return sparse.product(x, y, perm_compose)


def identity(m):
    return {identity_perm(m): 1}


class TestGroupAlgebra:
    def test_identity_is_unit(self):
        rng = random.Random(3)
        e = identity(3)
        for _ in range(10):
            x = random_group_element(rng, 3)
            assert mul(e, x) == x
            assert mul(x, e) == x

    def test_basis_product_composes(self):
        p, q = (1, 0, 2), (0, 2, 1)
        assert mul({p: 1}, {q: 1}) == {perm_compose(p, q): 1} == {(1, 2, 0): 1}

    def test_associativity(self):
        rng = random.Random(7)
        for _ in range(12):
            x = random_group_element(rng, 3)
            y = random_group_element(rng, 3)
            z = random_group_element(rng, 3)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))

    def test_subtraction_purges(self):
        rng = random.Random(11)
        x = random_group_element(rng, 3)
        assert sparse.add(x, sparse.scale(x, -1)) == {}

    def test_support_validation(self):
        # nothing checks a key on its own; evaluation reads the key lengths
        action = r_permutation_action(identity_twist(), 3)
        with pytest.raises(ValueError, match="m mismatch"):
            evaluate_in_action({(0, 1): ONE}, action)

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError, match="not an exact scalar"):
            sparse.vector({(1, 0): 0.1})

    def test_float_scalar_rejected(self):
        with pytest.raises(TypeError, match="not an exact scalar"):
            sparse.scale(identity(2), 0.5)

    def test_mixed_groups_rejected(self):
        with pytest.raises(ValueError, match="size mismatch"):
            mul(identity(2), identity(3))

    def test_zero_has_rank_zero(self):
        assert group_algebra_rank({}) == 0


class TestYoungDiagram:
    def test_validation(self):
        with pytest.raises(ValueError, match="weakly decreasing"):
            YoungDiagram((1, 2))
        with pytest.raises(ValueError, match="positive"):
            YoungDiagram((2, 0))
        with pytest.raises(ValueError, match="positive"):
            YoungDiagram(())

    def test_hooks_and_dimensions(self):
        assert YoungDiagram((2, 1)).hooks() == [3, 1, 1]
        dims = {
            (3,): 1,
            (2, 1): 2,
            (1, 1, 1): 1,
            (4,): 1,
            (3, 1): 3,
            (2, 2): 2,
            (2, 1, 1): 3,
        }
        for rows, d in dims.items():
            assert YoungDiagram(rows).irrep_dimension() == d

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_squares_sum_to_group_order(self, m):
        total = sum(lam.irrep_dimension() ** 2 for lam in partitions(m))
        assert total == math.factorial(m)

    def test_partition_order(self):
        assert [lam.rows for lam in partitions(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]
        assert [len(partitions(m)) for m in range(1, 6)] == [1, 2, 3, 5, 7]


class TestYoungSymmetrizer:
    def test_single_row_is_full_symmetrizer(self):
        c = young_symmetrizer((3,))
        assert c == {p: ONE for p in itertools.permutations(range(3))}

    def test_single_column_is_signed_sum(self):
        c = young_symmetrizer((1, 1))
        assert c == {(0, 1): ONE, (1, 0): -ONE}

    def test_hook_shape_support(self):
        c = young_symmetrizer((2, 1))
        assert c == {
            (0, 1, 2): ONE,
            (1, 0, 2): ONE,
            (2, 1, 0): -ONE,
            (2, 0, 1): -ONE,
        }

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_quasi_idempotency(self, m):
        for lam in partitions(m):
            c = young_symmetrizer(lam)
            kappa = Fraction(math.factorial(m), lam.irrep_dimension())
            assert mul(c, c) == sparse.scale(c, kappa)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_rank_oracle_matches_hooks(self, m):
        for lam in partitions(m):
            assert group_algebra_rank(young_symmetrizer(lam)) == (
                lam.irrep_dimension()
            )


class TestRPermutationAction:
    def test_identity_twist_gives_standard_swaps(self):
        action = r_permutation_action(identity_twist(), 2)
        assert len(action) == 1
        assert (action.generators[0] - permutation_operator((1, 0), 2)).is_zero()

    def test_identity_twist_table_is_standard_action(self):
        action = r_permutation_action(identity_twist(), 3)
        # the length counts the generators s_1, s_2, not the three fields
        assert len(action) == 2
        table = action_table(action)
        assert len(table) == 6
        for perm, operator in table.items():
            assert (operator - permutation_operator(perm, 2)).is_zero()

    def test_diagonal_twist_builds_and_differs(self):
        action = r_permutation_action(diagonal_twist(), 3)
        swap = permutation_operator((1, 0, 2), 2)
        assert not (action.generators[0] - swap).is_zero()

    def test_non_unitary_rejected(self):
        big_r = identity_twist().scale(2)
        with pytest.raises(ValueError, match="not unitary") as err:
            r_permutation_action(big_r, 2)
        # the witness is the first entry of the literal defect, read off its first row
        literal = big_r.r21().compose(big_r) - TensorMap.identity(2, 2)
        assert str(err.value).endswith(ybe.witness_str(literal.first_nonzero()))

    def test_non_qybe_rejected(self):
        big_r = signed_swap()
        with pytest.raises(ValueError, match="quantum Yang-Baxter") as err:
            r_permutation_action(big_r, 3)
        r12, r13, r23 = (embed_components(big_r, slots, 3) for slots in ((1, 2), (1, 3), (2, 3)))
        literal = r12.compose(r13).compose(r23) - r23.compose(r13).compose(r12)
        assert str(err.value).endswith(ybe.witness_str(literal.first_nonzero()))

    def test_braid_generators_allow_non_unitary(self):
        gens = braid_generators(identity_twist().scale(2), 3)
        assert len(gens) == 2
        assert len(commutant(gens[:1], dim=2, deg=3)) == len(
            commutant([permutation_operator((1, 0, 2), 2)], dim=2, deg=3)
        )

    def test_braid_generators_still_need_qybe(self):
        with pytest.raises(ValueError, match="quantum Yang-Baxter"):
            braid_generators(signed_swap(), 2)

    def test_single_factor_action(self):
        action = r_permutation_action(identity_twist(), 1)
        assert len(action) == 0
        evaluated = evaluate_in_action(identity(1), action)
        assert (evaluated - TensorMap.identity(2, 1)).is_zero()

    def test_m_mismatch(self):
        action = r_permutation_action(identity_twist(), 2)
        with pytest.raises(ValueError, match="m mismatch"):
            evaluate_in_action(identity(3), action)


class TestEvaluation:
    def test_identity_element_has_full_rank(self):
        action = r_permutation_action(identity_twist(), 2)
        evaluated = evaluate_in_action(identity(2), action)
        assert image_dimension(evaluated) == 4

    def test_symmetric_and_antisymmetric_ranks(self):
        action = r_permutation_action(identity_twist(), 2)
        sym = evaluate_in_action(young_symmetrizer((2,)), action)
        alt = evaluate_in_action(young_symmetrizer((1, 1)), action)
        assert image_dimension(sym) == 3
        assert image_dimension(alt) == 1

    def test_evaluation_is_linear(self):
        rng = random.Random(13)
        action = r_permutation_action(diagonal_twist(), 3)
        x = random_group_element(rng, 3)
        y = random_group_element(rng, 3)
        lhs = evaluate_in_action(sparse.add(x, y), action)
        rhs = evaluate_in_action(x, action) + evaluate_in_action(y, action)
        assert (lhs - rhs).is_zero()

    def test_evaluation_is_multiplicative(self):
        rng = random.Random(17)
        action = r_permutation_action(diagonal_twist(), 3)
        x = random_group_element(rng, 3)
        y = random_group_element(rng, 3)
        lhs = evaluate_in_action(mul(x, y), action)
        rhs = evaluate_in_action(x, action).compose(evaluate_in_action(y, action))
        assert (lhs - rhs).is_zero()


class TestCommutant:
    def test_no_generators_gives_full_endomorphisms(self):
        assert len(commutant([], dim=2, deg=1)) == 4
        assert len(commutant([], dim=2, deg=2)) == 16

    def test_no_generators_needs_shape(self):
        with pytest.raises(ValueError, match="explicit dim and deg"):
            commutant([])

    def test_standard_swap_commutant(self):
        basis = commutant([permutation_operator((1, 0), 2)])
        assert len(basis) == 10

    def test_full_matrix_generators_leave_scalars(self):
        units = [
            TensorMap(2, 1, 1, {((i,), (j,)): ONE})
            for i in range(2)
            for j in range(2)
        ]
        basis = commutant(units)
        assert len(basis) == 1
        assert image_dimension(basis[0]) == 2  # a scalar operator

    def test_members_commute(self):
        action = r_permutation_action(diagonal_twist(), 2)
        for x in commutant(action.generators, dim=2, deg=2):
            for g in action.generators:
                assert (x.compose(g) - g.compose(x)).is_zero()


class TestComponentDimensions:
    def test_degree_one_is_unconstrained(self):
        assert hr_dimension_oracles(identity_twist(), 1) == (4, 4)

    def test_identity_twist_matches_symmetric_powers(self):
        assert hr_graded_dimension(identity_twist(), 2) == 10
        assert hr_graded_dimension(identity_twist(), 3) == 20
        assert hr_graded_dimension(identity_twist(), 3) == math.comb(4 + 2, 3)

    def test_diagonal_twist_dimensions(self):
        assert hr_dimension_oracles(diagonal_twist(), 2) == (10, 10)
        assert hr_dimension_oracles(diagonal_twist(), 3) == (20, 20)

    def test_swap_twist_has_free_components(self):
        # the swap twist makes every generator act as the identity, so no
        # relations survive and the component is the whole free slice
        assert hr_dimension_oracles(swap_twist(), 2) == (16, 16)

    def test_dual_basis_realizes_the_component(self):
        basis = hr_component_dual_basis(diagonal_twist(), 2)
        assert len(basis) == 10
        action = r_permutation_action(diagonal_twist(), 2)
        for x in basis:
            for g in action.generators:
                assert (x.compose(g) - g.compose(x)).is_zero()


class TestSchurWeyl:
    def test_two_factor_identity_anchor(self):
        report = schur_weyl_decompose(identity_twist(), 2)
        assert [
            (b.partition, b.rho_dim, b.comodule_dim, b.included)
            for b in report.blocks
        ] == [((2,), 1, 3, True), ((1, 1), 1, 1, True)]
        assert report.total == 4 == report.expected
        assert report.passed

    def test_three_factor_identity_anchor(self):
        report = schur_weyl_decompose(identity_twist(), 3)
        assert [
            (b.partition, b.rho_dim, b.comodule_dim, b.included)
            for b in report.blocks
        ] == [
            ((3,), 1, 4, True),
            ((2, 1), 2, 2, True),
            ((1, 1, 1), 1, 0, False),
        ]
        assert report.total == 8 == report.expected
        assert report.sr_commutant_dim == 20
        assert report.hr_commutant_dim == report.sr_span_dim == 5
        assert report.double_commutant_ok
        assert report.passed

    def test_single_factor(self):
        report = schur_weyl_decompose(identity_twist(), 1)
        assert [
            (b.partition, b.rho_dim, b.comodule_dim) for b in report.blocks
        ] == [((1,), 1, 2)]
        assert report.total == 2 == report.expected
        assert report.passed

    def test_diagonal_twist_decomposition(self):
        report = schur_weyl_decompose(diagonal_twist(), 3)
        assert report.total == 8 == report.expected
        assert report.double_commutant_ok
        assert report.passed

    def test_swap_twist_concentrates_in_one_block(self):
        report = schur_weyl_decompose(swap_twist(), 3)
        assert [(b.partition, b.comodule_dim) for b in report.blocks] == [
            ((3,), 8),
            ((2, 1), 0),
            ((1, 1, 1), 0),
        ]
        assert report.total == 8
        assert report.sr_span_dim == 1  # every generator acts as the identity
        assert report.passed

    def test_dim_three_cube_within_budget(self):
        start = time.perf_counter()
        identity = identity_twist(3)
        report = schur_weyl_decompose(identity, 3)
        assert [(b.partition, b.rho_dim, b.comodule_dim) for b in report.blocks] == [
            ((3,), 1, 10),
            ((2, 1), 2, 8),
            ((1, 1, 1), 1, 1),
        ]
        assert report.total == 27 == report.expected
        assert report.sr_commutant_dim == 165  # 10^2 + 8^2 + 1^2
        assert report.hr_commutant_dim == report.sr_span_dim == 6
        assert report.passed
        assert hr_dimension_oracles(identity, 3) == (165, 165)
        assert time.perf_counter() - start < 20.0

    def test_dim_three_fourth_power_within_budget(self):
        start = time.perf_counter()
        for twist, first, second in (
            (identity_twist(3), 495, 23),
            (rational_diagonal_twist(3), 321, 24),
        ):
            report = schur_weyl_decompose(twist, 4)
            assert report.total == 81 == report.expected
            assert report.sr_commutant_dim == first
            assert report.hr_commutant_dim == report.sr_span_dim == second
            assert report.double_commutant_ok
            assert report.passed
            assert hr_dimension_oracles(twist, 4) == (first, first)
        assert time.perf_counter() - start < 30.0

    def test_report_lines_deterministic(self):
        first = schur_weyl_decompose(diagonal_twist(), 3).lines()
        second = schur_weyl_decompose(diagonal_twist(), 3).lines()
        assert first == second
        assert first[0] == "check: schur-weyl"
        assert first[-1] == "result: PASS"

    def test_each_symmetrizer_is_built_once_per_partition(self, monkeypatch):
        built = []
        build = frt.young_symmetrizer
        monkeypatch.setattr(frt, "young_symmetrizer", lambda lam: built.append(lam) or build(lam))
        schur_weyl_decompose(diagonal_twist(), 3)
        assert built == list(partitions(3))

    def test_hook_length_disagreement_is_a_program_fault(self, monkeypatch):
        monkeypatch.setattr(frt, "group_algebra_rank", lambda x: group_algebra_rank(x) + 1)
        with pytest.raises(RuntimeError, match=r"hook-length dimension .* rank for \(3\)"):
            schur_weyl_decompose(diagonal_twist(), 3)

    @pytest.mark.parametrize("twist", ["identity", "diagonal"])
    def test_symmetrizer_images_are_commutant_stable(self, twist):
        big_r = identity_twist() if twist == "identity" else diagonal_twist()
        action = r_permutation_action(big_r, 3)
        dual = commutant(action.generators, dim=2, deg=3)
        for lam in partitions(3):
            evaluated = evaluate_in_action(young_symmetrizer(lam), action)
            # E^2 = (m!/f) E, so E's image is phi-stable iff E phi E = (m!/f) phi E
            scale = Fraction(math.factorial(3), lam.irrep_dimension())
            assert evaluated.compose(evaluated) == evaluated.scale(scale)
            for phi in dual:
                phi_e = phi.compose(evaluated)
                assert evaluated.compose(phi_e) == phi_e.scale(scale)


# ---------------------------------------------------------------------------
# the closure certificate: span inside C'' and equal dimensions


def _closure_by_basis(big_r, m):
    """Second commutant as a basis, compared with the span by canonical form."""
    action = r_permutation_action(big_r, m)
    first = commutant(action.generators, dim=big_r.dim, deg=m)
    second = commutant(first, dim=big_r.dim, deg=m)
    index = {w: k for k, w in enumerate(words(big_r.dim, m))}
    n = len(index)

    def flat(x):
        return {index[o] * n + index[i]: c for (o, i), c in x.entries.items()}

    span = rref([flat(x) for x in action_table(action).values()], n * n)
    return len(first), len(second), span.rank, span == rref([flat(x) for x in second], n * n)


_CLOSURE_CASES = [
    *((name, twist, m) for name, twist in (
        ("identity", identity_twist()),
        ("diagonal", diagonal_twist()),
        ("swap", swap_twist()),
        ("rational", rational_diagonal_twist(2)),
    ) for m in (1, 2, 3, 4)),
    ("identity3", identity_twist(3), 2),
    ("rational3", rational_diagonal_twist(3), 2),
]


@pytest.mark.parametrize(
    "twist, m", [case[1:] for case in _CLOSURE_CASES], ids=[f"{c[0]}-m{c[2]}" for c in _CLOSURE_CASES]
)
def test_closure_by_rank_matches_the_basis_comparison(twist, m):
    report = schur_weyl_decompose(twist, m)
    assert (
        report.sr_commutant_dim,
        report.hr_commutant_dim,
        report.sr_span_dim,
        report.double_commutant_ok,
    ) == _closure_by_basis(twist, m)


def test_closure_fails_on_part_of_the_first_commutant(monkeypatch):
    # any basis of C' minus one map still generates C' on these small twists,
    # so the truncation keeps only the first half of the basis; repeated up to
    # the full count, it meets the counting oracle, and only the closure can
    # tell that half of C' is missing
    original = frt.commutant

    def truncated(generators, dim=None, deg=None):
        basis = original(generators, dim, deg)
        half = basis[: len(basis) // 2]
        return [half[k % len(half)] for k in range(len(basis))]

    monkeypatch.setattr(frt, "commutant", truncated)
    twist = rational_diagonal_twist(2)
    report = schur_weyl_decompose(twist, 3)
    assert not report.double_commutant_ok
    assert not report.passed
    first = truncated(r_permutation_action(twist, 3).generators, 2, 3)
    assert report.sr_commutant_dim == len(first) == 12
    assert len(set(first)) == 6
    assert report.hr_commutant_dim == len(original(first, 2, 3))
    assert report.hr_commutant_dim > report.sr_span_dim


def test_closure_fails_with_a_non_commuting_map_added(monkeypatch):
    # the map takes the place of the last basis map, so dim C' still counts
    original = frt.commutant
    unit = TensorMap(2, 3, 3, {((0, 0, 0), (0, 0, 1)): ONE})
    extended = []

    def with_unit(generators, dim=None, deg=None):
        extended[:] = [*original(generators, dim, deg)[:-1], unit]
        return list(extended)

    monkeypatch.setattr(frt, "commutant", with_unit)
    report = schur_weyl_decompose(identity_twist(), 3)
    assert not report.double_commutant_ok
    assert not report.passed
    # no early stop on a failed inclusion: the printed dimension is exact
    assert report.hr_commutant_dim == len(original(extended, 2, 3))


def test_closure_fails_on_a_conjugated_first_commutant(monkeypatch):
    # conjugating C' by a map on the first slot keeps every dimension, so only
    # the inclusion of the span can tell the closure fails
    original = frt.commutant

    def on_first_slot(g):
        return TensorMap(2, 3, 3, {
            ((o, b, c), (a, b, c)): g[o][a]
            for a, b, c in words(2, 3) for o in range(2) if g[o][a]
        })

    shear, unshear = on_first_slot([[1, 1], [0, 1]]), on_first_slot([[1, -1], [0, 1]])

    def conjugated(generators, dim=None, deg=None):
        return [shear.compose(x).compose(unshear) for x in original(generators, dim, deg)]

    monkeypatch.setattr(frt, "commutant", conjugated)
    report = schur_weyl_decompose(identity_twist(), 3)
    assert report.hr_commutant_dim == report.sr_span_dim == 5
    assert not report.double_commutant_ok
    assert not report.passed


# ---------------------------------------------------------------------------
# the duality's counting identities, checked inside the decomposition


def sign_diagonal_twist(dim):
    """Unitary diagonal twist with sign entries: ``eps_ii = 1``, ``eps_ij = -1`` off it."""
    return TensorMap(
        dim, 2, 2, {(w, w): Fraction(1 if w[0] == w[1] else -1) for w in words(dim, 2)}
    )


_DUALITY_CASES = [
    (name, make(dim), m)
    for name, make in (
        ("sign", sign_diagonal_twist),
        ("rational", rational_diagonal_twist),
        ("identity", identity_twist),
    )
    for dim, ms in ((2, (2, 3, 4)), (3, (2, 3)))
    for m in ms
]


@pytest.mark.parametrize(
    "twist, m", [case[1:] for case in _DUALITY_CASES],
    ids=[f"{c[0]}-dim{c[1].dim}-m{c[2]}" for c in _DUALITY_CASES],
)
def test_duality_counts_commutant_and_span(twist, m):
    report = schur_weyl_decompose(twist, m)
    # dim C' = sum n_lam^2, and dim A = sum d_lam^2 over the lam with n_lam > 0
    assert sum(b.comodule_dim**2 for b in report.blocks) == report.sr_commutant_dim
    assert sum(b.rho_dim**2 for b in report.blocks if b.comodule_dim) == report.sr_span_dim
    action = r_permutation_action(twist, m)
    assert report.sr_commutant_dim == len(commutant(action.generators, dim=twist.dim, deg=m))
    assert report.passed
