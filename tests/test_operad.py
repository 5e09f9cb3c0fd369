"""Distributivity classification: constraint extraction, nullspaces, oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybalg.operad import (
    _expand,
    _extension,
    _normalize_row,
    associativity_vector,
    classify,
    cyclic_basis,
    full_constraint_system,
    general_basis,
    generic_assignment,
    jacobi_vector,
    leibniz_obstruction,
    lie_admissible_vector,
    oracle_agreement_trial,
    prod,
    relation_basis,
    relation_value,
    star,
    symbolic_expand_oracle,
)
from ybalg.fixtures import sl2_poisson_bracket
from ybalg.sparse import add as poly_add
from ybalg.sparse import frac
from ybalg.tensoralg import perm_compose, perm_sign
from ybalg.twisted import poly_mul

SIGMAS = list(itertools.permutations((0, 1, 2)))


def lam_index(sigma, shape):
    return 2 * SIGMAS.index(sigma) + (0 if shape == 1 else 1)


def pair_row(idx_a, idx_b):
    row = [Fraction(0)] * 12
    row[idx_a] = Fraction(1)
    row[idx_b] = Fraction(1)
    return tuple(row)


def gen(name):
    return (0, name, 0)


def atomic(left, right):
    return (1, 2, (gen(left), gen(right)))


class TestExpander:
    """Leibniz normal forms of trees on the shared formal engine."""

    def test_leaf(self):
        assert _expand("a", _extension("none")) == {(gen("a"),): Fraction(1)}

    def test_atomic_star(self):
        out = _expand(star("a", "b"), _extension("none"))
        assert out == {(atomic("a", "b"),): Fraction(1)}

    def test_product_into_first_argument(self):
        out = _expand(star(prod("u", "v"), "w"), _extension("none"))
        assert out == {
            (gen("u"), atomic("v", "w")): Fraction(1),
            (gen("v"), atomic("u", "w")): Fraction(1),
        }

    def test_product_into_second_argument(self):
        out = _expand(star("u", prod("v", "w")), _extension("none"))
        assert out == {
            (gen("v"), atomic("u", "w")): Fraction(1),
            (gen("w"), atomic("u", "v")): Fraction(1),
        }

    def test_cross_terms_from_nested_star(self):
        # ((u v) * w1) * w2 contains products of two atomic stars
        out = _expand(star(star(prod("u", "v"), "w1"), "w2"), _extension("none"))
        assert (atomic("u", "w1"), atomic("v", "w2")) in out

    def test_epsilon_canonicalization(self):
        skew = _expand(star("b", "a"), _extension("skew"))
        assert skew == {(atomic("a", "b"),): Fraction(-1)}
        symm = _expand(star("b", "a"), _extension("symmetric"))
        assert symm == {(atomic("a", "b"),): Fraction(1)}

    def test_no_symmetry_keeps_argument_order(self):
        out = _expand(star("b", "a"), _extension("none"))
        assert out == {(atomic("b", "a"),): Fraction(1)}


# Constraint.pretty() lines of full_constraint_system, slots in order
GOLDEN_CONSTRAINTS = {
    "none": [
        "slot 1, coefficient of (b1'*b2).(b1''*b3): + lam[(b1*b2)*b3 [sigma=(123)]] + lam[(b1*b3)*b2 [sigma=(132)]] = 0",
        "slot 1, coefficient of (b1'*b2).(b3*b1''): + lam[b3*(b1*b2) [sigma=(312)]] + lam[(b3*b1)*b2 [sigma=(312)]] = 0",
        "slot 1, coefficient of (b1'*b3).(b1''*b2): + lam[(b1*b2)*b3 [sigma=(123)]] + lam[(b1*b3)*b2 [sigma=(132)]] = 0",
        "slot 1, coefficient of (b1'*b3).(b2*b1''): + lam[b2*(b1*b3) [sigma=(213)]] + lam[(b2*b1)*b3 [sigma=(213)]] = 0",
        "slot 1, coefficient of (b1''*b2).(b3*b1'): + lam[b3*(b1*b2) [sigma=(312)]] + lam[(b3*b1)*b2 [sigma=(312)]] = 0",
        "slot 1, coefficient of (b1''*b3).(b2*b1'): + lam[b2*(b1*b3) [sigma=(213)]] + lam[(b2*b1)*b3 [sigma=(213)]] = 0",
        "slot 1, coefficient of (b2*b1').(b3*b1''): + lam[b2*(b3*b1) [sigma=(231)]] + lam[b3*(b2*b1) [sigma=(321)]] = 0",
        "slot 1, coefficient of (b2*b1'').(b3*b1'): + lam[b2*(b3*b1) [sigma=(231)]] + lam[b3*(b2*b1) [sigma=(321)]] = 0",
        "slot 2, coefficient of (b1*b2').(b2''*b3): + lam[b1*(b2*b3) [sigma=(123)]] + lam[(b1*b2)*b3 [sigma=(123)]] = 0",
        "slot 2, coefficient of (b1*b2').(b3*b2''): + lam[b1*(b3*b2) [sigma=(132)]] + lam[b3*(b1*b2) [sigma=(312)]] = 0",
        "slot 2, coefficient of (b1*b2'').(b2'*b3): + lam[b1*(b2*b3) [sigma=(123)]] + lam[(b1*b2)*b3 [sigma=(123)]] = 0",
        "slot 2, coefficient of (b1*b2'').(b3*b2'): + lam[b1*(b3*b2) [sigma=(132)]] + lam[b3*(b1*b2) [sigma=(312)]] = 0",
        "slot 2, coefficient of (b2'*b1).(b2''*b3): + lam[(b2*b1)*b3 [sigma=(213)]] + lam[(b2*b3)*b1 [sigma=(231)]] = 0",
        "slot 2, coefficient of (b2'*b1).(b3*b2''): + lam[b3*(b2*b1) [sigma=(321)]] + lam[(b3*b2)*b1 [sigma=(321)]] = 0",
        "slot 2, coefficient of (b2'*b3).(b2''*b1): + lam[(b2*b1)*b3 [sigma=(213)]] + lam[(b2*b3)*b1 [sigma=(231)]] = 0",
        "slot 2, coefficient of (b2''*b1).(b3*b2'): + lam[b3*(b2*b1) [sigma=(321)]] + lam[(b3*b2)*b1 [sigma=(321)]] = 0",
        "slot 3, coefficient of (b1*b3').(b2*b3''): + lam[b1*(b2*b3) [sigma=(123)]] + lam[b2*(b1*b3) [sigma=(213)]] = 0",
        "slot 3, coefficient of (b1*b3').(b3''*b2): + lam[b1*(b3*b2) [sigma=(132)]] + lam[(b1*b3)*b2 [sigma=(132)]] = 0",
        "slot 3, coefficient of (b1*b3'').(b2*b3'): + lam[b1*(b2*b3) [sigma=(123)]] + lam[b2*(b1*b3) [sigma=(213)]] = 0",
        "slot 3, coefficient of (b1*b3'').(b3'*b2): + lam[b1*(b3*b2) [sigma=(132)]] + lam[(b1*b3)*b2 [sigma=(132)]] = 0",
        "slot 3, coefficient of (b2*b3').(b3''*b1): + lam[b2*(b3*b1) [sigma=(231)]] + lam[(b2*b3)*b1 [sigma=(231)]] = 0",
        "slot 3, coefficient of (b2*b3'').(b3'*b1): + lam[b2*(b3*b1) [sigma=(231)]] + lam[(b2*b3)*b1 [sigma=(231)]] = 0",
        "slot 3, coefficient of (b3'*b1).(b3''*b2): + lam[(b3*b1)*b2 [sigma=(312)]] + lam[(b3*b2)*b1 [sigma=(321)]] = 0",
        "slot 3, coefficient of (b3'*b2).(b3''*b1): + lam[(b3*b1)*b2 [sigma=(312)]] + lam[(b3*b2)*b1 [sigma=(321)]] = 0",
    ],
    "symmetric": [
        "slot 1, coefficient of (b1'*b2).(b1''*b3): + lam[b2*(b3*b1)] + lam[b3*(b1*b2)] = 0",
        "slot 1, coefficient of (b1'*b3).(b1''*b2): + lam[b2*(b3*b1)] + lam[b3*(b1*b2)] = 0",
        "slot 2, coefficient of (b1*b2').(b2''*b3): + lam[b1*(b2*b3)] + lam[b3*(b1*b2)] = 0",
        "slot 2, coefficient of (b1*b2'').(b2'*b3): + lam[b1*(b2*b3)] + lam[b3*(b1*b2)] = 0",
        "slot 3, coefficient of (b1*b3').(b2*b3''): + lam[b1*(b2*b3)] + lam[b2*(b3*b1)] = 0",
        "slot 3, coefficient of (b1*b3'').(b2*b3'): + lam[b1*(b2*b3)] + lam[b2*(b3*b1)] = 0",
    ],
    "skew": [
        "slot 1, coefficient of (b1'*b2).(b1''*b3): + lam[b2*(b3*b1)] - lam[b3*(b1*b2)] = 0",
        "slot 1, coefficient of (b1'*b3).(b1''*b2): + lam[b2*(b3*b1)] - lam[b3*(b1*b2)] = 0",
        "slot 2, coefficient of (b1*b2').(b2''*b3): + lam[b1*(b2*b3)] - lam[b3*(b1*b2)] = 0",
        "slot 2, coefficient of (b1*b2'').(b2'*b3): + lam[b1*(b2*b3)] - lam[b3*(b1*b2)] = 0",
        "slot 3, coefficient of (b1*b3').(b2*b3''): + lam[b1*(b2*b3)] - lam[b2*(b3*b1)] = 0",
        "slot 3, coefficient of (b1*b3'').(b2*b3'): + lam[b1*(b2*b3)] - lam[b2*(b3*b1)] = 0",
    ],
}

GOLDEN_NULLSPACES = {
    "none": [(1, -1, -1, 1, -1, 1, 1, -1, 1, -1, -1, 1)],
    "symmetric": [],
    "skew": [(1, 1, 1)],
}


@pytest.mark.parametrize("sym", ["none", "symmetric", "skew"])
def test_constraint_text_and_nullspace_are_pinned(sym):
    system = full_constraint_system(sym)
    basis = relation_basis(sym)
    assert [c.pretty(basis) for c in system.constraints] == GOLDEN_CONSTRAINTS[sym]
    assert list(system.nullspace_basis) == GOLDEN_NULLSPACES[sym]


def test_normalized_int_row_holds_fractions():
    row = _normalize_row((0, 2, 3, -4))
    assert row == (0, 1, Fraction(3, 2), -2)
    assert all(type(x) is Fraction for x in row)
    assert _normalize_row((0, 0)) is None


class TestSlotConstraints:
    def test_slot_one_exactly_four(self):
        rows = leibniz_obstruction("none", 1).unique_rows()
        assert len(rows) == 4
        expected = {
            pair_row(lam_index((0, 1, 2), 2), lam_index((0, 2, 1), 2)),
            pair_row(lam_index((1, 0, 2), 1), lam_index((1, 0, 2), 2)),
            pair_row(lam_index((2, 0, 1), 1), lam_index((2, 0, 1), 2)),
            pair_row(lam_index((1, 2, 0), 1), lam_index((2, 1, 0), 1)),
        }
        assert set(rows) == expected

    def test_slot_two_exactly_four(self):
        rows = leibniz_obstruction("none", 2).unique_rows()
        expected = {
            pair_row(lam_index((1, 0, 2), 2), lam_index((1, 2, 0), 2)),
            pair_row(lam_index((0, 1, 2), 1), lam_index((0, 1, 2), 2)),
            pair_row(lam_index((2, 1, 0), 1), lam_index((2, 1, 0), 2)),
            pair_row(lam_index((0, 2, 1), 1), lam_index((2, 0, 1), 1)),
        }
        assert set(rows) == expected

    def test_slot_three_exactly_four(self):
        rows = leibniz_obstruction("none", 3).unique_rows()
        expected = {
            pair_row(lam_index((2, 1, 0), 2), lam_index((2, 0, 1), 2)),
            pair_row(lam_index((1, 2, 0), 2), lam_index((1, 2, 0), 1)),
            pair_row(lam_index((0, 2, 1), 2), lam_index((0, 2, 1), 1)),
            pair_row(lam_index((1, 0, 2), 1), lam_index((0, 1, 2), 1)),
        }
        assert set(rows) == expected

    def test_skew_slot_one_single_constraint(self):
        rows = leibniz_obstruction("skew", 1).unique_rows()
        # lambda2 = -eps lambda3 with eps = -1, i.e. lambda2 - lambda3 = 0
        assert rows == [(Fraction(0), Fraction(1), Fraction(-1))]

    def test_constraints_are_s3_equivariant(self):
        # relabeling arguments by pi maps the slot-s system onto the system
        # for the slot pi sends s to; together the images of slot 1 cover all
        def transform(row, pi):
            # functional transported along the relabeling action on lambdas
            out = [Fraction(0)] * 12
            for sigma in SIGMAS:
                for shape in (1, 2):
                    out[lam_index(sigma, shape)] = row[
                        lam_index(perm_compose(pi, sigma), shape)
                    ]
            return tuple(out)

        slot_rows = {
            s: set(leibniz_obstruction("none", s).unique_rows()) for s in (1, 2, 3)
        }
        all_rows = slot_rows[1] | slot_rows[2] | slot_rows[3]
        covered = set()
        for pi in SIGMAS:
            image = {transform(r, pi) for r in slot_rows[1]}
            assert image <= all_rows
            covered |= image
        assert covered == all_rows

    def test_zero_relation_trivially_satisfied(self):
        system = full_constraint_system("none")
        assert system.violated_by([Fraction(0)] * 12) == []


class TestNullspaces:
    def test_general_nullspace_is_the_lie_admissible_line(self):
        system = full_constraint_system("none")
        assert system.nullspace_dim == 1
        generator = system.nullspace_basis[0]
        target = lie_admissible_vector()
        # colinear with the alternating associator sum
        ratios = {g / t for g, t in zip(generator, target) if t}
        assert len(ratios) == 1
        assert all(g == 0 for g, t in zip(generator, target) if not t)

    def test_generator_invariant_under_relabeling_up_to_sign(self):
        vec = lie_admissible_vector()
        for pi in SIGMAS:
            moved = [Fraction(0)] * 12
            for sigma in SIGMAS:
                for shape in (1, 2):
                    moved[lam_index(perm_compose(pi, sigma), shape)] = vec[
                        lam_index(sigma, shape)
                    ]
            sgn = frac(perm_sign(pi))
            assert moved == [sgn * x for x in vec]

    def test_skew_nullspace_is_jacobi(self):
        system = full_constraint_system("skew")
        assert system.nullspace_dim == 1
        generator = system.nullspace_basis[0]
        assert generator[0] == generator[1] == generator[2] != 0

    def test_symmetric_nullspace_trivial(self):
        assert full_constraint_system("symmetric").nullspace_dim == 0


def classify_sym(sym, vectors):
    return classify(full_constraint_system(sym), vectors)


class TestClassify:
    def test_all_five_operads(self):
        assert classify_sym("none", []).verdict == "magmas"
        assert classify_sym("none", [lie_admissible_vector()]).verdict == "Lie-admissible algebras"
        assert classify_sym("symmetric", []).verdict == "symmetric magmas"
        assert classify_sym("skew", []).verdict == "skew magmas"
        assert classify_sym("skew", [jacobi_vector()]).verdict == "Lie algebras"

    def test_associativity_rejected_with_witness(self):
        result = classify_sym("none", [associativity_vector()])
        assert result.verdict == "not distributive"
        assert result.violated
        constraint, value = result.violated[0]
        assert value == Fraction(-1)
        # the witness is the pairing of the two left-nested terms
        assert constraint.row == pair_row(
            lam_index((0, 1, 2), 2), lam_index((0, 2, 1), 2)
        )

    def test_scalar_multiples_share_the_verdict(self):
        vec = [frac(7) * x for x in lie_admissible_vector()]
        assert classify_sym("none", [vec]).verdict == "Lie-admissible algebras"

    def test_symmetric_nonzero_relation_rejected(self):
        result = classify_sym("symmetric", [jacobi_vector()])
        assert result.verdict == "not distributive"

    def test_report_lines_name_the_operad(self):
        lines = classify_sym("skew", [jacobi_vector()]).lines(cyclic_basis())
        assert any("Lie algebras" in line for line in lines)

    def test_classification_builds_one_system_per_symmetry(self, monkeypatch):
        from ybalg import harness, operad

        calls = []
        build = operad._system
        monkeypatch.setattr(operad, "_system", lambda *a: calls.append(a) or build(*a))
        report = harness.run_suite(harness.JobSpec((harness.Job("operad-classification"),)))
        assert report.passed
        assert len(calls) == 3  # one each for skew, none and symmetric


class TestNumericOracle:
    def test_biderivation_is_a_derivation_in_each_argument(self):
        rng = random.Random(3)
        op = generic_assignment("none")
        names = ["p", "q", "r"]

        def rand_poly():
            out = {}
            for _ in range(3):
                # one or two variables, each with exponent 1 or 2
                mono = tuple(
                    sorted(
                        n
                        for n in rng.sample(names, rng.randint(1, 2))
                        for _ in range(rng.randint(1, 2))
                    )
                )
                out[mono] = frac(rng.randint(-2, 2))
            return {m: c for m, c in out.items() if c}

        for _ in range(10):
            u, v, w = rand_poly(), rand_poly(), rand_poly()
            lhs = op.bracket(poly_mul(u, v), w)
            rhs = poly_add(poly_mul(u, op.bracket(v, w)), poly_mul(v, op.bracket(u, w)))
            assert lhs == rhs
            lhs2 = op.bracket(w, poly_mul(u, v))
            rhs2 = poly_add(poly_mul(u, op.bracket(w, v)), poly_mul(v, op.bracket(w, u)))
            assert lhs2 == rhs2

    def test_oracle_verdicts_match_known_relations(self):
        assert symbolic_expand_oracle(lie_admissible_vector(), "none")
        assert not symbolic_expand_oracle(associativity_vector(), "none")
        assert symbolic_expand_oracle(jacobi_vector(), "skew")

    def test_jacobi_holds_identically_for_linear_poisson(self):
        # not just the defect: the relation itself evaluates to zero
        op = sl2_poisson_bracket()
        env = {"b1": {(0,): frac(1)}, "b2": {(1,): frac(1)}, "b3": {(2,): frac(1)}}
        assert relation_value(jacobi_vector(), cyclic_basis(), env, op) == {}

    @pytest.mark.parametrize("sym", ["none", "symmetric", "skew"])
    def test_agreement_on_fifty_random_relations(self, sym):
        rng = random.Random(hash(sym) % 100000)
        assert oracle_agreement_trial(sym, rng, 50) == 50

    @given(st.integers(min_value=-5, max_value=5).filter(bool))
    @settings(max_examples=10, deadline=None)
    def test_nullspace_scalars_always_compatible(self, scale):
        vec = [frac(scale) * x for x in lie_admissible_vector()]
        assert not full_constraint_system("none").violated_by(vec)
        assert symbolic_expand_oracle(vec, "none")
