"""The acceptance gate: ten exact criteria, one verdict line each.

Every assertion is exact rational arithmetic — "zero" means literally zero,
never small.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion verdict lines.
"""

import random
import time
from fractions import Fraction

from infty_helpers import matrix_element_to_map, matrix_map_to_element
from ybalg import double, frt, harness, operad, twisted, ybe, ybe_infty
from ybalg.fixtures import (
    diagonal_unitary_qybe_solution,
    enumerate_skew_maps,
    random_skew_map,
    search_skew_solutions,
)
from ybalg.linfty import (
    audit_cancellation,
    family_is_linfty,
    product_extension_check,
    three_generator_fixture,
)
from ybalg.tensoralg import TensorMap


def verdict(number: int, title: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d} ({title}): FAIL")
        raise
    print(f"criterion {number:2d} ({title}): PASS")


def test_criterion_1_combination_identity():
    def body():
        start = time.perf_counter()
        rng = random.Random(20260814)
        checked = 0
        for index in range(102):
            dim = index % 3 + 1
            r = random_skew_map(dim, rng)
            report = ybe.check("cae", r)
            assert all(ok for _, ok in report.preconditions), report.lines()
            assert report.passed, report.lines()
            assert ybe.cae_defect(r).is_zero()
            checked += 1
        assert checked >= 100
        assert time.perf_counter() - start < 10.0

    verdict(1, "combination identity on random skew maps", body)


def test_criterion_2_bracket_extension_dichotomy():
    def body():
        start = time.perf_counter()
        solutions, non_solutions = search_skew_solutions("cybe", 2)
        assert solutions and non_solutions
        for r in solutions:
            report = twisted.check_bracket_extension(r, 4)
            assert report.passed, (r.entries, report.lines())
        for r in non_solutions:
            bracket = twisted.TensorWordBracket(r)
            assert not twisted.degree111_jacobi_map(bracket).is_zero(), r.entries
        assert time.perf_counter() - start < 60.0

    verdict(2, "extension passes iff the residual vanishes", body)


def test_criterion_3_double_lie_equivalence():
    def body():
        for r in enumerate_skew_maps(2, (-1, 0, 1)):
            lhs, rhs, equal = double.double_lie_iff_skew_aybe(r)
            assert equal, (r.entries, lhs, rhs)
            report = double.dbjac_to_aybe(r)
            assert report.r_is_skew
            assert report.transform_matches_aybe, r.entries

    verdict(3, "double Lie iff skew with zero associative residual", body)


def test_criterion_4_one_sided_multiplication():
    def body():
        lams = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
        for lam in lams:
            db = double.one_variable_lambda_bracket(5, lam)
            report = double.almcybe_check(db)
            assert report.leibniz_precondition
            assert report.cybe_precondition
            assert report.comparison_holds, f"lambda={lam}"
            assert report.passed
            assert ybe.aybe_residual(db.as_tensor_map()).is_zero(), f"lambda={lam}"

        # sweep other generator values on the same quotient: every bracket
        # satisfying the derivation rule with zero classical residual must
        # pass the comparison — and within this grid those brackets are
        # exactly the one-parameter line above
        algebra = double.one_variable_lambda_bracket(5, Fraction(0)).algebra
        x = algebra.index("x")
        one = algebra.index("1")
        grid = (Fraction(-1), Fraction(0), Fraction(1))
        eligible = []
        for c_x1 in grid:
            for c_1x in grid:
                for c_xx in grid:
                    value = {
                        key: c
                        for key, c in (
                            ((x, one), c_x1),
                            ((one, x), c_1x),
                            ((x, x), c_xx),
                        )
                        if c
                    }
                    db = double.extend_by_derivations(algebra, {(x, x): value})
                    report = double.almcybe_check(db)
                    if report.leibniz_precondition and report.cybe_precondition:
                        assert report.comparison_holds, value
                        eligible.append(value)
        expected_line = [
            {key: c for key, c in (((x, one), lam), ((one, x), -lam)) if c}
            for lam in grid
        ]
        assert sorted(map(sorted, map(dict.items, eligible))) == sorted(
            map(sorted, map(dict.items, expected_line))
        )

    verdict(4, "one-sided multiplication identity on the quotient ring", body)


def test_criterion_5_operad_classifier():
    def body():
        start = time.perf_counter()
        assert operad.SYMMETRY_EPSILON["skew"] == Fraction(-1)
        assert operad.SYMMETRY_EPSILON["symmetric"] == Fraction(1)

        none_system = operad.full_constraint_system("none")
        assert none_system.nullspace_dim == 1
        line = none_system.nullspace_basis[0]
        admissible = operad.lie_admissible_vector()
        scale = next(c for c in line if c) / next(c for c in admissible if c)
        assert list(line) == [scale * c for c in admissible]

        skew_system = operad.full_constraint_system("skew")
        assert skew_system.nullspace_dim == 1
        jacobi = operad.jacobi_vector()
        jline = skew_system.nullspace_basis[0]
        jscale = next(c for c in jline if c) / next(c for c in jacobi if c)
        assert list(jline) == [jscale * c for c in jacobi]

        assert operad.full_constraint_system("symmetric").nullspace_dim == 0

        rejection = operad.classify(
            operad.full_constraint_system("none"), [operad.associativity_vector()]
        )
        assert rejection.verdict == "not distributive"
        assert rejection.violated, "no violated constraint reported"
        constraint, value = rejection.violated[0]
        assert value != 0
        assert constraint.pretty(operad.relation_basis("none"))

        assert time.perf_counter() - start < 1.0

    verdict(5, "distributive relation classifier", body)


def test_criterion_6_super_leibniz_extension():
    def body():
        fam = three_generator_fixture()
        assert len(fam.basis.labels) == 3
        assert fam.arities() == [1, 2, 3]
        assert all(fam.ops[n] for n in (1, 2, 3))
        ok, witness = family_is_linfty(fam, 3)
        assert ok, witness

        report = product_extension_check(fam, max_m=3, cap=3)
        assert report.passed, report.lines()
        by_name = {check.name: check for check in report.checks}
        assert by_name["axioms on products of two generators"].passed
        assert report.audit_cross_terms_generated > 0
        assert report.audit_cross_terms_surviving == 0

        for m in (2, 3):
            for degrees in ((0,) * (m + 1), (1, 1) + (0,) * (m - 1)):
                generated, surviving, formal_ok = audit_cancellation(m, degrees)
                assert generated > 0
                assert surviving == 0
                assert formal_ok

    verdict(6, "product extension of the homotopy family", body)


def test_criterion_7_identity_twist_anchor():
    def body():
        start = time.perf_counter()
        identity = TensorMap.identity(2, 2)
        report = frt.schur_weyl_decompose(identity, 3)
        blocks = {block.partition: block for block in report.blocks}
        assert blocks[(3,)].rho_dim == 1 and blocks[(3,)].comodule_dim == 4
        assert blocks[(2, 1)].rho_dim == 2 and blocks[(2, 1)].comodule_dim == 2
        assert blocks[(1, 1, 1)].comodule_dim == 0
        assert not blocks[(1, 1, 1)].included
        assert report.total == 8 == 2**3
        assert report.passed

        for m in (1, 2, 3):
            by_relations, by_commutant = frt.hr_dimension_oracles(identity, m)
            assert by_relations == by_commutant
        assert frt.hr_dimension_oracles(identity, 2) == (10, 10)
        assert time.perf_counter() - start < 30.0

    verdict(7, "identity-twist decomposition anchor", body)


def test_criterion_8_double_commutant_closure():
    def body():
        identity = TensorMap.identity(2, 2)
        diagonal = diagonal_unitary_qybe_solution(2)
        assert diagonal != identity  # a genuinely nontrivial unitary twist
        assert ybe.qybe_residual(diagonal).is_zero()
        assert ybe.unitarity_defect(diagonal).is_zero()
        for twist in (identity, diagonal):
            for m in (1, 2, 3):
                report = frt.schur_weyl_decompose(twist, m)
                assert report.double_commutant_ok, (m, report.lines())
                assert report.passed

    verdict(8, "double commutant closes onto the action span", body)


def test_criterion_9_higher_residual_readings():
    def body():
        g = ybe_infty.gl_lie(2)
        algebra = ybe_infty.matrix_algebra(2)
        elements = (
            {(1, 1): Fraction(1)},  # a solution of both classical equations
            {(1, 2): Fraction(1), (2, 1): Fraction(-1)},  # not a solution
        )
        for r2 in elements:
            fam = ybe_infty.RnFamily(4, {2: dict(r2)})
            report = ybe_infty.cybe_infty_residual(g, fam, 3)
            assert [reading.name for reading in report.readings] == [
                "shuffle",
                "literal",
            ]
            # the classical evaluator agrees exactly with the element-form
            # three-term sum the report compares against
            rmap = matrix_element_to_map(r2, 2, 2)
            classical = matrix_map_to_element(ybe.cybe_residual(rmap), 2)
            assert ybe_infty.classical_cybe_element(g, r2) == classical
            # and the report states that comparison next to both readings
            assert any(
                "shuffle reading equals the classical sum" in note
                for note in report.notes
            )
            assert any("classical three-term" in note for note in report.notes)

            flags = dict(report.conventions)
            assert "shuffle reading" in flags
            assert "literal reading" in flags
            again = ybe_infty.cybe_infty_residual(g, fam, 3)
            assert report.lines() == again.lines()  # deterministic

            literal_report = ybe_infty.cybe_infty_residual(
                g, fam, 3, literal_shuffles=True
            )
            assert literal_report.governing == "literal"
            assert dict(literal_report.readings[1].terms) == dict(
                report.readings[1].terms
            )

            associative = ybe_infty.aybe_infty_residual(algebra, fam, 3)
            assoc_classical = matrix_map_to_element(
                ybe.aybe_residual(rmap), 2
            )
            assert ybe_infty.classical_aybe_element(algebra, r2) == assoc_classical
            assert any(
                "equals the classical sum" in note for note in associative.notes
            )
            assert associative.lines() == ybe_infty.aybe_infty_residual(
                algebra, fam, 3
            ).lines()

        # the solution element really is one: every reading vanishes
        solution_fam = ybe_infty.RnFamily(4, {2: dict(elements[0])})
        solution_report = ybe_infty.cybe_infty_residual(g, solution_fam, 3)
        assert all(reading.zero for reading in solution_report.readings)
        assert solution_report.passed

    verdict(9, "higher residuals against the classical evaluators", body)


def test_criterion_10_suite_determinism():
    def body():
        first = harness.run_suite(harness.default_suite())
        second = harness.run_suite(harness.default_suite())
        assert first.passed
        assert first.text().encode() == second.text().encode()

    verdict(10, "byte-identical suite reports", body)
