"""Double brackets: extension, axioms, and the bridge to the associative residual."""

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybalg import sparse
from ybalg.algebras import (
    Quiver,
    TruncatedAlgebra,
    TruncationOverflow,
    double_quiver,
    path_algebra,
    polynomial_quotient_algebra,
)
from ybalg.double import (
    DoubleBracket,
    _columns,
    _expansion_identity_holds,
    _mul_slot,
    almcybe_check,
    check_double_axioms,
    commutative_remark_checks,
    dbjac_residual,
    dbjac_to_aybe,
    dbpoiss_defect,
    dbskew_defect,
    double_jacobi_residual_map,
    double_lie_iff_skew_aybe,
    extend_by_derivations,
    extension_consistency_check,
    one_variable_lambda_bracket,
    t2_swap,
    two_cycle_symplectic_bracket,
)
from ybalg.fixtures import enumerate_skew_maps, random_skew_map
from ybalg.twisted import TensorWordBracket, check_bracket_extension
from ybalg.tensoralg import TensorMap
from ybalg.ybe import aybe_prime_residual, aybe_residual, cybe_residual, is_skew

ONE = Fraction(1)
LAM = Fraction(3, 2)


def lambda_bracket(power=5, lam=LAM):
    return one_variable_lambda_bracket(power, lam)


def power_index(algebra, p):
    if p == 0:
        return algebra.index("1")
    return algebra.index(f"x^{p}" if p > 1 else "x")


class TestOneVariableBracket:
    def test_generator_value(self):
        db = lambda_bracket()
        A = db.algebra
        x, one = A.index("x"), A.index("1")
        assert db.value(x, x) == {(x, one): LAM, (one, x): -LAM}

    def test_unit_brackets_vanish(self):
        db = lambda_bracket()
        A = db.algebra
        one = A.index("1")
        assert all(not db.value(one, j) for j in range(A.nbasis))
        assert all(not db.value(i, one) for i in range(A.nbasis))

    def test_closed_form_x_against_powers(self):
        db = lambda_bracket()
        A = db.algebra
        x, one = A.index("x"), A.index("1")
        for n in range(1, 5):
            xn = power_index(A, n)
            assert db.value(x, xn) == {(xn, one): LAM, (one, xn): -LAM}

    def test_closed_form_powers_against_powers(self):
        # {{x^m, x^n}} = lam (x^n (x) 1 - 1 (x) x^n) . sum_k x^k (x) x^{m-1-k}
        db = lambda_bracket()
        A = db.algebra
        for m in range(1, 5):
            for n in range(1, 5):
                expect = {}
                for k in range(m):
                    if n + k < 5:
                        key = (power_index(A, n + k), power_index(A, m - 1 - k))
                        expect[key] = expect.get(key, Fraction(0)) + LAM
                    if n + m - 1 - k < 5:
                        key = (power_index(A, k), power_index(A, n + m - 1 - k))
                        expect[key] = expect.get(key, Fraction(0)) - LAM
                expect = {k: v for k, v in expect.items() if v}
                assert db.value(power_index(A, m), power_index(A, n)) == expect

    def test_descends_to_quotient_exactly(self):
        # the defining value at the killed power vanishes, so quotient mode
        # introduces no error: all axioms hold with nothing skipped
        report = check_double_axioms(lambda_bracket())
        assert report.passed
        assert all(c.skipped == 0 for c in report.checks)

    def test_axioms_for_various_lambda(self):
        for lam in (Fraction(1), Fraction(-2), Fraction(5, 7)):
            assert check_double_axioms(lambda_bracket(lam=lam)).passed

    def test_integral_multiple_clears_denominators(self):
        db = lambda_bracket(lam=Fraction(5, 6))
        multiple = db.integral_multiple()
        assert multiple.table == {
            key: sparse.scale(val, 6) for key, val in db.table.items()
        }
        assert all(
            type(c) is int for val in multiple.table.values() for c in val.values()
        )
        integral = lambda_bracket(lam=Fraction(-2))
        assert integral.integral_multiple() is integral

    def test_checks_on_fractional_bracket_match_the_defects(self):
        # the checks run on an integral multiple; their verdicts and
        # witnesses must be those of the bracket's own defects
        db = lambda_bracket(lam=Fraction(5, 6))
        A = db.algebra
        x = A.index("x")
        table = dict(db.table)
        table[(x, x)] = sparse.add(table[(x, x)], {(x, x): Fraction(1, 7)})
        bad = DoubleBracket(A, table)
        n = A.nbasis
        pairs = [(i, j) for i in range(n) for j in range(n)]
        triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
        expect = {
            "antisymmetry": next((p for p in pairs if dbskew_defect(bad, *p)), None),
            "jacobi": next((t for t in triples if dbjac_residual(bad, *t)), None),
            "leibniz": next((t for t in triples if dbpoiss_defect(bad, *t)), None),
        }
        report = check_double_axioms(bad)
        assert {c.name: c.witness for c in report.checks} == expect
        assert expect["leibniz"] is not None
        comparison = almcybe_check(bad)
        assert comparison.leibniz_precondition is False
        assert comparison.cybe_precondition == cybe_residual(bad.as_tensor_map()).is_zero()

    def test_extension_consistent_both_orders(self):
        A = polynomial_quotient_algebra(5)
        x, one = A.index("x"), A.index("1")
        values = {(x, x): {(x, one): LAM, (one, x): -LAM}}
        ok, witness = extension_consistency_check(A, values)
        assert ok and witness is None

    def test_induced_map_solves_both_equations(self):
        r = lambda_bracket().as_tensor_map()
        assert is_skew(r)
        assert aybe_residual(r).is_zero()
        assert cybe_residual(r).is_zero()

    def test_one_sided_multiplication_comparison(self):
        report = almcybe_check(lambda_bracket())
        assert report.passed
        assert report.leibniz_precondition and report.cybe_precondition

    def test_commutative_remark(self):
        report = commutative_remark_checks(lambda_bracket())
        assert report.passed
        assert report.commutative

    def test_commutative_remark_detects_perturbation(self):
        db = lambda_bracket()
        A = db.algebra
        x2 = A.index("x^2")
        one = A.index("1")
        table = {k: dict(v) for k, v in db.table.items()}
        # break the derivation structure at a single pair
        table[(x2, x2)] = sparse.add(table.get((x2, x2), {}), {(one, one): ONE})
        broken = DoubleBracket(A, table)
        report = commutative_remark_checks(broken)
        assert not report.two_variable_holds
        assert report.two_variable_witness is not None


class TestSymplecticBracket:
    def test_window_closed_at_cap_two(self):
        db = two_cycle_symplectic_bracket(cap=2)
        assert not db.overflow_pairs

    def test_axioms(self):
        report = check_double_axioms(two_cycle_symplectic_bracket(cap=2))
        assert report.passed

    def test_wrong_idempotent_placement_fails_leibniz(self):
        # putting the slots in the other order violates compatibility with
        # a* = e_2 a*: the derivation rule fails at (a, e_1, a*)
        base = Quiver(("1", "2"), (("a", "1", "2"),))
        A = path_algebra(double_quiver(base), 2, mode="window")
        a, astar = A.index("a"), A.index("a*")
        e1, e2 = A.index("e_1"), A.index("e_2")
        bad = extend_by_derivations(
            A, {(a, astar): {(e1, e2): ONE}, (astar, a): {(e2, e1): -ONE}}
        )
        report = check_double_axioms(bad)
        leibniz = next(c for c in report.checks if c.name == "leibniz")
        assert not leibniz.passed

    def test_extension_values(self):
        db = two_cycle_symplectic_bracket(cap=2)
        A = db.algebra
        a, astar = A.index("a"), A.index("a*")
        e2 = A.index("e_2")
        # {{a, a*a}} = (a* (x) 1){{a,a}} + {{a,a*}}(1 (x) a) = e_2 (x) a
        assert db.value(a, A.index("a*a")) == {(e2, a): ONE}
        # {{aa*, a*}} = (1 (x) a){{a*,a*}} + {{a,a*}}(a* (x) 1) = a* (x) e_1
        assert db.value(A.index("aa*"), astar) == {(astar, A.index("e_1")): ONE}

    def test_consistency_both_orders(self):
        db = two_cycle_symplectic_bracket(cap=2)
        A = db.algebra
        a, astar = A.index("a"), A.index("a*")
        e1, e2 = A.index("e_1"), A.index("e_2")
        ok, witness = extension_consistency_check(
            A, {(a, astar): {(e2, e1): ONE}, (astar, a): {(e1, e2): -ONE}}
        )
        assert ok and witness is None

    def test_one_sided_multiplication_comparison(self):
        report = almcybe_check(two_cycle_symplectic_bracket(cap=2))
        assert report.passed

    def test_cap_three_overflow_flagged_not_crashed(self):
        db = two_cycle_symplectic_bracket(cap=3)
        assert db.overflow_pairs
        with pytest.raises(TruncationOverflow):
            db.value(*sorted(db.overflow_pairs)[0])
        report = check_double_axioms(db)
        assert report.passed  # in-window tuples all hold
        assert any(c.skipped for c in report.checks)

    def test_cap_three_map_level_refused(self):
        with pytest.raises(TruncationOverflow):
            two_cycle_symplectic_bracket(cap=3).as_tensor_map()


class TestTensorSquareHelpers:
    def test_swap_involution(self):
        t = {(0, 1): ONE, (2, 2): Fraction(-3)}
        assert t2_swap(t2_swap(t)) == t

    def test_add_cancels(self):
        t = {(0, 1): ONE}
        assert sparse.add(t, sparse.scale(t, -1)) == {}


class TestMapLevelBridge:
    def test_jacobi_residual_matches_manual_embedding(self):
        from ybalg.tensoralg import embed_components

        rng = random.Random(7)
        for _ in range(20):
            r = random_skew_map(2, rng)
            r12 = embed_components(r, (1, 2), 3)
            r23 = embed_components(r, (2, 3), 3)
            r31 = embed_components(r, (3, 1), 3)
            manual = r12.compose(r23) + r23.compose(r31) + r31.compose(r12)
            assert double_jacobi_residual_map(r) == manual

    def test_residual_transform_on_random_skew(self):
        rng = random.Random(11)
        for _ in range(30):
            r = random_skew_map(rng.choice((1, 2, 3)), rng)
            residual = double_jacobi_residual_map(r)
            assert -residual.conjugate_by_perm((2, 1, 0)) == aybe_residual(r)

    def test_iff_on_sign_entry_enumeration(self):
        lhs_count = rhs_count = 0
        for r in enumerate_skew_maps(2, (-1, 0, 1)):
            lhs, rhs, eq = double_lie_iff_skew_aybe(r)
            assert eq
            lhs_count += lhs
            rhs_count += rhs
        assert lhs_count == rhs_count == 17

    def test_round_trip_table_and_map(self):
        db = lambda_bracket()
        r = db.as_tensor_map()
        back = DoubleBracket.from_tensor_map(db.algebra, r)
        assert back.table == db.table

    def test_skew_aybe_solution_extends_to_twisted_bracket(self):
        # bracket induced on tensor words by a skew solution of the
        # associative equation passes the degreewise extension checks
        db = two_cycle_symplectic_bracket(cap=2)
        r = db.as_tensor_map()
        assert is_skew(r) and cybe_residual(r).is_zero()
        report = check_bracket_extension(r, max_degree=2)
        assert report.passed


class TestDegenerateBrackets:
    def test_zero_bracket_satisfies_axioms(self):
        A = polynomial_quotient_algebra(4)
        db = extend_by_derivations(A, {})
        assert check_double_axioms(db).passed

    def test_nonskew_table_caught(self):
        A = polynomial_quotient_algebra(3)
        x, one = A.index("x"), A.index("1")
        db = extend_by_derivations(A, {(x, x): {(x, one): ONE}})
        report = check_double_axioms(db)
        anti = next(c for c in report.checks if c.name == "antisymmetry")
        assert not anti.passed
        assert anti.witness == (x, x)


def _apply3_by_words(map3, x, y, z):
    """The expansion identity's map application, one ``apply_word`` per basis triple."""
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            for k, ck in z.items():
                sparse.accumulate(out, map3.apply_word((i, j, k)).terms.items(), ci * cj * ck)
    return sparse.purge(out)


def _expansion_by_words(db, aybe, aybe_p, cybe, a, b1, b2, c):
    A = db.algebra
    lhs = _apply3_by_words(cybe, {a: ONE}, A.mul_basis(b1, b2), {c: ONE})
    t1 = _mul_slot(A, _apply3_by_words(aybe, {a: ONE}, {b2: ONE}, {c: ONE}), 0, {b1: ONE}, "left")
    t2 = _mul_slot(A, _apply3_by_words(aybe_p, {a: ONE}, {b2: ONE}, {c: ONE}), 2, {b1: ONE}, "left")
    t3 = _mul_slot(A, _apply3_by_words(cybe, {a: ONE}, {b1: ONE}, {c: ONE}), 1, {b2: ONE}, "right")
    rhs = dict(t1)
    sparse.accumulate(rhs, t2.items(), -1)
    sparse.accumulate(rhs, t3.items())
    return sparse.purge(rhs) == lhs


def _verdict(check, *args):
    try:
        return check(*args)
    except TruncationOverflow:
        return "skipped"


def _doubled_products(db):
    """The bracket over a copy of its algebra whose products are doubled."""
    A = db.algebra
    table = {key: sparse.scale(val, 2) for key, val in A.table.items()}
    return DoubleBracket(TruncatedAlgebra(A.labels, A.degrees, table, A.unit, A.mode, A.cap), db.table)


@pytest.mark.parametrize(
    "db",
    [lambda_bracket(), two_cycle_symplectic_bracket(cap=2), _doubled_products(lambda_bracket())],
    ids=["lambda", "symplectic", "doubled-products"],
)
def test_expansion_columns_match_the_word_by_word_oracle(db):
    db = db.integral_multiple()
    n = db.algebra.nbasis
    r = db.as_tensor_map()
    # the bracket's own residuals vanish; one perturbed entry of its map
    # leaves nonzero ones, on which some quadruples fail
    perturbed = r + TensorMap(n, 2, 2, {((0, 1), (1, 1)): 1})
    for m in (r, perturbed):
        maps = [aybe_residual(m), aybe_prime_residual(m), cybe_residual(m)]
        columns = [_columns(x) for x in maps]
        verdicts = collections.Counter()
        for quad in itertools.product(range(n), repeat=4):
            want = _verdict(_expansion_by_words, db, *maps, *quad)
            assert _verdict(_expansion_identity_holds, db, *columns, *quad) == want, quad
            verdicts[want] += 1
        assert verdicts[True] > 0
        assert (verdicts[False] > 0) == (m is perturbed)
