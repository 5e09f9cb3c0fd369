"""Truncated algebras: structure constants, quotients, and the window policy."""

import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import pytest

from ybalg.algebras import (
    Quiver,
    TruncationOverflow,
    deformed_preprojective_algebra,
    double_quiver,
    first_failure,
    free_algebra,
    path_algebra,
    polynomial_quotient_algebra,
    preprojective_algebra,
    preprojective_relation,
    quotient_algebra,
    scan,
    structural_primeness_report,
)
from ybalg import sparse
from ybalg.double import two_cycle_symplectic_bracket
from ybalg.linalg import rref
from ybalg.ybe_infty import matrix_algebra

ONE = Fraction(1)


def one_loop():
    return Quiver(("1",), (("x", "1", "1"),))


def one_arrow():
    return Quiver(("1", "2"), (("a", "1", "2"),))


class TestPolynomialQuotient:
    def test_basis_and_products(self):
        A = polynomial_quotient_algebra(5)
        assert A.labels == ["1", "x", "x^2", "x^3", "x^4"]
        x = A.index("x")
        x3 = A.index("x^3")
        assert A.mul_basis(x, x3) == {A.index("x^4"): ONE}

    def test_top_power_is_zero_not_overflow(self):
        A = polynomial_quotient_algebra(5)
        x2, x3 = A.index("x^2"), A.index("x^3")
        assert A.mul_basis(x2, x3) == {}
        assert A.mul_basis(x3, x3) == {}

    def test_associative_without_skips(self):
        A = polynomial_quotient_algebra(5)
        ok, failure, skipped = A.check_associativity()
        assert ok and failure is None and skipped == 0


class TestFreeAlgebra:
    def test_window_flags_long_products(self):
        A = free_algebra(2, cap=2)
        ab = A.index("x0x1")
        with pytest.raises(TruncationOverflow):
            A.mul_basis(ab, ab)

    def test_associativity_skips_are_counted(self):
        A = free_algebra(2, cap=2)
        ok, failure, skipped = A.check_associativity()
        assert ok and failure is None and skipped > 0

    def test_associativity_counts_skips_before_the_witness_only(self):
        # x0 x0 = x1 breaks (x0 x0) x0 = x0 (x0 x0); of the 343 triples
        # before it, 36 leave the window
        A = free_algebra(2, cap=2, mode="window")
        A.table[(1, 1)] = {2: ONE}
        assert A.check_associativity() == (False, (1, 1, 1), 36)

    def test_noncommutative(self):
        A = free_algebra(2, cap=2)
        a, b = A.index("x0"), A.index("x1")
        assert A.mul_basis(a, b) != A.mul_basis(b, a)


class TestPathAlgebra:
    def test_one_loop_cap3_basis(self):
        A = path_algebra(one_loop(), cap=3)
        assert A.labels == ["e_1", "x", "xx", "xxx"]

    def test_one_arrow_products(self):
        A = path_algebra(one_arrow(), cap=2)
        assert A.labels == ["e_1", "e_2", "a"]
        e1, e2, a = A.index("e_1"), A.index("e_2"), A.index("a")
        assert A.mul_basis(e1, a) == {a: ONE}
        assert A.mul_basis(a, e2) == {a: ONE}
        assert A.mul_basis(a, e1) == {}
        assert A.mul_basis(e2, a) == {}
        assert A.mul_basis(a, a) == {}  # endpoint mismatch, not overflow

    def test_unit_is_sum_of_idempotents(self):
        A = path_algebra(one_arrow(), cap=2)
        assert A.unit == {A.index("e_1"): ONE, A.index("e_2"): ONE}
        a = A.index("a")
        assert A.mul(A.unit, {a: ONE}) == {a: ONE}
        assert A.mul({a: ONE}, A.unit) == {a: ONE}

    def test_two_vertex_double_concatenation_overflows(self):
        A = path_algebra(double_quiver(one_arrow()), cap=2)
        aas = A.index("aa*")
        with pytest.raises(TruncationOverflow):
            A.mul_basis(aas, aas)

    def test_endpoint_mismatch_beyond_cap_is_zero(self):
        # aa* ends at vertex 1, a*a starts at vertex 2: structurally zero even
        # though the combined length exceeds the window.
        A = path_algebra(double_quiver(one_arrow()), cap=2)
        assert A.mul_basis(A.index("aa*"), A.index("a*a")) == {}

    def test_associativity_within_window(self):
        A = path_algebra(double_quiver(one_arrow()), cap=3)
        ok, failure, skipped = A.check_associativity()
        assert ok and failure is None


class TestQuiver:
    def test_double_quiver_reverses(self):
        dq = double_quiver(one_arrow())
        assert ("a*", "2", "1") in dq.edges

    def test_strong_connectivity(self):
        assert not one_arrow().is_strongly_connected()
        assert double_quiver(one_arrow()).is_strongly_connected()
        assert one_loop().is_strongly_connected()

    def test_duplicate_edge_labels_rejected(self):
        with pytest.raises(ValueError):
            Quiver(("1",), (("x", "1", "1"), ("x", "1", "1")))

    def test_bad_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Quiver(("1",), (("x", "1", "2"),))

    def test_primeness_report_mentions_criterion(self):
        lines = structural_primeness_report(double_quiver(one_arrow()))
        text = "\n".join(lines)
        assert "strongly connected" in text
        assert "not verified from first principles" in text


def associativity_by_raised_overflows(A):
    """The associativity scan that forms every product and counts a triple
    as skipped when one of them raises."""

    def defect(i, j, k):
        left = A.mul(A.mul_basis(i, j), {k: ONE})
        return left != A.mul({i: ONE}, A.mul_basis(j, k))

    triple, _, skipped = first_failure(itertools.product(range(A.nbasis), repeat=3), defect)
    return triple is None, triple, skipped


def two_loops():
    return Quiver(("v",), (("a", "v", "v"), ("b", "v", "v")))


class TestAssociativitySkips:
    def test_two_loop_preprojective_count_is_pinned(self):
        A = preprojective_algebra(two_loops(), 3)
        assert A.nbasis == 76
        assert A.check_associativity() == (True, None, 438278)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: free_algebra(2, cap=2),
            lambda: path_algebra(double_quiver(one_arrow()), cap=3),
            lambda: path_algebra(two_loops(), cap=2),
            lambda: preprojective_algebra(one_loop(), 3),
            lambda: deformed_preprojective_algebra(
                one_arrow(), {"1": Fraction(1), "2": Fraction(-1)}, 3
            ),
        ],
    )
    def test_counts_match_the_raised_overflows(self, build):
        A = build()
        assert A.check_associativity() == associativity_by_raised_overflows(A)

    def test_failing_counts_match_the_raised_overflows(self):
        A = free_algebra(2, cap=2, mode="window")
        A.table[(1, 1)] = {2: ONE}
        assert A.check_associativity() == associativity_by_raised_overflows(A)


class TestPreprojective:
    def test_one_arrow_moment_map(self):
        parent = path_algebra(double_quiver(one_arrow()), cap=2, mode="window")
        rel = preprojective_relation(one_arrow(), parent)
        assert rel == {parent.index("aa*"): ONE, parent.index("a*a"): -ONE}

    def test_one_arrow_dims(self):
        A = preprojective_algebra(one_arrow(), cap=2)
        assert A.info["dims_by_degree"] == {0: 2, 1: 2}
        assert A.nbasis == 4

    def test_jordan_quiver_matches_commutative_polynomials(self):
        # the doubled loop modulo xx* - x*x is a polynomial ring in two
        # variables; graded dimension in degree d is d + 1
        A = preprojective_algebra(one_loop(), cap=3)
        assert A.info["dims_by_degree"] == {0: 1, 1: 2, 2: 3, 3: 4}

    def test_deformed_one_arrow_collapses_to_matrix_algebra(self):
        weights = {"1": Fraction(1), "2": Fraction(-1)}
        for cap in (2, 3):
            A = deformed_preprojective_algebra(one_arrow(), weights, cap)
            assert A.nbasis == 4
            assert A.info["inhomogeneous"] is True
        # at cap 3 the unit reduces into degree <= 2 representatives
        A = deformed_preprojective_algebra(one_arrow(), weights, 3)
        ok, failure, skipped = A.check_associativity()
        assert ok and failure is None

    @pytest.mark.parametrize("cap", [0, 1])
    def test_caps_below_the_relation_degree_are_refused(self, cap):
        with pytest.raises(ValueError, match="below 2"):
            preprojective_algebra(one_loop(), cap)
        with pytest.raises(ValueError, match="below 2"):
            deformed_preprojective_algebra(one_arrow(), {"1": Fraction(1)}, cap)

    def test_quotient_is_a_window(self):
        A = preprojective_algebra(one_loop(), cap=2)
        assert A.mode == "window"
        with pytest.raises(TruncationOverflow):
            A.mul_basis(A.degrees.index(2), A.degrees.index(1))

    def test_deformed_relation_actually_cuts_the_algebra(self):
        A = deformed_preprojective_algebra(
            one_arrow(), {"1": Fraction(1), "2": Fraction(-1)}, 2
        )
        assert A.info["relation_rank"] > 0


def two_loops():
    return Quiver(("v",), (("a", "v", "v"), ("b", "v", "v")))


def ends_meet(A, i, j):
    """Whether path ``i`` ends where path ``j`` starts, read off the
    idempotents' in-cap products; every pair meets without idempotents."""
    if A.idempotents is None:
        return True
    return any(A.mul_basis(i, e) and A.mul_basis(e, j) for e in A.idempotents)


def products_digest(A):
    """A digest of every product that does not overflow."""
    rows = []
    for i in range(A.nbasis):
        for j in range(A.nbasis):
            try:
                rows.append(f"{i} {j} {sorted(A.mul_basis(i, j).items())}")
            except TruncationOverflow:
                pass
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


PATH_DIGEST = "611820fd38c1e3a5"


def per_product_quotient(parent, relation, span):
    """The quotient's table and unit with one ``reduce`` per product: the
    ideal rows ``p * relation * s`` inside ``cap - span``, then each product
    of two free columns inside the cap reduced on its own."""
    n = parent.nbasis
    rows = [
        parent.mul(parent.mul({p: ONE}, relation), {s: ONE})
        for p in range(n)
        for s in range(n)
        if parent.degrees[p] + parent.degrees[s] <= parent.cap - span
    ]
    reduced = rref([row for row in rows if row], n)
    reps = reduced.free_cols()

    def normal_form(element):
        residual = sparse.purge(reduced.reduce(element))
        return {reps.index(c): x for c, x in residual.items()}

    table = {}
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            if parent.degrees[a] + parent.degrees[b] <= parent.cap:
                value = normal_form(parent.mul_basis(a, b))
                if value:
                    table[(i, j)] = value
    return table, normal_form(parent.unit)


def in_order(table):
    """Keys and values in order, each scalar with its type."""
    return [(key, [(k, repr(c)) for k, c in value.items()]) for key, value in table.items()]


class TestQuotientTable:
    @pytest.mark.parametrize("cap", [2, 3, 4])
    @pytest.mark.parametrize(
        "quiver", [one_loop, two_loops, one_arrow], ids=["one-loop", "two-loop", "one-arrow"]
    )
    @pytest.mark.parametrize("deformed", [False, True], ids=["preprojective", "deformed"])
    def test_matches_a_per_product_reduce(self, deformed, quiver, cap):
        q = quiver()
        parent = path_algebra(double_quiver(q), cap)
        relation = preprojective_relation(q, parent)
        if deformed:
            weights = {v: Fraction(k + 2) for k, v in enumerate(q.vertices)}
            A = deformed_preprojective_algebra(q, weights, cap)
            relation = sparse.scale(relation, -1)
            for v, weight in weights.items():
                relation = sparse.add(relation, sparse.scale(parent.element(f"e_{v}"), weight))
        else:
            A = preprojective_algebra(q, cap)
        table, unit = per_product_quotient(parent, relation, 2)
        # a deformed quotient past cap 2 keeps only top-degree paths as its
        # basis, so none of its products stays inside the cap
        assert bool(A.table) == (not deformed or cap == 2)
        assert in_order(A.table) == in_order(table)
        assert in_order({"unit": A.unit}) == in_order({"unit": unit})

    @pytest.mark.parametrize("cap", [3, 4])
    def test_quotient_of_a_quotient_matches(self, cap):
        # products of several signed terms, and a unit of two fractional
        # terms, so the normal forms are scaled and merged
        parent = preprojective_algebra(two_loops(), cap)
        relation = {parent.labels.index("ab"): 2, parent.labels.index("ba"): -3}
        deformed = deformed_preprojective_algebra(one_arrow(), {"1": 2 * ONE, "2": 3 * ONE}, 2)
        for parent, relation, span in ((parent, relation, 2), (deformed, {2: ONE}, 2)):
            assert len(parent.unit) > 1 or any(len(v) > 1 for v in parent.table.values())
            A = quotient_algebra(parent, relation, span)
            table, unit = per_product_quotient(parent, relation, span)
            assert in_order(A.table) == in_order(table)
            assert in_order({"unit": A.unit}) == in_order({"unit": unit})


class TestWindowRule:
    """Window algebras raise exactly on the pairs past the cap whose ends
    meet, and every other product keeps its value."""

    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda: free_algebra(2, 2), "0504edd4ff9c9d42"),
            (lambda: path_algebra(double_quiver(one_arrow()), 3), PATH_DIGEST),
            (lambda: two_cycle_symplectic_bracket(3).algebra, PATH_DIGEST),
            (lambda: preprojective_algebra(two_loops(), 4), "b787980fd892668e"),
        ],
        ids=["free", "path", "symplectic", "preprojective"],
    )
    def test_every_pair(self, build, digest):
        A = build()
        assert A.mode == "window"
        for i in range(A.nbasis):
            for j in range(A.nbasis):
                past = A.degrees[i] + A.degrees[j] > A.cap
                if past and ends_meet(A, i, j):
                    with pytest.raises(TruncationOverflow):
                        A.mul_basis(i, j)
                else:
                    A.mul_basis(i, j)
        assert products_digest(A) == digest

    @pytest.mark.parametrize(
        "build",
        [
            lambda: polynomial_quotient_algebra(5),
            lambda: free_algebra(2, 3),
            lambda: free_algebra(2, 3, mode="quotient"),
            lambda: path_algebra(double_quiver(one_arrow()), 3),
            lambda: path_algebra(one_loop(), 3, mode="quotient"),
            lambda: preprojective_algebra(two_loops(), 4),
            lambda: deformed_preprojective_algebra(one_arrow(), {"1": ONE, "2": -ONE}, 3),
            lambda: two_cycle_symplectic_bracket(3).algebra,
            lambda: matrix_algebra(2),
        ],
        ids=[
            "polynomial", "free", "free-quotient", "path", "path-quotient",
            "preprojective", "deformed", "symplectic", "matrix",
        ],
    )
    def test_no_table_key_past_the_cap(self, build):
        A = build()
        assert all(A.degrees[i] + A.degrees[j] <= A.cap for i, j in A.table)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: preprojective_algebra(two_loops(), 4),
            lambda: preprojective_algebra(one_loop(), 3),
            lambda: deformed_preprojective_algebra(one_arrow(), {"1": ONE, "2": -ONE}, 2),
        ],
        ids=["preprojective", "jordan", "deformed"],
    )
    def test_quotient_table_scalars_are_canonical(self, build):
        # an integral coefficient is an int, never a Fraction with denominator 1
        A = build()
        scalars = [c for value in A.table.values() for c in value.values()]
        assert scalars
        assert all(
            type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in scalars
        )

    def test_preprojective_build_traces_under_three_mib(self):
        tracemalloc.start()
        try:
            preprojective_algebra(two_loops(), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestScan:
    """The one walk of every exhaustive check over basis tuples."""

    @staticmethod
    def defect(x):
        if x % 3 == 0:
            raise TruncationOverflow("past the cap")
        return {x: ONE} if x % 4 == 1 else {}

    def test_yields_failures_and_skips_in_order(self):
        tuples = [(x,) for x in range(10)]
        assert list(scan(tuples, self.defect)) == [
            ((0,), None), ((1,), {1: ONE}), ((3,), None), ((5,), {5: ONE}),
            ((6,), None), ((9,), None),
        ]

    def test_first_failure_counts_skips_before_the_witness(self):
        assert first_failure([(x,) for x in range(10)], self.defect) == ((1,), {1: ONE}, 1)
        assert first_failure([(x,) for x in (3, 6, 5)], self.defect) == ((5,), {5: ONE}, 2)

    def test_first_failure_on_a_pass_counts_every_skip(self):
        tuples = [(x,) for x in (0, 2, 3, 4, 6)]
        assert first_failure(tuples, self.defect) == (None, None, 3)
