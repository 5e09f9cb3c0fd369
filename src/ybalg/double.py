"""Double brackets on associative algebras.

A double bracket sends a pair of algebra elements to an element of the tensor
square of the algebra.  Two settings are covered:

* the *free* (vector-space) setting, where a bracket is literally a tensor map
  on the square of the generating space and all identities are map identities;
* the *algebra* setting, where a table over a truncated algebra basis is
  extended by the derivation rules

  - second argument (postulated):  {{a, bc}} = (b (x) 1){{a, c}} + {{a, b}}(1 (x) c)
  - first argument (derived from antisymmetry, never postulated):
    {{ab, c}} = (1 (x) a){{b, c}} + {{a, c}}(b (x) 1)

  and the axioms are re-verified exactly on basis tuples.

Antisymmetry here is ``{{b, a}} = -(21){{a, b}}`` where (21) swaps the two
tensor factors; the cyclic Jacobi identity carries no signs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import sparse
from .algebras import Element, TruncatedAlgebra, TruncationOverflow
from .sparse import ONE
from .tensoralg import TensorMap, Word, embed_components, word_permute
from .ybe import PRODUCTS, aybe_prime_residual, aybe_residual, cybe_residual, is_skew

Elt2 = dict[tuple[int, int], Fraction]  # sparse elements of A (x) A
Elt3 = dict[tuple[int, int, int], Fraction]

CONVENTIONS: dict[str, str] = {
    "dbskew": "{{b,a}} = -(21){{a,b}}",
    "dbjac": "sum of the three (231)-conjugates of {{-,{{-,-}}}}_L vanishes",
    "dbpoiss": "{{a,bc}} = (b(x)1){{a,c}} + {{a,b}}(1(x)c)",
    "first_arg_rule": "{{ab,c}} = (1(x)a){{b,c}} + {{a,c}}(b(x)1), derived not postulated",
}


def t2_swap(x: Elt2) -> Elt2:
    return {(l, k): c for (k, l), c in x.items()}


def _mul_slot(algebra: TruncatedAlgebra, t: dict, slot: int, a: Element, side: str) -> dict:
    """Multiply one tensor slot of a sparse tensor by an algebra element."""
    out: dict = {}
    for key, coeff in t.items():
        target = {key[slot]: ONE}
        prod = algebra.mul(a, target) if side == "left" else algebra.mul(target, a)
        sparse.accumulate(
            out,
            ((key[:slot] + (idx,) + key[slot + 1 :], c2) for idx, c2 in prod.items()),
            coeff,
        )
    return sparse.purge(out)


class DoubleBracket:
    """A bracket table over the basis of a truncated algebra.

    Pairs whose extension left the truncation window are recorded in
    ``overflow_pairs``; asking for their value raises, and the axiom checks
    flag rather than silently skip them.
    """

    def __init__(
        self,
        algebra: TruncatedAlgebra,
        table: dict[tuple[int, int], Elt2],
        overflow_pairs: frozenset[tuple[int, int]] = frozenset(),
    ):
        self.algebra = algebra
        purged = ((key, sparse.purge(val)) for key, val in table.items())
        self.table = {key: val for key, val in purged if val}
        self.overflow_pairs = overflow_pairs

    def value(self, i: int, j: int) -> Elt2:
        if (i, j) in self.overflow_pairs:
            raise TruncationOverflow(f"bracket value at pair {(i, j)} left the window")
        return self.table.get((i, j), {})

    def value_el(self, x: Element, y: Element) -> Elt2:
        total: Elt2 = {}
        for i, ci in x.items():
            for j, cj in y.items():
                sparse.accumulate(total, self.value(i, j).items(), ci * cj)
        return sparse.purge(total)

    def integral_multiple(self) -> "DoubleBracket":
        """The bracket times the least common multiple of its denominators.

        The axiom checks and the multiplication comparison test identities
        that are linear or quadratic in the bracket, so a nonzero multiple
        passes and fails them exactly where the bracket does.  With integer
        coefficients they run on integer arithmetic, whatever denominators
        the input carries.
        """
        m = math.lcm(*(
            c.denominator for val in self.table.values() for c in val.values()
            if type(c) is Fraction
        ))
        if m == 1:
            return self
        table = {key: sparse.scale(val, m) for key, val in self.table.items()}
        return DoubleBracket(self.algebra, table, self.overflow_pairs)

    def as_tensor_map(self) -> TensorMap:
        """The bracket as a map on the square of the basis-index alphabet."""
        if self.overflow_pairs:
            raise TruncationOverflow(
                "bracket table is incomplete inside the window; raise the cap"
            )
        entries = {
            (out_pair, in_pair): coeff
            for in_pair, val in self.table.items()
            for out_pair, coeff in val.items()
        }
        return TensorMap(self.algebra.nbasis, 2, 2, entries)

    @classmethod
    def from_tensor_map(cls, algebra: TruncatedAlgebra, r: TensorMap) -> "DoubleBracket":
        if r.dim != algebra.nbasis or r.dom_deg != 2 or r.cod_deg != 2:
            raise ValueError("map shape does not match the algebra basis")
        table: dict[tuple[int, int], Elt2] = {}
        for (out_pair, in_pair), coeff in r.entries.items():
            table.setdefault(in_pair, {})[out_pair] = coeff
        return cls(algebra, table)

    to_tensor_map = as_tensor_map


def extend_by_derivations(
    algebra: TruncatedAlgebra,
    generator_values: dict[tuple[int, int], Elt2],
    first_argument_first: bool = False,
) -> DoubleBracket:
    """Extend generator values to the whole basis via the derivation rules.

    Basis elements with a recorded factorization are peeled; atoms fall back
    to the generator table (default zero — in particular idempotents and the
    unit).  ``first_argument_first`` flips which argument is peeled first,
    which must not change the result (see :func:`extension_consistency_check`).
    """
    if algebra.factorizations is None:
        raise ValueError("algebra records no factorizations to extend along")
    fact = algebra.factorizations
    cache: dict[tuple[int, int], Elt2 | None] = {}

    def db(i: int, j: int) -> Elt2:
        key = (i, j)
        if key in cache:
            if cache[key] is None:
                raise ValueError(f"cyclic factorization chain at basis pair {key}")
            return cache[key]
        cache[key] = None  # re-entrancy marker
        orders = ("second", "first") if not first_argument_first else ("first", "second")
        result: Elt2 | None = None
        for which in orders:
            if which == "second" and fact[j] is not None:
                g, rest = fact[j]
                inner = db_el(i, rest)
                term1 = _mul_slot(algebra, inner, 0, {g: ONE}, "left")
                term2: Elt2 = {}
                for (k, l), coeff in db(i, g).items():
                    for ridx, rc in rest.items():
                        prod = algebra.mul({l: ONE}, {ridx: ONE})
                        sparse.accumulate(
                            term2, (((k, m), pc) for m, pc in prod.items()), coeff * rc
                        )
                result = sparse.add(term1, term2)
                break
            if which == "first" and fact[i] is not None:
                g, rest = fact[i]
                inner = db_el_first(rest, j)
                term1 = _mul_slot(algebra, inner, 1, {g: ONE}, "left")
                term2: Elt2 = {}
                for (k, l), coeff in db(g, j).items():
                    for ridx, rc in rest.items():
                        prod = algebra.mul({k: ONE}, {ridx: ONE})
                        sparse.accumulate(
                            term2, (((m, l), pc) for m, pc in prod.items()), coeff * rc
                        )
                result = sparse.add(term1, term2)
                break
        if result is None:
            result = sparse.purge(generator_values.get(key, {}))
        cache[key] = result
        return result

    def db_el(i: int, y: Element) -> Elt2:
        total: Elt2 = {}
        for j, cj in y.items():
            sparse.accumulate(total, db(i, j).items(), cj)
        return sparse.purge(total)

    def db_el_first(x: Element, j: int) -> Elt2:
        total: Elt2 = {}
        for i, ci in x.items():
            sparse.accumulate(total, db(i, j).items(), ci)
        return sparse.purge(total)

    n = algebra.nbasis
    table: dict[tuple[int, int], Elt2] = {}
    overflow: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(n):
            try:
                table[(i, j)] = db(i, j)
            except TruncationOverflow:
                overflow.add((i, j))
                for key in [k for k, v in cache.items() if v is None]:
                    del cache[key]  # clear markers left on the aborted stack
    return DoubleBracket(algebra, table, frozenset(overflow))


def extension_consistency_check(
    algebra: TruncatedAlgebra, generator_values: dict[tuple[int, int], Elt2]
) -> tuple[bool, tuple[int, int] | None]:
    """Both peeling orders must produce the same table (no overdetermination)."""
    a = extend_by_derivations(algebra, generator_values, first_argument_first=False)
    b = extend_by_derivations(algebra, generator_values, first_argument_first=True)
    n = algebra.nbasis
    for i in range(n):
        for j in range(n):
            if (i, j) in a.overflow_pairs or (i, j) in b.overflow_pairs:
                continue  # only comparable where both routes stayed in the window
            if a.value(i, j) != b.value(i, j):
                return False, (i, j)
    return True, None


# ---------------------------------------------------------------------------
# axiom checks on an algebra
# ---------------------------------------------------------------------------


def dbskew_defect(db: DoubleBracket, i: int, j: int) -> Elt2:
    return sparse.add(db.value(j, i), t2_swap(db.value(i, j)))


def _inner_first(db: DoubleBracket, a: int, value: Elt2) -> Elt3:
    """{{a, -}} applied to the first slot of a tensor-square element."""
    out: Elt3 = {}
    for (k, l), coeff in value.items():
        sparse.accumulate(
            out, (((x, y, l), c2) for (x, y), c2 in db.value(a, k).items()), coeff
        )
    return sparse.purge(out)


def dbjac_residual(db: DoubleBracket, i: int, j: int, k: int) -> Elt3:
    """Cyclic sum of (231)-conjugates of the left-nested double bracket."""
    cycle = (1, 2, 0)  # one-line (231): slot content 1->2, 2->3, 3->1

    def T(a, b, c):
        return _inner_first(db, a, db.value(b, c))

    total: Elt3 = dict(T(i, j, k))
    sparse.accumulate(
        total, ((word_permute(cycle, key), c) for key, c in T(j, k, i).items())
    )
    sparse.accumulate(
        total,
        (
            (word_permute(cycle, word_permute(cycle, key)), c)
            for key, c in T(k, i, j).items()
        ),
    )
    return sparse.purge(total)


def dbpoiss_defect(db: DoubleBracket, i: int, j: int, k: int) -> Elt2:
    """May raise TruncationOverflow in window mode; callers flag the triple."""
    algebra = db.algebra
    lhs = db.value_el({i: ONE}, algebra.mul_basis(j, k))
    term1 = _mul_slot(algebra, db.value(i, k), 0, {j: ONE}, "left")
    term2 = _mul_slot(algebra, db.value(i, j), 1, {k: ONE}, "right")
    return sparse.add(lhs, sparse.scale(sparse.add(term1, term2), -1))


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: tuple | None
    skipped: int = 0

    def line(self, algebra: TruncatedAlgebra) -> str:
        tail = f" ({self.skipped} tuples beyond the window skipped)" if self.skipped else ""
        if self.passed:
            return f"{self.name}: PASS{tail}"
        args = ", ".join(algebra.labels[t] for t in self.witness)
        return f"{self.name}: FAIL at ({args}){tail}"


@dataclass(frozen=True)
class DoubleAxiomReport:
    algebra_kind: str
    checks: tuple[AxiomCheck, ...]
    conventions: tuple[tuple[str, str], ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self, algebra: TruncatedAlgebra) -> list[str]:
        out = [f"double bracket axioms on {self.algebra_kind} algebra"]
        out.extend(c.line(algebra) for c in self.checks)
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        out.extend(f"convention {k}: {v}" for k, v in self.conventions)
        return out


def _first_failure(db: DoubleBracket, defect, arity: int):
    """The first basis tuple, in lexicographic order, where ``defect`` is
    nonzero (``None`` if there is none), and how many tuples before it
    overflowed the window."""
    skipped = 0
    for args in itertools.product(range(db.algebra.nbasis), repeat=arity):
        try:
            if defect(db, *args):
                return args, skipped
        except TruncationOverflow:
            skipped += 1
    return None, skipped


def check_double_axioms(db: DoubleBracket) -> DoubleAxiomReport:
    db = db.integral_multiple()
    algebra = db.algebra
    checks = []
    for name, defect, arity in (
        ("antisymmetry", dbskew_defect, 2),
        ("jacobi", dbjac_residual, 3),
        ("leibniz", dbpoiss_defect, 3),
    ):
        witness, skipped = _first_failure(db, defect, arity)
        checks.append(AxiomCheck(name, witness is None, witness, skipped))

    return DoubleAxiomReport(
        algebra_kind=algebra.info.get("kind", "unknown"),
        checks=tuple(checks),
        conventions=tuple(sorted(CONVENTIONS.items())),
    )


# ---------------------------------------------------------------------------
# the free (map-level) setting
# ---------------------------------------------------------------------------


def double_jacobi_residual_map(r: TensorMap) -> TensorMap:
    """``r12 r23 + r23 r31 + r31 r12`` as a map on cubes."""
    r12 = embed_components(r, (1, 2), 3)
    r23 = embed_components(r, (2, 3), 3)
    r31 = embed_components(r, (3, 1), 3)
    return r12.compose(r23) + r23.compose(r31) + r31.compose(r12)


#: :func:`double_jacobi_residual_map` as a table of ``ybe.PRODUCTS``
JACOBI_PRODUCTS = (
    (1, (1, 2), (2, 3), (0, 1, 2)), (1, (2, 3), (3, 1), (0, 1, 2)), (1, (3, 1), (1, 2), (0, 1, 2)),
)


@dataclass(frozen=True)
class JacobiToAybeReport:
    dim: int
    r_is_skew: bool
    residual_zero: bool
    aybe_zero: bool
    transform_matches_aybe: bool

    @property
    def passed(self) -> bool:
        return self.r_is_skew and self.transform_matches_aybe

    @property
    def double_lie(self) -> bool:
        """Whether ``r`` is skew with a zero double-Jacobi residual."""
        return self.r_is_skew and self.residual_zero

    @property
    def skew_aybe(self) -> bool:
        """Whether ``r`` is skew with a zero associative residual."""
        return self.r_is_skew and self.aybe_zero

    def lines(self) -> list[str]:
        return [
            f"double-jacobi residual to associative residual, dim {self.dim}",
            f"precondition skew: {'holds' if self.r_is_skew else 'FAILS'}",
            f"double-jacobi residual zero: {self.residual_zero}",
            f"associative residual zero: {self.aybe_zero}",
            f"negated (321)-conjugate of the residual equals the associative residual: "
            f"{self.transform_matches_aybe}",
            f"result: {'PASS' if self.passed else 'FAIL'}",
        ]


def dbjac_to_aybe(r: TensorMap) -> JacobiToAybeReport:
    """Mechanize the proof step: permute slots 1 and 3, negate, use skewness.

    For skew ``r`` the transformed double-Jacobi residual equals the
    associative residual as a map, so one vanishes iff the other does.
    """
    skew = is_skew(r)
    residual = double_jacobi_residual_map(r)
    transformed = -residual.conjugate_by_perm((2, 1, 0))
    aybe = aybe_residual(r)
    return JacobiToAybeReport(
        dim=r.dim,
        r_is_skew=skew,
        residual_zero=residual.is_zero(),
        aybe_zero=aybe.is_zero(),
        transform_matches_aybe=skew and transformed == aybe,
    )


def dbjac_transform_defect(r: TensorMap) -> TensorMap:
    """The negated (321)-conjugate of the double-Jacobi residual minus ``aybe(r)``.

    Zero exactly when the transform in :func:`dbjac_to_aybe` matches the
    associative residual; like both of them it is quadratic in ``r``.
    """
    transformed = -double_jacobi_residual_map(r).conjugate_by_perm((2, 1, 0))
    return transformed - aybe_residual(r)


#: :func:`dbjac_transform_defect` as a table of ``ybe.PRODUCTS``
TRANSFORM_PRODUCTS = tuple((-c, a, b, (2, 1, 0)) for c, a, b, _ in JACOBI_PRODUCTS) + tuple(
    (-c, a, b, p) for c, a, b, p in PRODUCTS["aybe"]
)


def double_lie_iff_skew_aybe(r: TensorMap) -> tuple[bool, bool, bool]:
    """(axioms hold, skew-and-associative-solution, equivalence) for one map."""
    report = dbjac_to_aybe(r)
    return report.double_lie, report.skew_aybe, report.double_lie == report.skew_aybe


# ---------------------------------------------------------------------------
# the one-sided multiplication comparison on the associative residual
# ---------------------------------------------------------------------------


def left_mult_operator(algebra: TruncatedAlgebra, a: int) -> TensorMap:
    entries = {}
    for x in range(algebra.nbasis):
        for k, coeff in algebra.mul_basis(a, x).items():
            entries[((k,), (x,))] = coeff
    return TensorMap(algebra.nbasis, 1, 1, entries)


@dataclass(frozen=True)
class MultCompareReport:
    algebra_kind: str
    leibniz_precondition: bool
    cybe_precondition: bool
    comparison_holds: bool
    expansion_identity_holds: bool
    skipped: int

    @property
    def passed(self) -> bool:
        return (
            self.leibniz_precondition
            and self.cybe_precondition
            and self.comparison_holds
            and self.expansion_identity_holds
        )

    def lines(self) -> list[str]:
        return [
            f"one-sided multiplication comparison on {self.algebra_kind} algebra",
            f"precondition leibniz (second-argument rule): "
            f"{'holds' if self.leibniz_precondition else 'FAILS'}",
            f"precondition classical residual zero: "
            f"{'holds' if self.cybe_precondition else 'FAILS'}",
            f"(a(x)1(x)1) AYBE = (1(x)1(x)a) AYBE for all basis a: {self.comparison_holds}",
            f"expansion identity on sampled triples: {self.expansion_identity_holds}",
            f"tuples beyond the window skipped: {self.skipped}",
            f"result: {'PASS' if self.passed else 'FAIL'}",
        ]


def almcybe_check(db: DoubleBracket, sample_stride: int = 1) -> MultCompareReport:
    """Check the one-sided multiplication identity on the associative residual.

    Preconditions (verified, reported separately from the conclusion): the
    second-argument derivation rule holds on basis triples, and the classical
    residual of the bracket's map vanishes.  The conclusion compares
    ``(a (x) 1 (x) 1) AYBE(r)`` with ``(1 (x) 1 (x) a) AYBE(r)`` for every
    basis element ``a``, and also re-derives the expansion identity
    for the classical residual against a middle-slot product on sampled
    basis triples.
    """
    db = db.integral_multiple()
    algebra = db.algebra
    n = algebra.nbasis
    skipped = 0

    leibniz_ok = True
    for i, j, k in itertools.product(range(n), repeat=3):
        try:
            if dbpoiss_defect(db, i, j, k):
                leibniz_ok = False
        except TruncationOverflow:
            skipped += 1

    r = db.as_tensor_map()
    cybe = cybe_residual(r)
    aybe = aybe_residual(r)
    aybe_p = aybe_prime_residual(r)
    cybe_ok = cybe.is_zero()

    comparison = True
    for a in range(n):
        try:
            left = embed_components(left_mult_operator(algebra, a), (1,), 3)
            right = embed_components(left_mult_operator(algebra, a), (3,), 3)
        except TruncationOverflow:
            skipped += 1
            continue
        if left.compose(aybe) != right.compose(aybe):
            comparison = False
            break

    expansion = True
    columns = _columns(aybe), _columns(aybe_p), _columns(cybe)
    indices = list(range(0, n, sample_stride)) or [0]
    for quadruple in itertools.product(indices, repeat=4):
        try:
            if not _expansion_identity_holds(db, *columns, *quadruple):
                expansion = False
                break
        except TruncationOverflow:
            skipped += 1

    return MultCompareReport(
        algebra_kind=algebra.info.get("kind", "unknown"),
        leibniz_precondition=leibniz_ok,
        cybe_precondition=cybe_ok,
        comparison_holds=comparison,
        expansion_identity_holds=expansion,
        skipped=skipped,
    )


def _columns(map3: TensorMap) -> dict:
    """The map as input word -> its nonzero image, read by the expansion identity."""
    out: dict = {}
    for (o, i), c in map3.entries.items():
        out.setdefault(i, {})[o] = c
    return out


def _expansion_identity_holds(
    db: DoubleBracket,
    aybe: dict,
    aybe_p: dict,
    cybe: dict,
    a: int,
    b1: int,
    b2: int,
    c: int,
) -> bool:
    algebra = db.algebra
    lhs: Elt3 = {}
    for m, cm in algebra.mul_basis(b1, b2).items():
        sparse.accumulate(lhs, cybe.get((a, m, c), {}).items(), cm)
    t1 = _mul_slot(algebra, aybe.get((a, b2, c), {}), 0, {b1: ONE}, "left")
    t2 = _mul_slot(algebra, aybe_p.get((a, b2, c), {}), 2, {b1: ONE}, "left")
    t3 = _mul_slot(algebra, cybe.get((a, b1, c), {}), 1, {b2: ONE}, "right")
    rhs: Elt3 = dict(t1)
    sparse.accumulate(rhs, t2.items(), -1)
    sparse.accumulate(rhs, t3.items())
    return sparse.purge(rhs) == sparse.purge(lhs)


# ---------------------------------------------------------------------------
# the commutative remark
# ---------------------------------------------------------------------------


def _diff_op(algebra: TruncatedAlgebra, a: int, t: Elt2) -> Elt2:
    """Apply ``a (x) 1 - 1 (x) a`` by multiplication to a tensor-square element."""
    return sparse.add(
        _mul_slot(algebra, t, 0, {a: ONE}, "left"),
        sparse.scale(_mul_slot(algebra, t, 1, {a: ONE}, "left"), -1),
    )


@dataclass(frozen=True)
class CommutativeRemarkReport:
    commutative: bool
    leibniz_precondition: bool
    chain_holds: bool
    chain_witness: tuple | None
    two_variable_holds: bool
    two_variable_witness: tuple | None

    @property
    def passed(self) -> bool:
        return (
            self.commutative
            and self.leibniz_precondition
            and self.chain_holds
            and self.two_variable_holds
        )

    def lines(self) -> list[str]:
        return [
            "commutative-case derivation constraints",
            f"algebra commutative: {self.commutative}",
            f"precondition leibniz: {'holds' if self.leibniz_precondition else 'FAILS'}",
            f"four-way chain equality: {self.chain_holds}"
            + (f" (witness {self.chain_witness})" if self.chain_witness else ""),
            f"two-variable equality: {self.two_variable_holds}"
            + (f" (witness {self.two_variable_witness})" if self.two_variable_witness else ""),
            f"result: {'PASS' if self.passed else 'FAIL'}",
        ]


def commutative_remark_checks(db: DoubleBracket) -> CommutativeRemarkReport:
    algebra = db.algebra
    n = algebra.nbasis

    commutative = True
    for i in range(n):
        for j in range(n):
            try:
                if sparse.add(
                    algebra.mul_basis(i, j), sparse.scale(algebra.mul_basis(j, i), -1)
                ):
                    commutative = False
            except TruncationOverflow:
                continue

    leibniz_ok = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                try:
                    if dbpoiss_defect(db, i, j, k):
                        leibniz_ok = False
                except TruncationOverflow:
                    pass

    chain_ok, chain_wit = True, None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                try:
                    d1 = _diff_op(algebra, a, db.value(b, c))
                    d2 = _diff_op(algebra, c, db.value(b, a))
                    d3 = _diff_op(algebra, b, db.value(c, a))
                    d4 = _diff_op(algebra, a, db.value(c, b))
                except TruncationOverflow:
                    continue
                if not (d1 == d2 == d3 == d4):
                    chain_ok, chain_wit = False, (a, b, c)
                    break
            if not chain_ok:
                break
        if not chain_ok:
            break

    two_ok, two_wit = True, None
    for a1 in range(n):
        for a2 in range(n):
            for b in range(n):
                for c in range(n):
                    try:
                        lhs = _diff_op(
                            algebra, a1, _diff_op(algebra, a2, db.value(b, c))
                        )
                        rhs = _diff_op(
                            algebra, b, _diff_op(algebra, c, db.value(a1, a2))
                        )
                    except TruncationOverflow:
                        continue
                    if lhs != rhs:
                        two_ok, two_wit = False, (a1, a2, b, c)
                        break
                if not two_ok:
                    break
            if not two_ok:
                break
        if not two_ok:
            break

    return CommutativeRemarkReport(
        commutative=commutative,
        leibniz_precondition=leibniz_ok,
        chain_holds=chain_ok,
        chain_witness=chain_wit,
        two_variable_holds=two_ok,
        two_variable_witness=two_wit,
    )


# ---------------------------------------------------------------------------
# concrete bracket builders
# ---------------------------------------------------------------------------


def one_variable_lambda_bracket(power: int, lam) -> DoubleBracket:
    """{{x, x}} = lambda (x (x) 1 - 1 (x) x) on the truncated polynomial ring.

    The value on the killed top power vanishes, so the bracket genuinely
    descends to the quotient; all axioms hold exactly there.
    """
    from .algebras import polynomial_quotient_algebra

    algebra = polynomial_quotient_algebra(power)
    lam = sparse.frac(lam)
    x = algebra.index("x")
    one = algebra.index("1")
    generator_values = {(x, x): {(x, one): lam, (one, x): -lam}}
    return extend_by_derivations(algebra, generator_values)


def two_cycle_symplectic_bracket(cap: int) -> DoubleBracket:
    """The canonical bracket on the doubled one-arrow quiver.

    With paths composing left to right, compatibility with the idempotents
    (Leibniz against ``a* = e_2 a* e_1`` and ``a = e_1 a e_2``) pins the
    degree-zero values to ``{{a, a*}} = e_2 (x) e_1`` and its negated swap.
    """
    from .algebras import Quiver, double_quiver, path_algebra

    base = Quiver(("1", "2"), (("a", "1", "2"),))
    algebra = path_algebra(double_quiver(base), cap, mode="window")
    a = algebra.index("a")
    astar = algebra.index("a*")
    e1 = algebra.index("e_1")
    e2 = algebra.index("e_2")
    generator_values = {
        (a, astar): {(e2, e1): ONE},
        (astar, a): {(e1, e2): -ONE},
    }
    return extend_by_derivations(algebra, generator_values)
