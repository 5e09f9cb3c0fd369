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

The skew-symmetry and double-Leibniz clauses are written once, for every
arity and grading (:func:`skew_defect`, :func:`leibniz_defect`): the binary
axioms are their arity-2 case with zero degrees, as :mod:`ybalg.ybe_infty`'s
n-ary checks are their general case.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import sparse
from .algebras import TruncatedAlgebra, TruncationOverflow, first_failure, scan
from .linfty import sign_odd
from .sparse import ONE, Terms
from .tensoralg import TensorMap, columns, word_permute, words
from .ybe import PRODUCTS, is_skew, table_residuals

Elt2 = dict[tuple[int, int], Fraction]  # sparse elements of A (x) A
Elt3 = dict[tuple[int, int, int], Fraction]

CONVENTIONS: dict[str, str] = {
    "dbskew": "{{b,a}} = -(21){{a,b}}",
    "dbjac": "sum of the three (231)-conjugates of {{-,{{-,-}}}}_L vanishes",
    "dbpoiss": "{{a,bc}} = (b(x)1){{a,c}} + {{a,b}}(1(x)c)",
    "first_arg_rule": "{{ab,c}} = (1(x)a){{b,c}} + {{a,c}}(b(x)1), derived not postulated",
}


def _slot_terms(algebra: TruncatedAlgebra, t: dict, slot: int, b: int, side: str) -> Terms:
    """Unsummed terms of ``t`` with slot ``slot`` multiplied by basis element ``b``
    on ``side`` ("left": ``b x``), one ``mul_basis`` lookup per term."""
    mul = algebra.mul_basis
    left = side == "left"
    for key, coeff in t.items():
        x = key[slot]
        prod = mul(b, x) if left else mul(x, b)
        if prod:
            head, tail = key[:slot], key[slot + 1 :]
            for idx, c in prod.items():
                yield head + (idx,) + tail, coeff * c


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

    def value(self, *pair: int) -> Elt2:
        if pair in self.overflow_pairs:
            raise TruncationOverflow(f"bracket value at pair {pair} left the window")
        return self.table.get(pair, {})

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
        return cls(algebra, columns(r.entries))


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
        order = (0, 1) if first_argument_first else (1, 0)
        p = next((p for p in order if fact[key[p]] is not None), None)
        if p is None:
            result = sparse.purge(generator_values.get(key, {}))
        else:
            # peel argument p = g rest; g multiplies the other output slot:
            # {{i, g rest}} = (g (x) 1){{i, rest}} + {{i, g}}(1 (x) rest)
            # {{g rest, j}} = (1 (x) g){{rest, j}} + {{g, j}}(rest (x) 1)
            g, rest = fact[key[p]]
            head, tail = key[:p], key[p + 1 :]
            total: Elt2 = {}
            inner = db_sum((head + (r,) + tail, rc) for r, rc in rest.items())
            sparse.accumulate(total, _slot_terms(algebra, inner, 1 - p, g, "left"))
            outer = db(*head, g, *tail)
            for ridx, rc in rest.items():
                sparse.accumulate(total, _slot_terms(algebra, outer, p, ridx, "right"), rc)
            result = sparse.purge(total)
        cache[key] = result
        return result

    def db_sum(pairs) -> Elt2:
        # db summed over a linear combination of basis pairs
        total: Elt2 = {}
        for (i, j), c in pairs:
            sparse.accumulate(total, db(i, j).items(), c)
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
    # an overflow pair of either route raises in value, so the scan skips it
    pair, _, _ = first_failure(words(algebra.nbasis, 2), lambda *p: a.value(*p) != b.value(*p))
    return pair is None, pair


# ---------------------------------------------------------------------------
# axiom checks on an algebra
# ---------------------------------------------------------------------------


def skew_defect(value, degrees, t: int, *w: int) -> dict:
    """The skew-symmetry clause at the word ``w`` for the swap ``tau`` of slots
    ``t, t+1``: ``value(*tau w)`` with its output slots permuted by ``tau``,
    minus ``sign_odd(degrees of w, tau)`` times ``value(*w)``.  In arity 2
    with zero degrees the sign is -1: ``{{b, a}} = -(21){{a, b}}``."""
    tau = tuple(range(t)) + (t + 1, t) + tuple(range(t + 2, len(w)))
    total: dict = {}
    swapped = value(*word_permute(tau, w)).items()
    sparse.accumulate(total, ((word_permute(tau, v), c) for v, c in swapped))
    sparse.accumulate(total, value(*w).items(), -sign_odd(tuple(degrees[k] for k in w), tau))
    return sparse.purge(total)


def leibniz_defect(algebra: TruncatedAlgebra, value, degrees, *word: int) -> dict:
    """The double-Leibniz clause at ``word = (*args, x, y)``: ``value(*args, x y)``,
    minus ``(-1)^(|x||args|)`` times ``value(*args, y)`` with ``x`` multiplied
    onto its first output slot from the left, minus ``(-1)^(arity |y|)`` times
    ``value(*args, x)`` with ``y`` multiplied onto its last slot from the right.
    In arity 2 with zero degrees: ``{{a, bc}} - (b (x) 1){{a, c}} - {{a, b}}(1 (x) c)``.
    May raise ``TruncationOverflow`` in window mode; the scans count the tuple."""
    args, x, y = word[:-2], word[-2], word[-1]
    arity = len(word) - 1
    total: dict = {}
    for p, cp in algebra.mul_basis(x, y).items():
        sparse.accumulate(total, value(*args, p).items(), cp)
    left = -1 if degrees[x] % 2 and sum(degrees[k] for k in args) % 2 else 1
    right = -1 if arity * degrees[y] % 2 else 1
    sparse.accumulate(total, _slot_terms(algebra, value(*args, y), 0, x, "left"), -left)
    sparse.accumulate(total, _slot_terms(algebra, value(*args, x), arity - 1, y, "right"), -right)
    return sparse.purge(total)


def dbjac_residual(db: DoubleBracket, i: int, j: int, k: int) -> Elt3:
    """Cyclic sum of (231)-conjugates of the left-nested double bracket."""
    # a key (x, y, q) of {{a, {{b, c}}}}_L is written rotated: the
    # (231)-conjugate moves slot content 1->2, 2->3, 3->1, so the three
    # turns rotate it left by 0, 2 and 1 places, a slice of (x, y, q, x, y)
    total: Elt3 = {}
    for s, (a, b, c) in zip((0, 2, 1), ((i, j, k), (j, k, i), (k, i, j))):
        for (p, q), coeff in db.value(b, c).items():
            rotated = (((x, y, q, x, y)[s : s + 3], cx) for (x, y), cx in db.value(a, p).items())
            sparse.accumulate(total, rotated, coeff)
    return sparse.purge(total)


class AxiomCheck(NamedTuple):
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


class DoubleAxiomReport(NamedTuple):
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


def _leibniz_holds(db: DoubleBracket) -> tuple[bool, int]:
    # whether the second-argument rule holds on every basis triple inside
    # the window, and how many triples overflowed it
    n = db.algebra.nbasis
    defect = partial(leibniz_defect, db.algebra, db.value, (0,) * n)
    skips = [value is None for _, value in scan(words(n, 3), defect)]
    return all(skips), sum(skips)


def check_double_axioms(db: DoubleBracket) -> DoubleAxiomReport:
    db = db.integral_multiple()
    algebra = db.algebra
    zero = (0,) * algebra.nbasis
    checks = []
    for name, defect, arity in (
        ("antisymmetry", partial(skew_defect, db.value, zero, 0), 2),
        ("jacobi", partial(dbjac_residual, db), 3),
        ("leibniz", partial(leibniz_defect, algebra, db.value, zero), 3),
    ):
        witness, _, skipped = first_failure(words(algebra.nbasis, arity), defect)
        checks.append(AxiomCheck(name, witness is None, witness, skipped))

    return DoubleAxiomReport(
        algebra_kind=algebra.info.get("kind", "unknown"),
        checks=tuple(checks),
        conventions=tuple(sorted(CONVENTIONS.items())),
    )


# ---------------------------------------------------------------------------
# the free (map-level) setting
# ---------------------------------------------------------------------------


#: the double-Jacobi residual ``r12 r23 + r23 r31 + r31 r12``, a table of
#: ``ybe.PRODUCTS``
JACOBI_PRODUCTS = (
    (1, (1, 2), (2, 3), (0, 1, 2)), (1, (2, 3), (3, 1), (0, 1, 2)), (1, (3, 1), (1, 2), (0, 1, 2)),
)


def double_jacobi_residual_map(r: TensorMap) -> TensorMap:
    """``r12 r23 + r23 r31 + r31 r12`` as a map on cubes."""
    return table_residuals(r, JACOBI_PRODUCTS)[0]


class JacobiToAybeReport(NamedTuple):
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
    residual, aybe = table_residuals(r, JACOBI_PRODUCTS, PRODUCTS["aybe"])
    transformed = -residual.conjugate_by_perm((2, 1, 0))
    return JacobiToAybeReport(
        dim=r.dim,
        r_is_skew=skew,
        residual_zero=residual.is_zero(),
        aybe_zero=aybe.is_zero(),
        transform_matches_aybe=skew and transformed == aybe,
    )


#: the negated (321)-conjugate of the double-Jacobi residual minus ``aybe(r)``,
#: zero exactly when the transform in :func:`dbjac_to_aybe` matches the
#: associative residual
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


class MultCompareReport(NamedTuple):
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


def almcybe_check(db: DoubleBracket) -> MultCompareReport:
    """Check the one-sided multiplication identity on the associative residual.

    Preconditions (verified, reported separately from the conclusion): the
    second-argument derivation rule holds on basis triples, and the classical
    residual of the bracket's map vanishes.  AYBE and AYBE' come from one
    evaluation of their ``ybe.PRODUCTS`` tables, which embeds each slot pair
    of ``r`` once, and the classical residual is read off as
    AYBE - AYBE', the identity that table declares.  The
    conclusion compares ``(a (x) 1 (x) 1) AYBE(r)`` with
    ``(1 (x) 1 (x) a) AYBE(r)`` for every basis element ``a`` by
    multiplying the first and third slots of AYBE's output words; an ``a``
    with any ``a x`` past the window is skipped.  It also re-derives the
    expansion identity for the classical residual against a middle-slot
    product on every triple ``(a, b1 b2, c)`` of basis elements (all of them,
    though the report line still says "sampled").
    """
    db = db.integral_multiple()
    algebra = db.algebra
    n = algebra.nbasis
    leibniz_ok, skipped = _leibniz_holds(db)

    aybe, aybe_p = table_residuals(db.as_tensor_map(), PRODUCTS["aybe"], PRODUCTS["aybe-prime"])
    cybe = aybe - aybe_p
    cybe_ok = cybe.is_zero()
    images = columns(aybe.entries), columns(aybe_p.entries), columns(cybe.entries)

    def comparison_defect(a: int) -> bool:
        # an a with some product a x past the window raises, and is skipped
        for x in range(n):
            algebra.mul_basis(a, x)
        # (a (x) 1 (x) 1 - 1 (x) 1 (x) a) AYBE, one column at a time
        return any(_diff_op(algebra, a, image, (0, 2)) for image in images[0].values())

    comparison, _, comparison_skipped = first_failure(words(n, 1), comparison_defect)
    expansion, _, expansion_skipped = first_failure(
        words(n, 4), lambda *quadruple: not _expansion_identity_holds(db, *images, *quadruple)
    )
    return MultCompareReport(
        algebra_kind=algebra.info.get("kind", "unknown"),
        leibniz_precondition=leibniz_ok,
        cybe_precondition=cybe_ok,
        comparison_holds=comparison is None,
        expansion_identity_holds=expansion is None,
        skipped=skipped + comparison_skipped + expansion_skipped,
    )


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
    # cybe(a, b1 b2, c) = (b1 (x) 1 (x) 1) aybe(a, b2, c)
    #     - (1 (x) 1 (x) b1) aybe'(a, b2, c) + cybe(a, b1, c) (1 (x) b2 (x) 1),
    # each map given by its columns
    algebra = db.algebra
    total: Elt3 = {}
    # most columns are empty on a solution: skip them before building terms
    for m, cm in algebra.mul_basis(b1, b2).items():
        image = cybe.get((a, m, c))
        if image:
            sparse.accumulate(total, image.items(), cm)
    for image, slot, b, side, sign in (
        (aybe.get((a, b2, c)), 0, b1, "left", -1),
        (aybe_p.get((a, b2, c)), 2, b1, "left", 1),
        (cybe.get((a, b1, c)), 1, b2, "right", -1),
    ):
        if image:
            sparse.accumulate(total, _slot_terms(algebra, image, slot, b, side), sign)
    return not sparse.purge(total)


# ---------------------------------------------------------------------------
# the commutative remark
# ---------------------------------------------------------------------------


def _diff_op(algebra: TruncatedAlgebra, a: int, t: dict, slots=(0, 1)) -> dict:
    """Apply ``a (x) 1 - 1 (x) a`` by left multiplication on ``slots``."""
    plus, minus = slots
    out: dict = {}
    sparse.accumulate(out, _slot_terms(algebra, t, plus, a, "left"))
    sparse.accumulate(out, _slot_terms(algebra, t, minus, a, "left"), -1)
    return sparse.purge(out)


class CommutativeRemarkReport(NamedTuple):
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

    noncommuting, _, _ = first_failure(
        words(n, 2),
        lambda i, j: sparse.add(algebra.mul_basis(i, j), sparse.scale(algebra.mul_basis(j, i), -1)),
    )
    leibniz_ok, _ = _leibniz_holds(db)
    chain_witness, _, _ = first_failure(words(n, 3), partial(_chain_defect, db))
    two_variable_witness, _, _ = first_failure(words(n, 4), partial(_two_variable_defect, db))
    return CommutativeRemarkReport(
        commutative=noncommuting is None,
        leibniz_precondition=leibniz_ok,
        chain_holds=chain_witness is None,
        chain_witness=chain_witness,
        two_variable_holds=two_variable_witness is None,
        two_variable_witness=two_variable_witness,
    )


def _chain_defect(db: DoubleBracket, a: int, b: int, c: int) -> bool:
    # every side is built before the comparison, so an overflow anywhere
    # skips the triple
    algebra = db.algebra
    first = _diff_op(algebra, a, db.value(b, c))
    rest = (
        _diff_op(algebra, c, db.value(b, a)),
        _diff_op(algebra, b, db.value(c, a)),
        _diff_op(algebra, a, db.value(c, b)),
    )
    return rest != (first, first, first)


def _two_variable_defect(db: DoubleBracket, a1: int, a2: int, b: int, c: int) -> bool:
    algebra = db.algebra
    lhs = _diff_op(algebra, a1, _diff_op(algebra, a2, db.value(b, c)))
    rhs = _diff_op(algebra, b, _diff_op(algebra, c, db.value(a1, a2)))
    return lhs != rhs


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
