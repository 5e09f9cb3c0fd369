"""Higher Yang-Baxter residuals and n-ary double-bracket checks.

Element side: a family ``r = (r_1, r_2, ...)`` with ``r_n`` living in the
n-th tensor power of a graded Lie algebra (classical case) or of a graded
associative algebra (associative case), each component homogeneous of
degree ``2 - n``.  The n-th residual couples every split ``i + j = n + 1``
through a single shared slot, so every term stays inside the n-th tensor
power and no enveloping algebra is needed: Koszul signs come from the
stable Koszul sort of the interleaved tensor factors by slot
(:func:`ybalg.tensoralg.koszul_sort`), and at the shared slot the two
factors meet in a supercommutator (Lie case) or a product (associative
case).  The grading that drives those signs comes from the Lie structure
on the classical side, where the family's degrees must match it, and from
the family itself on the associative side, where its degrees must grade the
algebra's products.

Map side: an n-ary bracket family ``{}_k`` acting on tensor powers of a
truncated algebra's basis alphabet.  The cyclic residual generalizes the
three-term double-Jacobi composition sum, and the skew-symmetry and
double-Leibniz clauses are verified alongside it: the binary axioms' own
:func:`ybalg.double.skew_defect` and :func:`ybalg.double.leibniz_defect`,
read through each component's column index (:func:`ybalg.tensoralg.columns`).

The classical-side shuffle set is recorded ambiguously in the source
display (its subscript does not match the number of indices in use), so
every classical report carries two readings: the default restricts to
(i, n-i)-shuffles, the literal one sums over all of S_n.  See the
``conventions`` attached to each report.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Mapping, NamedTuple

from . import sparse
from .algebras import TruncatedAlgebra, TruncationOverflow, first_failure, scan
from .double import leibniz_defect, skew_defect
from .linfty import all_orders, shuffles, sign_odd
from .sparse import ONE, frac
from .tensoralg import Tensor, TensorMap, Word, columns, embed_components, koszul_sort, words
from .ybe import witness_str

Element = dict[int, Fraction]


# ---------------------------------------------------------------------------
# structure constants


class LieStructure:
    """A graded Lie algebra presented by structure constants.

    ``table[(i, j)]`` is the bracket of basis elements ``i`` and ``j`` as a
    sparse element; missing keys mean zero.  ``degrees`` default to all
    zero (the ungraded case).
    """

    def __init__(self, labels, table, degrees=None):
        self.labels = tuple(labels)
        if degrees is None:
            degrees = (0,) * len(self.labels)
        self.degrees = tuple(int(d) for d in degrees)
        if len(self.degrees) != len(self.labels):
            raise ValueError("one degree per basis label is required")
        norm: dict[tuple[int, int], Element] = {}
        for (i, j), value in table.items():
            if not (0 <= i < len(self.labels) and 0 <= j < len(self.labels)):
                raise ValueError("bracket table index out of range")
            entry = sparse.vector(value)
            if entry:
                norm[(i, j)] = entry
        self.table = norm

    @property
    def nbasis(self) -> int:
        return len(self.labels)

    def bracket_basis(self, i: int, j: int) -> Element:
        return self.table.get((i, j), {})

    def bracket(self, x: Element, y: Element) -> Element:
        return sparse.structure_product(x, y, self.bracket_basis)

    def defects(self) -> list[str]:
        """Violations of grading, graded antisymmetry, or graded Jacobi."""
        found: list[str] = []
        deg = self.degrees
        for (i, j), entry in sorted(self.table.items()):
            if any(deg[k] != deg[i] + deg[j] for k in entry):
                found.append(
                    f"bracket [{self.labels[i]}, {self.labels[j]}]"
                    " is not degree-homogeneous"
                )

        def twist(i, j):
            return -ONE if (deg[i] * deg[j]) % 2 else ONE

        def skew_defect(i, j):
            return sparse.add(
                self.bracket_basis(i, j), sparse.scale(self.bracket_basis(j, i), twist(i, j))
            )

        def jacobi_defect(i, j, k):
            lhs = self.bracket({i: ONE}, self.bracket_basis(j, k))
            rhs = sparse.add(
                self.bracket(self.bracket_basis(i, j), {k: ONE}),
                sparse.scale(self.bracket({j: ONE}, self.bracket_basis(i, k)), twist(i, j)),
            )
            return lhs != rhs

        for name, defect, arity in (
            ("graded antisymmetry", skew_defect, 2),
            ("graded Jacobi", jacobi_defect, 3),
        ):
            for args, _ in scan(words(self.nbasis, arity), defect):
                labels = ", ".join(self.labels[k] for k in args)
                found.append(f"{name} fails on ({labels})")
        return found

    def require_lie(self) -> None:
        found = self.defects()
        if found:
            raise ValueError(f"not a graded Lie algebra: {found[0]}")


class RnFamily:
    """A sequence of tensors ``r_n`` over a graded basis alphabet.

    Every stored word must be homogeneous of total degree ``2 - n``; with
    the default all-zero degrees only the binary component can be nonzero,
    which is exactly the classical specialization.
    """

    def __init__(self, dim, elements, degrees=None):
        self.dim = int(dim)
        if degrees is None:
            degrees = (0,) * self.dim
        self.degrees = tuple(int(d) for d in degrees)
        if len(self.degrees) != self.dim:
            raise ValueError("one degree per basis index is required")
        self.elements: dict[int, Tensor] = {}
        for n, tensor in elements.items():
            for word, coeff in tensor.items():
                self.add(n, word, coeff)

    def add(self, n, word, coeff) -> None:
        """Store ``coeff`` at ``word`` of component ``n``, a zero dropped;
        raises ``ValueError`` on an entry the family cannot hold."""
        n = int(n)
        if n < 1:
            raise ValueError("component arity must be at least 1")
        w = tuple(word)
        if len(w) != n:
            raise ValueError(f"component {n} holds a word of length {len(w)}")
        if any(not 0 <= k < self.dim for k in w):
            raise ValueError("word letter out of range")
        c = frac(coeff)
        if not c:
            return
        total = sum(self.degrees[k] for k in w)
        if total != 2 - n:
            raise ValueError(f"component {n} entry {w} has degree {total}, expected {2 - n}")
        self.elements.setdefault(n, {})[w] = c

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    def component(self, n: int) -> Tensor:
        return dict(self.elements.get(n, {}))


# ---------------------------------------------------------------------------
# embedded pair products


def _pair_product(resolve, degrees, x: Tensor, slots_x, y: Tensor, slots_y, n: int) -> Tensor:
    """Expand ``x^(slots_x) . y^(slots_y)`` into words of length ``n``.

    The letters of each word pair are placed by the Koszul sort on their
    slots, which is stable, so a slot covered by both factors holds the
    x-letter first and resolves through ``resolve``; slots covered once keep
    their letter.  Together the slots must cover the tensor power exactly.
    """
    slots = tuple(slots_x) + tuple(slots_y)
    if set(slots) != set(range(n)):
        raise ValueError("slot tuples must cover the tensor power")
    if any(slots.count(s) > 2 for s in range(n)):
        raise ValueError("a slot may hold at most two factors")
    slot = itemgetter(0)
    total: Tensor = {}
    for wx, cx in sorted(x.items()):
        for wy, cy in sorted(y.items()):
            placed, sign = koszul_sort(
                [*zip(slots_x, wx), *zip(slots_y, wy)],
                lambda item: degrees[item[1]] % 2,
                key=slot,
            )
            choices = []
            for _, group in itertools.groupby(placed, slot):
                letters = [letter for _, letter in group]
                choices.append(
                    sorted(resolve(*letters).items()) if len(letters) == 2 else [(letters[0], ONE)]
                )
            terms = (
                (tuple(k for k, _ in combo), math.prod(c for _, c in combo))
                for combo in itertools.product(*choices)
            )
            sparse.accumulate(total, terms, sign * cx * cy)
    return sparse.purge(total)


def lie_pair_bracket(g: LieStructure, x: Tensor, slots_x, y: Tensor, slots_y, n: int) -> Tensor:
    """``[x^(slots_x), y^(slots_y)]`` inside the n-th tensor power of ``g``.

    The overlap of the slot tuples is where the supercommutator acts, and
    the supercommutator of basis elements is the bracket itself; the
    interleaving sign makes this exact for graded ``g``.  Exactly one slot
    must be shared — factors in disjoint slots supercommute, so their
    bracket would vanish identically.
    """
    if len(set(slots_x) & set(slots_y)) != 1:
        raise ValueError("slot tuples must share exactly one slot")
    return _pair_product(g.bracket_basis, g.degrees, x, slots_x, y, slots_y, n)


# ---------------------------------------------------------------------------
# selections


def cyclic_selections(n: int) -> list[tuple[int, ...]]:
    """The n cyclic rotations of ``range(n)``."""
    return [tuple((k + c) % n for k in range(n)) for c in range(n)]


def _check_family(fam: RnFamily, dim: int, degrees=None) -> None:
    """Refuse a family over another alphabet, or graded unlike ``degrees``."""
    if fam.dim != dim:
        raise ValueError(f"family dim {fam.dim} does not match the algebra's dim {dim}")
    if degrees is not None and fam.degrees != tuple(degrees):
        raise ValueError(f"family degrees {fam.degrees} do not match the algebra's {tuple(degrees)}")


def _bracket_degrees(nbasis: int, super_degrees) -> tuple[int, ...]:
    if super_degrees is None:
        return (0,) * nbasis
    degs = tuple(int(d) for d in super_degrees)
    if len(degs) != nbasis:
        raise ValueError("one degree per basis element is required")
    return degs


def _split_sum(components, n: int, selections, term) -> dict:
    """``sum over i + j = n + 1 and sel in selections(i) of (-1)^i term``.

    ``term(x, slots_x, y, slots_y, sel)`` gives the ``(key, coefficient)``
    pairs of the (i, j) split with ``x = components[i]`` on the first ``i``
    selected slots and ``y = components[j]`` on the rest plus the shared
    slot ``sel[0]``; a split whose component is missing or empty adds
    nothing.
    """
    total: dict = {}
    for i in range(1, n + 1):
        x, y = components.get(i), components.get(n + 1 - i)
        if not x or not y:
            continue
        scalar = -1 if i % 2 else None  # (-1)^i; None adds the terms as they are
        for sel in selections(i):
            slots_x, slots_y = tuple(sel[:i]), (sel[0],) + tuple(sel[i:])
            sparse.accumulate(total, term(x, slots_x, y, slots_y, sel), scalar)
    return sparse.purge(total)


# ---------------------------------------------------------------------------
# classical residuals


def _cybe_sum(g: LieStructure, fam: RnFamily, n: int, reading: str) -> Tensor:
    selections = all_orders if reading == "literal" else shuffles

    def term(x, slots_x, y, slots_y, sel):
        return _pair_product(g.bracket_basis, g.degrees, x, slots_x, y, slots_y, n).items()

    return _split_sum(fam.elements, n, lambda i: selections(i, n - i), term)


def aybe_infty_sum(algebra: TruncatedAlgebra, fam: RnFamily, n: int) -> Tensor:
    """The n-th associative residual over the cyclic selections, graded by
    ``fam.degrees``, which must grade every product of the table."""
    ok, failure, _ = algebra.check_associativity()
    if not ok:
        raise ValueError(f"structure constants are not associative: {failure}")
    _check_family(fam, algebra.nbasis)
    degs = fam.degrees
    for (i, j), entry in sorted(algebra.table.items()):
        if any(degs[k] != degs[i] + degs[j] for k in entry):
            raise ValueError(
                f"family degrees do not grade the products:"
                f" {algebra.labels[i]} * {algebra.labels[j]} is not degree-homogeneous"
            )

    def term(x, slots_x, y, slots_y, sel):
        return _pair_product(algebra.mul_basis, degs, x, slots_x, y, slots_y, n).items()

    return _split_sum(fam.elements, n, lambda i: cyclic_selections(n), term)


def _three_term_sum(resolve, degrees, r2: Tensor, placements) -> Tensor:
    """The sum of ``scalar * r2^(slots_x) . r2^(slots_y)`` over ``placements`` in the cube."""
    total: Tensor = {}
    for slots_x, slots_y, scalar in placements:
        term = _pair_product(resolve, degrees, r2, slots_x, r2, slots_y, 3)
        sparse.accumulate(total, term.items(), scalar)
    return sparse.purge(total)


def classical_cybe_element(g: LieStructure, r2: Tensor) -> Tensor:
    """``[r^12, r^13] + [r^12, r^23] + [r^13, r^23]`` in the cube."""
    placements = (((0, 1), (0, 2), None), ((0, 1), (1, 2), None), ((0, 2), (1, 2), None))
    return _three_term_sum(g.bracket_basis, g.degrees, r2, placements)


def classical_aybe_element(
    algebra: TruncatedAlgebra, r2: Tensor, super_degrees=None
) -> Tensor:
    """``r^12 r^13 - r^23 r^12 + r^13 r^23`` in the cube."""
    degrees = _bracket_degrees(algebra.nbasis, super_degrees)
    placements = (((0, 1), (0, 2), None), ((1, 2), (0, 1), -1), ((0, 2), (1, 2), None))
    return _three_term_sum(algebra.mul_basis, degrees, r2, placements)


# ---------------------------------------------------------------------------
# reports


class ReadingResult(NamedTuple):
    name: str
    zero: bool
    terms: tuple[tuple[Word, Fraction], ...]


class InftyReport(NamedTuple):
    """Deterministic outcome of one infinity-residual evaluation."""

    kind: str
    n: int
    dim: int
    arities: tuple[int, ...]
    governing: str
    readings: tuple[ReadingResult, ...]
    notes: tuple[str, ...]
    conventions: tuple[tuple[str, str], ...]
    classical_equal: bool | None  # first reading == three-term sum; n=3 and r_2 only

    @property
    def passed(self) -> bool:
        for reading in self.readings:
            if reading.name == self.governing:
                return reading.zero
        return False

    def lines(self) -> list[str]:
        out = [f"check: {self.kind}", f"n: {self.n}", f"dim: {self.dim}"]
        arities = ",".join(map(str, self.arities)) if self.arities else "none"
        out.append(f"arities: {arities}")
        for reading in self.readings:
            status = "zero" if reading.zero else f"nonzero ({len(reading.terms)} terms)"
            out.append(f"reading {reading.name}: {status}")
            if reading.terms:
                word, coeff = reading.terms[0]
                out.append(f"  witness: ({','.join(map(str, word))}) -> {coeff}")
        out.append(f"governing reading: {self.governing}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        for note in self.notes:
            out.append(f"note: {note}")
        for key, text in self.conventions:
            out.append(f"convention {key}: {text}")
        return out


def _reading_result(name: str, total: Tensor) -> ReadingResult:
    terms = tuple(sorted(total.items()))
    return ReadingResult(name, not terms, terms)


_SHARED_SLOT_NOTE = (
    "both tensors of a split use the first selected slot; the overlap"
    " carries the supercommutator/product"
)


def cybe_infty_residual(
    g: LieStructure, fam: RnFamily, n: int, literal_shuffles: bool = False
) -> InftyReport:
    """Both readings of the n-th classical residual, one governing the verdict."""
    g.require_lie()
    _check_family(fam, g.nbasis, g.degrees)
    readings = tuple(
        _reading_result(name, _cybe_sum(g, fam, n, name)) for name in ("shuffle", "literal")
    )
    notes: list[str] = []
    classical_equal = None
    if n == 3 and fam.arities == (2,):
        r2 = fam.component(2)
        single = lie_pair_bracket(g, r2, (1, 2), r2, (1, 0), 3)
        reduced = dict(readings[0].terms) == single
        notes.append(
            f"n=3 r_2-only: shuffle reading equals the single bracket"
            f" [r^23, r^21]: {reduced}"
        )
        classical = classical_cybe_element(g, r2)
        classical_equal = dict(readings[0].terms) == classical
        notes.append(
            "classical three-term bracket sum [r^12,r^13]+[r^12,r^23]+[r^13,r^23]:"
            f" {'zero' if not classical else 'nonzero'}"
        )
        notes.append(f"shuffle reading equals the classical sum: {classical_equal}")
    return InftyReport(
        kind="cybe-infty",
        n=n,
        dim=g.nbasis,
        arities=fam.arities,
        governing="literal" if literal_shuffles else "shuffle",
        readings=readings,
        notes=tuple(notes),
        conventions=(
            ("shuffle reading", "sum over (i, n-i)-shuffles of range(n)"),
            ("literal reading", "sum over all permutations of range(n)"),
            ("shared slot", _SHARED_SLOT_NOTE),
            ("split sign", "(-1)^i on the (i, n+1-i) split"),
        ),
        classical_equal=classical_equal,
    )


def aybe_infty_residual(algebra: TruncatedAlgebra, fam: RnFamily, n: int) -> InftyReport:
    """The n-th associative residual, graded by ``fam.degrees``; the cyclic
    reading is the only one.  A product past the window, or one the degrees
    do not grade, is an input error, a ``ValueError`` naming it."""
    try:
        residual = aybe_infty_sum(algebra, fam, n)
        classical = None
        if n == 3 and fam.arities == (2,):
            classical = classical_aybe_element(algebra, fam.component(2), fam.degrees)
    except TruncationOverflow as err:
        raise ValueError(f"the residual needs a product outside the window: {err}") from None
    readings = (_reading_result("cyclic", residual),)
    notes: list[str] = []
    classical_equal = None
    if classical is not None:
        classical_equal = residual == classical
        notes.append(
            "classical three-term product sum r^12 r^13 - r^23 r^12 + r^13 r^23:"
            f" {'zero' if not classical else 'nonzero'}"
        )
        notes.append(f"cyclic residual equals the classical sum: {classical_equal}")
    return InftyReport(
        kind="aybe-infty",
        n=n,
        dim=algebra.nbasis,
        arities=fam.arities,
        governing="cyclic",
        readings=readings,
        notes=tuple(notes),
        conventions=(
            ("cyclic reading", "sum over the n cyclic rotations of range(n)"),
            ("shared slot", _SHARED_SLOT_NOTE),
            ("split sign", "(-1)^i on the (i, n+1-i) split"),
        ),
        classical_equal=classical_equal,
    )


# ---------------------------------------------------------------------------
# n-ary double brackets on a truncated algebra's basis alphabet


def _validate_bracket_family(fam, algebra: TruncatedAlgebra, degs) -> None:
    for arity, b in sorted(fam.items()):
        if b.dim != algebra.nbasis:
            raise ValueError(
                "arity mismatch: bracket alphabet differs from the algebra basis"
            )
        if b.dom_deg != arity or b.cod_deg != arity:
            raise ValueError(
                f"arity mismatch: component {arity} is a"
                f" {b.dom_deg}->{b.cod_deg} map"
            )
        for (out_word, in_word) in b.entries:
            drop = sum(degs[k] for k in out_word) - sum(degs[k] for k in in_word)
            if drop != 2 - arity:
                raise ValueError(
                    f"component {arity} is not homogeneous of degree {2 - arity}"
                )


def jacobi_infty_residual(
    fam: Mapping[int, TensorMap],
    algebra: TruncatedAlgebra,
    n: int,
    super_degrees=None,
) -> TensorMap:
    """Cyclic-sum residual of an n-ary bracket family on the n-th power.

    Each split composes the inner bracket on the first ``i`` selected
    slots with the outer bracket on the shared slot plus the remaining
    ones, weighted by ``(-1)^i`` and the odd Koszul sign of the rotation.
    """
    degs = _bracket_degrees(algebra.nbasis, super_degrees)
    _validate_bracket_family(fam, algebra, degs)

    def term(inner, slots_x, outer, slots_y, sel):
        inner_map = embed_components(inner, tuple(s + 1 for s in slots_x), n)
        outer_map = embed_components(outer, tuple(s + 1 for s in slots_y), n)
        for (out_word, in_word), coeff in outer_map.compose(inner_map).entries.items():
            yield (out_word, in_word), coeff * sign_odd(tuple(degs[k] for k in in_word), sel)

    entries = _split_sum(fam, n, lambda i: cyclic_selections(n), term)
    return TensorMap(algebra.nbasis, n, n, entries)


def _lookup(b: TensorMap):
    """``value(*word)``: the image of a basis word under ``b``."""
    images = columns(b.entries)
    return lambda *word: images.get(word, {})


def skew_clause_defects(fam: Mapping[int, TensorMap], super_degrees=None) -> list[str]:
    """Adjacent-transposition violations of the skew-symmetry clause.

    The clause asks that permuting the arguments and then the output slots
    costs exactly the odd Koszul sign of the permutation; transpositions
    of neighbours generate all of it.
    """
    defects: list[str] = []
    for arity, b in sorted(fam.items()):
        degs = _bracket_degrees(b.dim, super_degrees)
        value = _lookup(b)
        for t in range(arity - 1):
            w, _, _ = first_failure(words(b.dim, arity), partial(skew_defect, value, degs, t))
            if w is not None:
                defects.append(
                    f"arity {arity}: swap ({t + 1} {t + 2}) fails on word"
                    f" ({','.join(map(str, w))})"
                )
    return defects


def double_leibniz_defects(
    fam: Mapping[int, TensorMap],
    algebra: TruncatedAlgebra,
    super_degrees=None,
) -> tuple[list[str], int]:
    """Violations of the double-Leibniz clause on basis triples.

    The last argument is replaced by a basis product x*y: the bracket with
    y keeps x multiplied onto the first output slot with the Koszul sign
    of moving x past the other arguments, the bracket with x keeps y
    multiplied onto the last output slot.  The display's unclosed exponent
    on the second term is read as ``(-1)^(arity * |y|)``.  Products that
    leave the truncation window are skipped and counted.
    """
    degs = _bracket_degrees(algebra.nbasis, super_degrees)
    defects: list[str] = []
    skipped = 0
    for arity, b in sorted(fam.items()):
        defect = partial(leibniz_defect, algebra, _lookup(b), degs)
        for (*args, x, y), value in scan(words(algebra.nbasis, arity + 1), defect):
            if value is None:
                skipped += 1
            else:
                defects.append(
                    f"arity {arity}: leibniz fails at args="
                    f"({','.join(algebra.labels[k] for k in args)}),"
                    f" x={algebra.labels[x]}, y={algebra.labels[y]}"
                )
    return defects, skipped


class DoubleInftyReport(NamedTuple):
    """Skew clause, cyclic residual, and double-Leibniz clause, in that order."""

    n: int
    nbasis: int
    arities: tuple[int, ...]
    skew_defects: tuple[str, ...]
    residual_zero: bool | None
    residual_witness: tuple[Word, Word, Fraction] | None
    leibniz_defects: tuple[str, ...]
    leibniz_skipped: int
    conventions: tuple[tuple[str, str], ...]

    @property
    def skew_ok(self) -> bool:
        return not self.skew_defects

    @property
    def passed(self) -> bool:
        return self.skew_ok and bool(self.residual_zero) and not self.leibniz_defects

    def lines(self) -> list[str]:
        out = [
            "check: double-jacobi-infty",
            f"n: {self.n}",
            f"alphabet: {self.nbasis}",
            f"arities: {','.join(map(str, self.arities)) if self.arities else 'none'}",
        ]
        out.append(f"skew-symmetry clause: {'holds' if self.skew_ok else 'FAILS'}")
        for defect in self.skew_defects:
            out.append(f"  {defect}")
        if self.residual_zero is None:
            out.append("residual: skipped (skew-symmetry clause failed)")
        else:
            out.append(f"residual zero: {self.residual_zero}")
            if self.residual_witness is not None:
                out.append(f"  witness: {witness_str(self.residual_witness)}")
        out.append(
            "double-leibniz clause: "
            + ("holds" if not self.leibniz_defects else "FAILS")
            + (
                f" ({self.leibniz_skipped} products outside the window skipped)"
                if self.leibniz_skipped
                else ""
            )
        )
        for defect in self.leibniz_defects[:3]:
            out.append(f"  {defect}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        for key, text in self.conventions:
            out.append(f"convention {key}: {text}")
        return out


def jacobi_infty_check(
    fam: Mapping[int, TensorMap],
    algebra: TruncatedAlgebra,
    n: int,
    super_degrees=None,
) -> DoubleInftyReport:
    """Full n-ary double-bracket verdict; a failed skew clause is reported
    before any residual is evaluated."""
    degs = _bracket_degrees(algebra.nbasis, super_degrees)
    _validate_bracket_family(fam, algebra, degs)
    skew = tuple(skew_clause_defects(fam, super_degrees=degs))
    residual_zero: bool | None = None
    witness: tuple[Word, Word, Fraction] | None = None
    if not skew:
        residual = jacobi_infty_residual(fam, algebra, n, super_degrees=degs)
        residual_zero = residual.is_zero()
        if not residual_zero:
            witness = residual.first_nonzero()
    leibniz, skipped = double_leibniz_defects(fam, algebra, super_degrees=degs)
    return DoubleInftyReport(
        n=n,
        nbasis=algebra.nbasis,
        arities=tuple(sorted(fam)),
        skew_defects=skew,
        residual_zero=residual_zero,
        residual_witness=witness,
        leibniz_defects=tuple(leibniz),
        leibniz_skipped=skipped,
        conventions=(
            ("cyclic sum", "rotations of range(n) with sign (-1)^i sign_odd"),
            (
                "skew clause",
                "permuted arguments and output slots cost the odd Koszul sign;"
                " the ungraded binary case is the usual minus",
            ),
            (
                "leibniz sign",
                "second term read as (-1)^(arity * |y|); the source display"
                " leaves the exponent unclosed",
            ),
        ),
    )


# ---------------------------------------------------------------------------
# fixtures


def gl_lie(size: int = 2) -> LieStructure:
    """gl_size with matrix-unit basis and commutator structure constants."""
    labels = [f"e{a + 1}{b + 1}" for a in range(size) for b in range(size)]

    def idx(a: int, b: int) -> int:
        return a * size + b

    table: dict[tuple[int, int], Element] = {}
    for a in range(size):
        for b in range(size):
            for c in range(size):
                for d in range(size):
                    terms = []
                    if b == c:
                        terms.append((idx(a, d), ONE))
                    if d == a:
                        terms.append((idx(c, b), -ONE))
                    entry = sparse.vector(terms)
                    if entry:
                        table[(idx(a, b), idx(c, d))] = entry
    return LieStructure(labels, table)


def matrix_algebra(size: int = 2) -> TruncatedAlgebra:
    """Matrix units with the closed product table e_ab e_cd = [b=c] e_ad."""
    labels = [f"e{a + 1}{b + 1}" for a in range(size) for b in range(size)]

    def idx(a: int, b: int) -> int:
        return a * size + b

    table = {
        (idx(a, b), idx(b, d)): {idx(a, d): ONE}
        for a in range(size)
        for b in range(size)
        for d in range(size)
    }
    unit = {idx(a, a): ONE for a in range(size)}
    return TruncatedAlgebra(
        labels,
        [0] * len(labels),
        table,
        unit,
        mode="quotient",
        cap=0,
        info={"kind": "matrix", "size": size},
    )
