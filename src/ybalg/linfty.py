"""Strong homotopy Lie structure: graded signs, axiom residuals, extension.

Sign convention: every reorder sign comes from the one Koszul sort,
:func:`ybalg.tensoralg.koszul_sort`.  :func:`sign_odd` is its reading of
suspended degrees: the sign of the block permutation with block sizes
``degree + 1``, in which the even-degree arguments are the odd items.
Operations are "completely graded-skew" in the matching sense::

    {a_{s(1)}, ..., a_{s(m)}} = sign_odd(degrees, s) . {a_1, ..., a_m}

so even-degree arguments anticommute and odd-degree arguments commute.  The
m-th axiom residual is

    sum over i+j = m+1, sigma an (i, j-1)-shuffle of
        sign_odd(a, sigma) {{a_{s(1)},...,a_{s(i)}}_i, a_{s(i+1)},...}_j

This is exactly the cogenerator component of D^2, where D is the degree-1
coderivation on the supersymmetric coalgebra of the parity-shifted space
assembled from the brackets; the axioms say D^2 = 0.  It is the unique sign
convention compatible with the symmetry clause above: a differential graded
Lie algebra, brackets twisted by (-1)^(degree of the first argument),
satisfies every m, and the product extension below preserves the axioms.
Summing sigma over all of S_m instead inflates the (i, j) block by exactly
the symmetry factor i!(j-1)!, since skewness makes the shuffle
representatives of a coset contribute equally; that reading lives only in
:func:`linfty_residual_blocks` (``mode="full"``), for the blockwise comparison.

The product extension follows the two-term Leibniz rule, with unshifted
degrees and ``{..., 1, ...} = 0``, and splits a product argument in place:

    {..., xy, ...} = (-1)^{|y|s} {..., x, ...} . y
                     + (-1)^{|x||y| + |x|s} {..., y, ...} . x

where ``s`` sums ``degree + 1`` over the later arguments.  In the last slot
(s = 0) this is the canonical ``{..., xy} = {..., x} . y + (-1)^{|x||y|}
{..., y} . x``; in another slot it is that form conjugated by the skew-clause
rotation to the last slot and back, which is where the sign comes from, but
it uses no symmetry itself.  For the degree-0 binary bracket it is the
familiar slot-wise rule
``{z, xy} = (-1)^{|x||z|} x {z, y} + (-1)^{|y|(|x|+|z|)} y {z, x}``, and for
the unary bracket it is the usual odd derivation
``d(xy) = d(x) y + (-1)^{|x|} x d(y)``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from . import sparse
from .algebras import TruncationOverflow, first_failure
from .linalg import rref
from .sparse import ONE
from .tensoralg import is_perm, koszul_sort

Element = dict[int, Fraction]  # span of the generators

CONVENTIONS: dict[str, str] = {
    "sign_odd": "sign of the block permutation with block sizes degree+1",
    "skew_clause": "{a_s(1),...} = sign_odd(degrees, s) . {a_1,...}",
    "axiom": "sum over (i, j-1)-shuffles of sign_odd {{...}_i, ...}_j = 0",
    "full_mode": "the all-of-S_m sum inflates the (i, j) block by i!(j-1)!",
    "leibniz": (
        "{..., xy} = {..., x}.y + (-1)^{|x||y|}{..., y}.x in the last slot, "
        "other slots via the skew clause; unit argument gives 0"
    ),
}


def sign_odd(degrees, selection) -> int:
    """Sign of the reordering sending (a_1,...,a_m) to (a_{s(1)},...,a_{s(m)}).

    ``selection[k]`` is the 0-indexed original position of the k-th output
    element.  Each element counts as a block of size ``degree + 1``, so two
    even-degree elements anticommute and every other pair commutes: the sign
    is that of sorting the selection back with even degree as the odd flag.
    """
    if len(degrees) != len(selection):
        raise ValueError("degrees and permutation length differ")
    if not is_perm(selection):
        raise ValueError(f"not a permutation: {tuple(selection)}")
    return koszul_sort(selection, lambda k: degrees[k] % 2 == 0)[1]


def shuffles(i: int, j: int) -> list[tuple[int, ...]]:
    """All selections in S_{i+j} increasing on the first i and last j slots."""
    out = []
    for head in itertools.combinations(range(i + j), i):
        tail = tuple(k for k in range(i + j) if k not in head)
        out.append(head + tail)
    return out


def all_orders(i: int, j: int):
    """Every selection in S_{i+j}: the all-of-S_m reading of a block."""
    return itertools.permutations(range(i + j))


@lru_cache(maxsize=256)
def _selection_table(m: int, parities: tuple[int, ...], selections) -> tuple:
    """Rows ``(i, j, head, tail, sign)`` of the m-th axiom, one per sigma of
    ``selections(i, j - 1)`` for each i + j = m + 1, with ``sign`` the
    :func:`sign_odd` of sigma on degrees of these parities."""
    return tuple(
        (i, m + 1 - i, sel[:i], sel[i:], sign_odd(parities, sel))
        for i in range(1, m + 1)
        for sel in selections(i, m - i)
    )


def _vanishes(canonical, odd) -> bool:
    # a repeated anticommuting argument anticommutes with itself
    return any(a == b and odd(a) for a, b in zip(canonical, canonical[1:]))


def _skew_lookup(table: dict | None, args: tuple, odd) -> dict:
    """A bracket stored by sorted arguments in ``table``, evaluated at ``args``.

    By the skew clause, with ``odd`` flagging the anticommuting arguments, it
    is the Koszul sign of sorting ``args`` times the stored value; tables
    hold no argument tuple that skewness forces to vanish.
    """
    if not table:
        return {}
    canonical, sign = koszul_sort(args, odd)
    stored = table.get(canonical)
    if not stored:
        return {}
    return {k: sign * c for k, c in stored.items()}


def _axiom_terms(m: int, args: tuple, degrees, bracket, selections=shuffles):
    """The terms of the m-th axiom on ``args``.

    Yields ``((i, j), sign * c, {v, tail}_j)`` for each term ``c . v`` of each
    inner bracket ``{head}_i``, with ``bracket(n, args)`` evaluating the
    n-ary bracket.  ``selections(i, j - 1)`` lists the sigma of the (i, j)
    block: the shuffles for the axiom.  The sigma and their signs depend only
    on m and the degree parities, so they are read from one signed-selection
    table per parity pattern and selection rule (:func:`_selection_table`).
    """
    if len(args) != m:
        raise ValueError(f"expected {m} arguments, got {len(args)}")
    parities = tuple(d % 2 for d in degrees)
    pick = args.__getitem__
    for i, j, head, tail, sign in _selection_table(m, parities, selections):
        inner = bracket(i, tuple(map(pick, head)))
        if not inner:
            continue
        rest = tuple(map(pick, tail))
        for v, c in inner.items():
            yield (i, j), sign * c, bracket(j, (v,) + rest)


def _axiom_sum(terms) -> dict:
    total: dict = {}
    for _, c, outer in terms:
        sparse.accumulate(total, outer.items(), c)
    return sparse.purge(total)


class GradedBasis:
    """Distinct generator labels with one integer degree each; immutable."""

    __slots__ = ("labels", "degrees")
    labels: tuple[str, ...]
    degrees: tuple[int, ...]

    def __init__(self, labels: tuple[str, ...], degrees: tuple[int, ...]):
        if len(labels) != len(degrees):
            raise ValueError("labels and degrees must align")
        seen: set[str] = set()
        for label in labels:
            if label in seen:
                raise ValueError(f"duplicate label {label!r}")
            seen.add(label)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "degrees", degrees)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: GradedBasis is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: GradedBasis is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.degrees) == (other.labels, other.degrees)

    def __hash__(self):
        return hash((self.labels, self.degrees))

    def __repr__(self):
        return f"GradedBasis(labels={self.labels!r}, degrees={self.degrees!r})"

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def degree(self, generator: int) -> int:
        return self.degrees[generator]

    def anticommutes(self, generator: int) -> bool:
        """The skew clause's flag: even-degree generators anticommute."""
        return self.degrees[generator] % 2 == 0


class MultiBracketFamily:
    """Finitely many n-ary graded-skew operations of degree 2 - n.

    ``ops[n]`` maps canonical (index-sorted) argument tuples to value
    elements.  Construction validates the degree shift and rejects entries
    that skewness forces to vanish; lookups resolve arbitrary argument
    orders through the Koszul sort.
    """

    def __init__(self, basis: GradedBasis, ops: dict[int, dict[tuple[int, ...], Element]]):
        self.basis = basis
        self.ops: dict[int, dict[tuple[int, ...], Element]] = {}
        for n, table in ops.items():
            for args, value in table.items():
                self.add(n, args, value)

    def add(self, n: int, args: tuple[int, ...], value: Element) -> None:
        """Store ``value`` as the n-ary bracket at ``args``, a zero dropped;
        raises ``ValueError`` on an entry the family cannot hold."""
        degrees = self.basis.degrees
        if len(args) != n:
            raise ValueError(f"arity {n} entry with {len(args)} arguments")
        if any(not 0 <= k < len(degrees) for k in (*args, *value)):
            raise ValueError(f"generator index out of range 0..{len(degrees) - 1}")
        if tuple(sorted(args)) != tuple(args):
            raise ValueError("ops must be keyed by sorted argument tuples")
        if _vanishes(args, self.basis.anticommutes):
            if any(value.values()):
                raise ValueError(f"skewness forces {args} to vanish but a value was given")
            return
        value = sparse.purge(value)
        want = sum(degrees[a] for a in args) + 2 - n
        for target in value:
            if degrees[target] != want:
                raise ValueError(
                    f"value of arity-{n} bracket at {args} has degree "
                    f"{degrees[target]}, expected {want}"
                )
        if value:
            self.ops.setdefault(n, {})[tuple(args)] = value

    def arities(self) -> list[int]:
        return sorted(self.ops)

    def value(self, n: int, args: tuple[int, ...]) -> Element:
        return _skew_lookup(self.ops.get(n), args, self.basis.anticommutes)


def linfty_residual_blocks(
    fam: MultiBracketFamily, m: int, args: tuple[int, ...], mode: str = "shuffle"
) -> dict[tuple[int, int], Element]:
    """Per-(i, j) blocks of the m-th axiom residual on generator arguments.

    ``mode="shuffle"`` (the axiom) sums sigma over (i, j-1)-shuffles;
    ``mode="full"`` sums over all of S_m, which scales each block by the
    symmetry factor i!(j-1)!.
    """
    if mode not in ("full", "shuffle"):
        raise ValueError("mode must be 'full' or 'shuffle'")
    selections = shuffles if mode == "shuffle" else all_orders
    degrees = [fam.basis.degree(a) for a in args]
    blocks: dict[tuple[int, int], Element] = {}
    for block, c, outer in _axiom_terms(m, args, degrees, fam.value, selections):
        sparse.accumulate(blocks.setdefault(block, {}), outer.items(), c)
    purged = {key: sparse.purge(block) for key, block in blocks.items()}
    return {key: block for key, block in purged.items() if block}


def linfty_residual(fam: MultiBracketFamily, m: int, args: tuple[int, ...]) -> Element:
    """The m-th axiom residual on generator arguments (shuffle convention)."""
    degrees = [fam.basis.degree(a) for a in args]
    return _axiom_sum(_axiom_terms(m, args, degrees, fam.value))


def family_is_linfty(fam: MultiBracketFamily, max_m: int) -> tuple[bool, tuple | None]:
    """Check the axioms for m <= max_m on all sorted generator tuples."""
    n = len(fam.basis.labels)
    tuples = (
        (m, args)
        for m in range(1, max_m + 1)
        for args in itertools.combinations_with_replacement(range(n), m)
    )
    witness, _, _ = first_failure(tuples, partial(linfty_residual, fam))
    return witness is None, witness


# ---------------------------------------------------------------------------
# truncated supersymmetric algebra and the product extension
# ---------------------------------------------------------------------------

Monomial = tuple  # sorted generators; odd generators squarefree
SuperElement = dict[Monomial, Fraction]


class SuperSymAlgebra:
    """Free graded-commutative algebra on ordered generators, words capped.

    ``degree`` gives each generator's degree; ``cap=None`` leaves words
    unbounded.
    """

    def __init__(self, degree, cap: int | None = None):
        self.generator_degree = degree
        self.cap = cap

    def sort_word(self, word: tuple) -> tuple[Monomial | None, int]:
        """Koszul sort; None when an odd generator repeats."""
        degree = self.generator_degree
        items, sign = koszul_sort(word, lambda a: degree(a) % 2)
        for a, b in zip(items, items[1:]):
            if a == b and degree(a) % 2:
                return None, 0
        return items, sign

    def degree(self, monomial: Monomial) -> int:
        return sum(map(self.generator_degree, monomial))

    def mul_monomial(self, x: SuperElement, b: Monomial):
        """The terms of ``x . b`` in the order of ``x``, the cap checked on
        each; distinct monomials of ``x`` give distinct words."""
        for a, c in x.items():
            if self.cap is not None and len(a) + len(b) > self.cap:
                raise TruncationOverflow(f"product of words {a} and {b} leaves the cap")
            word, sign = self.sort_word(a + b)
            if word is not None:
                yield word, sign * c

    def mul_word(self, a: Monomial, b: Monomial) -> SuperElement:
        return dict(self.mul_monomial({a: ONE}, b))

    def mul(self, x: SuperElement, y: SuperElement) -> SuperElement:
        return sparse.structure_product(x, y, self.mul_word)


class ExtendedFamily:
    """Bracket family on monomial arguments via the two-term Leibniz rule.

    ``fam.value(n, generators)`` gives the brackets on the algebra's
    generators: a :class:`MultiBracketFamily`, or uninterpreted brackets.
    """

    def __init__(self, fam, algebra: SuperSymAlgebra):
        self.fam = fam
        self.algebra = algebra
        self._cache: dict[tuple[int, tuple[Monomial, ...]], SuperElement] = {}

    def value(self, n: int, args: tuple[Monomial, ...]) -> SuperElement:
        key = (n, tuple(args))
        result = self._cache.get(key)
        if result is None:
            result = self._cache[key] = self._compute(*key)
        return result

    def _compute(self, n: int, args: tuple[Monomial, ...]) -> SuperElement:
        if not all(args):
            return {}  # unit argument
        split = next((k for k, a in enumerate(args) if len(a) > 1), None)
        if split is None:
            base = self.fam.value(n, tuple(a[0] for a in args))
            return {(g,): c for g, c in base.items()}
        head, tail = args[:split], args[split + 1 :]
        x, y = args[split][:-1], args[split][-1:]
        degree = self.algebra.degree
        dx, dy = degree(x), degree(y)
        s = sum(map(degree, tail)) + len(tail)
        total: SuperElement = {}
        for kept, moved, exponent in ((x, y, dy * s), (y, x, dx * (dy + s))):
            term = self.algebra.mul_monomial(self.value(n, head + (kept,) + tail), moved)
            sparse.accumulate(total, term, -1 if exponent % 2 else 1)
        return sparse.purge(total)

    def axiom_terms(self, m: int, args: tuple[Monomial, ...]):
        degrees = [self.algebra.degree(a) for a in args]
        return _axiom_terms(m, args, degrees, self.value)

    def residual(self, m: int, args: tuple[Monomial, ...]) -> SuperElement:
        return _axiom_sum(self.axiom_terms(m, args))


class ExtensionCheck(NamedTuple):
    name: str
    passed: bool
    witness: tuple | None
    skipped: int = 0

    def line(self) -> str:
        tail = f" ({self.skipped} tuples beyond the cap skipped)" if self.skipped else ""
        if self.passed:
            return f"{self.name}: PASS{tail}"
        return f"{self.name}: FAIL at {self.witness}{tail}"


class ExtensionReport(NamedTuple):
    checks: tuple[ExtensionCheck, ...]
    audit_cross_terms_generated: int
    audit_cross_terms_surviving: int
    conventions: tuple[tuple[str, str], ...]

    @property
    def passed(self) -> bool:
        return (
            all(c.passed for c in self.checks) and self.audit_cross_terms_surviving == 0
        )

    def lines(self) -> list[str]:
        out = ["product extension of the bracket family"]
        out.extend(c.line() for c in self.checks)
        out.append(
            "cancellation audit: "
            f"{self.audit_cross_terms_generated} paired product terms generated, "
            f"{self.audit_cross_terms_surviving} survive collection"
        )
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        out.extend(f"convention {k}: {v}" for k, v in self.conventions)
        return out


def _product_tuples(algebra: SuperSymAlgebra, fam: MultiBracketFamily, max_m: int):
    """``(m, args)`` for each m up to ``max_m`` with one argument a nonzero
    product of two generators, followed by m - 1 generators."""
    ngen = len(fam.basis.labels)
    for m in range(1, max_m + 1):
        for others in itertools.combinations_with_replacement(range(ngen), m - 1):
            for pair in itertools.combinations_with_replacement(range(ngen), 2):
                prod_word, _ = algebra.sort_word(pair)
                if prod_word is not None:
                    yield m, (prod_word,) + tuple((g,) for g in others)


def product_extension_check(fam: MultiBracketFamily, max_m: int = 3, cap: int = 3) -> ExtensionReport:
    """Axioms for the extended family on products, plus the formal audit.

    Verifies the axioms on generators first (precondition), then on all
    argument tuples in which one argument is a product of two generators,
    for every m up to ``max_m``.  The formal audit re-derives the pairwise
    cancellation of product-of-bracket terms with uninterpreted brackets on
    every degree pattern in {0,1}; all the patterns of one call share one
    family of formal brackets, so each bracket value is worked out once per
    call.
    """
    checks = []
    ok, witness = family_is_linfty(fam, max_m)
    checks.append(ExtensionCheck("axioms on generators", ok, witness))

    algebra = SuperSymAlgebra(fam.basis.degree, cap)
    ext = ExtendedFamily(fam, algebra)
    witness, _, skipped = first_failure(_product_tuples(algebra, fam, max_m), ext.residual)
    checks.append(
        ExtensionCheck("axioms on products of two generators", witness is None, witness, skipped)
    )

    generated = surviving = 0
    audit_ok = True
    formal = _formal_extension()
    for m in range(1, max_m + 1):
        for degs in itertools.product((0, 1), repeat=m + 1):
            gen, surv, identity_ok = _audit_pattern(formal, m, degs)
            generated += gen
            surviving += surv
            audit_ok = audit_ok and identity_ok
    checks.append(ExtensionCheck("formal Leibniz identity", audit_ok, None))

    return ExtensionReport(
        checks=tuple(checks),
        audit_cross_terms_generated=generated,
        audit_cross_terms_surviving=surviving,
        conventions=tuple(sorted(CONVENTIONS.items())),
    )


# ---------------------------------------------------------------------------
# formal cancellation audit (uninterpreted brackets)
# ---------------------------------------------------------------------------

# formal atoms: (0, name, degree) for a generator, (1, arity, args) for a
# bracket of atoms, so that generators sort before brackets


def _atom_degree(atom) -> int:
    if atom[0] == 0:
        return atom[2]
    return 2 - atom[1] + sum(map(_atom_degree, atom[2]))


class FormalBrackets:
    """Uninterpreted brackets: each bracket of atoms is a new atom.

    ``odd`` flags the arguments that anticommute: by default the skew
    clause's even-degree ones.  With ``odd=None`` the brackets have no
    symmetry and keep their arguments in order.
    """

    def __init__(self, odd=lambda atom: _atom_degree(atom) % 2 == 0):
        self.odd = odd

    def value(self, n: int, atoms: tuple) -> dict:
        if self.odd is None:
            return {(1, n, atoms): ONE}
        canonical, sign = koszul_sort(atoms, self.odd)
        return {} if _vanishes(canonical, self.odd) else {(1, n, canonical): sign}


def _bracket_count(monomial: Monomial) -> int:
    return sum(1 for atom in monomial if atom[0] == 1)


def audit_cancellation(m: int, degrees: tuple[int, ...]) -> tuple[int, int, bool]:
    """Formal check of the Leibniz identity for the m-th axiom.

    ``degrees`` assigns degrees to the two factors x, y of the split last
    argument followed by the m-1 remaining arguments.  Verifies, with
    uninterpreted brackets, that

        axiom(s_1, ..., s_{m-1}, xy)
            = axiom(..., x) . y + (-1)^{|x||y|} axiom(..., y) . x

    which forces every product-of-two-brackets term to cancel pairwise.
    Returns (number of such product terms generated before collection,
    number surviving collection, whether the identity holds formally).
    """
    if len(degrees) != m + 1:
        raise ValueError("need degrees for the two factors plus m-1 others")
    return _audit_pattern(_formal_extension(), m, degrees)


def _formal_extension() -> ExtendedFamily:
    return ExtendedFamily(FormalBrackets(), SuperSymAlgebra(_atom_degree))


def _audit_pattern(ext: ExtendedFamily, m: int, degrees: tuple[int, ...]) -> tuple[int, int, bool]:
    """:func:`audit_cancellation` with the formal brackets' values read from
    ``ext``.  A formal atom determines its degree, so a value computed for
    one degree pattern holds for every other, and one ``ext`` serves them
    all."""
    x = (0, "x", degrees[0])
    y = (0, "y", degrees[1])
    others = tuple(((0, f"s{k}", degrees[2 + k]),) for k in range(m - 1))
    algebra = ext.algebra

    generated = 0
    expansion: SuperElement = {}
    for _, c, outer in ext.axiom_terms(m, others + ((x, y),)):
        generated += sum(1 for mono in outer if _bracket_count(mono) >= 2)
        sparse.accumulate(expansion, outer.items(), c)
    expansion = sparse.purge(expansion)
    surviving = sum(1 for mono in expansion if _bracket_count(mono) >= 2)

    reference = dict(algebra.mul_monomial(ext.residual(m, others + ((x,),)), (y,)))
    swapped = algebra.mul_monomial(ext.residual(m, others + ((y,),)), (x,))
    sign = -1 if degrees[0] * degrees[1] % 2 else 1
    sparse.accumulate(reference, swapped, sign)
    identity_ok = sparse.purge(reference) == expansion
    return generated, surviving, identity_ok


# ---------------------------------------------------------------------------
# homotopy fixture: solve the third bracket from the failed Jacobi identity
# ---------------------------------------------------------------------------


def solve_homotopy_bracket(
    basis: GradedBasis,
    d_table: dict[tuple[int, ...], Element],
    b2_table: dict[tuple[int, ...], Element],
) -> MultiBracketFamily | None:
    """Find a ternary bracket making (d, {,}, {,,}) satisfy the axioms.

    The m=3 axiom is affine in the unknown ternary values; the m=4 axiom is
    linear in them (the quaternary bracket is zero).  Solves the combined
    exact system and returns the family with free coordinates set to zero,
    or None when inconsistent.
    """
    ngen = len(basis.labels)
    partial = MultiBracketFamily(basis, {1: d_table, 2: b2_table})

    # unknown coordinates: canonical triples not forced to zero, one unknown
    # per target generator of the right degree.  The ternary bracket sends a
    # triple to its unknowns, each tagged with its column.
    unknowns: list[tuple[tuple[int, int, int], int]] = []
    b3_table: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for triple in itertools.combinations_with_replacement(range(ngen), 3):
        if _vanishes(triple, basis.anticommutes):
            continue
        want = sum(map(basis.degree, triple)) - 1
        for target in range(ngen):
            if basis.degree(target) == want:
                b3_table.setdefault(triple, {})[(target, len(unknowns))] = 1
                unknowns.append((triple, target))
    const = len(unknowns)  # the column of the constant term

    values: dict[tuple, dict] = {}

    def bracket(n: int, tagged: tuple[tuple[int, int], ...]) -> dict:
        """The n-ary bracket on (generator, column) arguments, each computed
        once per solve.

        A term holds at most one ternary bracket through m=4, so every
        argument of the ternary one is constant, and the column of a term is
        its one unknown column, which lies below ``const``, if it has one.
        """
        key = (n, tagged)
        if key in values:
            return values[key]
        gens = tuple(g for g, _ in tagged)
        if n == 3:
            value = _skew_lookup(b3_table, gens, basis.anticommutes)
        else:
            col = min(col for _, col in tagged)
            value = {(w, col): c for w, c in partial.value(n, gens).items()}
        values[key] = value
        return value

    rows: list[dict[int, Fraction]] = []
    for m in (3, 4):
        for args in itertools.combinations_with_replacement(range(ngen), m):
            by_target: dict[int, dict[int, Fraction]] = {}
            degrees = list(map(basis.degree, args))
            tagged = tuple((a, const) for a in args)
            for _, c, outer in _axiom_terms(m, tagged, degrees, bracket):
                for (w, col), cw in outer.items():
                    row = by_target.setdefault(w, {})
                    row[col] = row.get(col, 0) + c * cw
            rows.extend(filter(None, map(sparse.purge, by_target.values())))

    reduced = rref(rows, const + 1)
    if const in reduced.pivot_cols:
        return None  # inconsistent: the defect is not exact
    b3: dict[tuple[int, ...], Element] = {}
    for pcol, prow in zip(reduced.pivot_cols, reduced.sparse_rows):
        if const in prow:  # free coordinates stay zero
            triple, target = unknowns[pcol]
            b3.setdefault(triple, {})[target] = -prow[const]
    return MultiBracketFamily(basis, {1: d_table, 2: b2_table, 3: b3})


def cone_fixture() -> MultiBracketFamily:
    """Differential graded Lie superalgebra: the cone on the adjoint of sl2.

    Generators xe, xf, xh in degree 0 carry the sl2 bracket, ye, yf, yh in
    degree -1 form the adjoint module shifted down, and d sends each y to
    the matching x.  The bracket table lists the degree-0-first pairs, for
    which the parity-shift twist is trivial, so the family is an honest
    classical structure in the bracket conventions of this module.
    """
    basis = GradedBasis(("xe", "xf", "xh", "ye", "yf", "yh"), (0, 0, 0, -1, -1, -1))
    xe, xf, xh, ye, yf, yh = range(6)
    two = Fraction(2)
    d_table = {(ye,): {xe: ONE}, (yf,): {xf: ONE}, (yh,): {xh: ONE}}
    b2_table = {
        (xe, xf): {xh: ONE},
        (xe, xh): {xe: -two},
        (xf, xh): {xf: two},
        (xe, yf): {yh: ONE},
        (xe, yh): {ye: -two},
        (xf, ye): {yh: -ONE},
        (xf, yh): {yf: two},
        (xh, ye): {ye: two},
        (xh, yf): {yf: -two},
    }
    return MultiBracketFamily(basis, {1: d_table, 2: b2_table})


def homotopy_fixture() -> MultiBracketFamily:
    """Graded generators whose binary bracket fails the Jacobi identity on
    the nose but satisfies it up to the differential, with the ternary
    correction solved exactly from the m=3 axiom (m=4 enforced as well)."""
    basis = GradedBasis(("a", "b", "u", "v"), (0, 0, 1, 1))
    a, b, u, v = 0, 1, 2, 3
    d_table = {(a,): {u: ONE}, (b,): {v: ONE}}
    b2_table = {
        (a, u): {u: -ONE, v: -ONE},
        (b, v): {v: -ONE},
    }
    fam = solve_homotopy_bracket(basis, d_table, b2_table)
    if fam is None:
        raise RuntimeError("homotopy fixture became unsolvable; check the tables")
    return fam


def three_generator_fixture() -> MultiBracketFamily:
    """All of {}_1, {}_2, {}_3 nonzero on exactly three graded generators.

    The binary bracket violates the Jacobi identity on the nose (the
    {a,{a,b}} terms do not cancel), and the unary operation is a genuine
    differential, so the arity-3 identity forces a nonzero ternary
    corrector; it is solved exactly, with the arity-4 identity enforced.
    """
    basis = GradedBasis(("a", "b", "u"), (0, 0, 1))
    a, b, u = 0, 1, 2
    d_table = {(a,): {u: ONE}, (b,): {u: ONE}}
    b2_table = {(a, b): {a: ONE}, (a, u): {u: ONE}}
    fam = solve_homotopy_bracket(basis, d_table, b2_table)
    if fam is None or not fam.ops.get(3):
        raise RuntimeError("three-generator fixture lost its ternary bracket")
    return fam
