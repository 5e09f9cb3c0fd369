"""Strong homotopy Lie structure: graded signs, axiom residuals, extension.

Sign convention: all Koszul-style signs route through :func:`sign_odd`, the
sign of the block permutation with block sizes ``degree + 1``.  Operations
are "completely graded-skew" in the matching sense::

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
Summing sigma over all of S_m instead (available as ``mode="full"``)
inflates the (i, j) block by exactly the symmetry factor i!(j-1)!, since
skewness makes the shuffle representatives of a coset contribute equally;
the blockwise comparison is exposed through :func:`linfty_residual_blocks`.

The product extension follows the two-term Leibniz rule in its canonical
last-slot form

    {a_1, ..., a_{m-1}, xy}
        = {a_1, ..., a_{m-1}, x} . y + (-1)^{|x||y|} {a_1, ..., a_{m-1}, y} . x

with unshifted degrees and ``{..., 1, ...} = 0``; products in other slots
are first rotated to the last slot through the skew clause.  For the
degree-0 binary bracket this recovers the familiar slot-wise rule
``{z, xy} = (-1)^{|x||z|} x {z, y} + (-1)^{|y|(|x|+|z|)} y {z, x}``, and for
the unary bracket it is the usual odd derivation
``d(xy) = d(x) y + (-1)^{|x|} x d(y)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import sparse
from .algebras import TruncationOverflow
from .linalg import rref
from .sparse import ONE, ZERO
from .tensoralg import block_permutation_expand, perm_inverse, perm_sign

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
    odd-degree elements commute and all other pairs anticommute.
    """
    if len(degrees) != len(selection):
        raise ValueError("degrees and permutation length differ")
    sizes = tuple((d + 1) % 2 for d in degrees)
    return perm_sign(block_permutation_expand(perm_inverse(tuple(selection)), sizes))


def shuffles(i: int, j: int) -> list[tuple[int, ...]]:
    """All selections in S_{i+j} increasing on the first i and last j slots."""
    out = []
    for head in itertools.combinations(range(i + j), i):
        tail = tuple(k for k in range(i + j) if k not in head)
        out.append(head + tail)
    return out


@dataclass(frozen=True)
class GradedBasis:
    labels: tuple[str, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.degrees):
            raise ValueError("labels and degrees must align")

    def index(self, label: str) -> int:
        return self.labels.index(label)


class MultiBracketFamily:
    """Finitely many n-ary graded-skew operations of degree 2 - n.

    ``ops[n]`` maps canonical (index-sorted) argument tuples to value
    elements.  Construction validates the degree shift and rejects entries
    that skewness forces to vanish; lookups resolve arbitrary argument
    orders through :func:`sign_odd`.
    """

    def __init__(self, basis: GradedBasis, ops: dict[int, dict[tuple[int, ...], Element]]):
        self.basis = basis
        self.ops: dict[int, dict[tuple[int, ...], Element]] = {}
        for n, table in ops.items():
            clean: dict[tuple[int, ...], Element] = {}
            for args, value in table.items():
                if len(args) != n:
                    raise ValueError(f"arity {n} entry with {len(args)} arguments")
                if tuple(sorted(args)) != tuple(args):
                    raise ValueError("ops must be keyed by sorted argument tuples")
                if self._forced_zero(args):
                    if any(value.values()):
                        raise ValueError(
                            f"skewness forces {args} to vanish but a value was given"
                        )
                    continue
                value = sparse.purge(value)
                want = sum(self.basis.degrees[a] for a in args) + 2 - n
                for target in value:
                    if self.basis.degrees[target] != want:
                        raise ValueError(
                            f"value of arity-{n} bracket at {args} has degree "
                            f"{self.basis.degrees[target]}, expected {want}"
                        )
                if value:
                    clean[tuple(args)] = value
            if clean:
                self.ops[n] = clean

    def _forced_zero(self, args) -> bool:
        # a repeated even-degree argument anticommutes with itself
        return any(
            a == b and self.basis.degrees[a] % 2 == 0
            for a, b in zip(args, args[1:])
        )

    def arities(self) -> list[int]:
        return sorted(self.ops)

    def value(self, n: int, args: tuple[int, ...]) -> Element:
        if self._forced_zero(tuple(sorted(args))):
            return {}
        order = tuple(sorted(range(len(args)), key=lambda k: args[k]))
        sign = sign_odd([self.basis.degrees[a] for a in args], order)
        canonical = tuple(args[k] for k in order)
        stored = self.ops.get(n, {}).get(canonical, {})
        return {k: sign * c for k, c in stored.items()}

    def value_on_elements(self, n: int, args: list[Element]) -> Element:
        total: Element = {}
        for combo in itertools.product(*[list(a.items()) for a in args]):
            coeff = ONE
            for _, c in combo:
                coeff *= c
            value = self.value(n, tuple(idx for idx, _ in combo))
            sparse.accumulate(total, value.items(), coeff)
        return sparse.purge(total)


def linfty_residual_blocks(
    fam: MultiBracketFamily, m: int, args: tuple[int, ...], mode: str = "shuffle"
) -> dict[tuple[int, int], Element]:
    """Per-(i, j) blocks of the m-th axiom residual on generator arguments.

    ``mode="shuffle"`` (the axiom) sums sigma over (i, j-1)-shuffles;
    ``mode="full"`` sums over all of S_m, which scales each block by the
    symmetry factor i!(j-1)!.
    """
    if len(args) != m:
        raise ValueError(f"expected {m} arguments, got {len(args)}")
    if mode not in ("full", "shuffle"):
        raise ValueError("mode must be 'full' or 'shuffle'")
    degrees = [fam.basis.degrees[a] for a in args]
    blocks: dict[tuple[int, int], Element] = {}
    for i in range(1, m + 1):
        j = m + 1 - i
        selections = (
            itertools.permutations(range(m)) if mode == "full" else shuffles(i, j - 1)
        )
        block: Element = {}
        for sel in selections:
            sign = sign_odd(degrees, sel)
            inner = fam.value(i, tuple(args[k] for k in sel[:i]))
            if not inner:
                continue
            tail = tuple(args[k] for k in sel[i:])
            for v, cv in inner.items():
                sparse.accumulate(block, fam.value(j, (v,) + tail).items(), sign * cv)
        block = sparse.purge(block)
        if block:
            blocks[(i, j)] = block
    return blocks


def linfty_residual(
    fam: MultiBracketFamily, m: int, args: tuple[int, ...], mode: str = "shuffle"
) -> Element:
    """The m-th axiom residual on generator arguments (shuffle convention)."""
    total: Element = {}
    for block in linfty_residual_blocks(fam, m, args, mode).values():
        sparse.accumulate(total, block.items())
    return sparse.purge(total)


def family_is_linfty(fam: MultiBracketFamily, max_m: int) -> tuple[bool, tuple | None]:
    """Check the axioms for m <= max_m on all sorted generator tuples."""
    n = len(fam.basis.labels)
    for m in range(1, max_m + 1):
        for args in itertools.combinations_with_replacement(range(n), m):
            if linfty_residual(fam, m, args):
                return False, (m, args)
    return True, None


# ---------------------------------------------------------------------------
# truncated supersymmetric algebra and the product extension
# ---------------------------------------------------------------------------

Monomial = tuple[int, ...]  # sorted generator indices; odd generators squarefree
SuperElement = dict[Monomial, Fraction]


class SuperSymAlgebra:
    """Free graded-commutative algebra on the generators, words capped."""

    def __init__(self, basis: GradedBasis, cap: int):
        self.basis = basis
        self.cap = cap

    def sort_word(self, word: tuple[int, ...]) -> tuple[Monomial | None, int]:
        """Koszul bubble sort; None when an odd generator repeats."""
        items = list(word)
        sign = 1
        for i in range(len(items)):
            for j in range(len(items) - 1 - i):
                if items[j] > items[j + 1]:
                    if (
                        self.basis.degrees[items[j]] % 2
                        and self.basis.degrees[items[j + 1]] % 2
                    ):
                        sign = -sign
                    items[j], items[j + 1] = items[j + 1], items[j]
        for a, b in zip(items, items[1:]):
            if a == b and self.basis.degrees[a] % 2:
                return None, 0
        return tuple(items), sign

    def degree(self, monomial: Monomial) -> int:
        return sum(self.basis.degrees[g] for g in monomial)

    def mul_word(self, a: Monomial, b: Monomial) -> SuperElement:
        if len(a) + len(b) > self.cap:
            raise TruncationOverflow(f"product of words {a} and {b} leaves the cap")
        word, sign = self.sort_word(a + b)
        return {} if word is None else {word: sign}

    def mul(self, x: SuperElement, y: SuperElement) -> SuperElement:
        return sparse.structure_product(x, y, self.mul_word)


class ExtendedFamily:
    """Bracket family on monomial arguments via the two-term Leibniz rule."""

    def __init__(self, fam: MultiBracketFamily, algebra: SuperSymAlgebra):
        self.fam = fam
        self.algebra = algebra
        self._cache: dict[tuple[int, tuple[Monomial, ...]], SuperElement] = {}

    def value(self, n: int, args: tuple[Monomial, ...]) -> SuperElement:
        key = (n, tuple(args))
        if key in self._cache:
            return self._cache[key]
        result = self._compute(n, tuple(args))
        self._cache[key] = result
        return result

    def _compute(self, n: int, args: tuple[Monomial, ...]) -> SuperElement:
        if any(len(a) == 0 for a in args):
            return {}  # unit argument
        split = next((k for k, a in enumerate(args) if len(a) > 1), None)
        if split is None:
            base = self.fam.value(n, tuple(a[0] for a in args))
            return {(g,): c for g, c in base.items()}
        if split != n - 1:
            # rotate the product argument into the last slot (skew clause)
            sel = tuple(k for k in range(n) if k != split) + (split,)
            sign = sign_odd([self.algebra.degree(a) for a in args], sel)
            rotated = self.value(n, tuple(args[k] for k in sel))
            return {m: sign * c for m, c in rotated.items()}
        x, y = args[-1][:-1], args[-1][-1:]
        dx, dy = self.algebra.degree(x), self.algebra.degree(y)
        total = self.algebra.mul(self.value(n, args[:-1] + (x,)), {y: ONE})
        swapped = self.algebra.mul(self.value(n, args[:-1] + (y,)), {x: ONE})
        sparse.accumulate(total, swapped.items(), -1 if dx * dy % 2 else 1)
        return sparse.purge(total)

    def residual(self, m: int, args: tuple[Monomial, ...]) -> SuperElement:
        degrees = [self.algebra.degree(a) for a in args]
        total: SuperElement = {}
        for i in range(1, m + 1):
            j = m + 1 - i
            for sel in shuffles(i, j - 1):
                sign = sign_odd(degrees, sel)
                inner = self.value(i, tuple(args[k] for k in sel[:i]))
                if not inner:
                    continue
                tail = tuple(args[k] for k in sel[i:])
                for mono, cv in inner.items():
                    sparse.accumulate(total, self.value(j, (mono,) + tail).items(), sign * cv)
        return sparse.purge(total)


@dataclass(frozen=True)
class ExtensionCheck:
    name: str
    passed: bool
    witness: tuple | None
    skipped: int = 0

    def line(self) -> str:
        tail = f" ({self.skipped} tuples beyond the cap skipped)" if self.skipped else ""
        if self.passed:
            return f"{self.name}: PASS{tail}"
        return f"{self.name}: FAIL at {self.witness}{tail}"


@dataclass(frozen=True)
class ExtensionReport:
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


def product_extension_check(fam: MultiBracketFamily, max_m: int = 3, cap: int = 3) -> ExtensionReport:
    """Axioms for the extended family on products, plus the formal audit.

    Verifies the axioms on generators first (precondition), then on all
    argument tuples in which one argument is a product of two generators,
    for every m up to ``max_m``.  The formal audit re-derives the pairwise
    cancellation of product-of-bracket terms with uninterpreted brackets on
    every degree pattern in {0,1}.
    """
    checks = []
    ok, witness = family_is_linfty(fam, max_m)
    checks.append(ExtensionCheck("axioms on generators", ok, witness))

    algebra = SuperSymAlgebra(fam.basis, cap)
    ext = ExtendedFamily(fam, algebra)
    ngen = len(fam.basis.labels)
    witness = None
    skipped = 0
    for m in range(1, max_m + 1):
        gen_tuples = itertools.combinations_with_replacement(range(ngen), m - 1)
        for others in gen_tuples:
            for pair in itertools.combinations_with_replacement(range(ngen), 2):
                prod_word, _ = algebra.sort_word(pair)
                if prod_word is None:
                    continue
                args = (prod_word,) + tuple((g,) for g in others)
                try:
                    if ext.residual(m, args):
                        witness = (m, args)
                        break
                except TruncationOverflow:
                    skipped += 1
            if witness:
                break
        if witness:
            break
    checks.append(
        ExtensionCheck("axioms on products of two generators", witness is None, witness, skipped)
    )

    generated = surviving = 0
    audit_ok = True
    for m in range(1, max_m + 1):
        for degs in itertools.product((0, 1), repeat=m + 1):
            gen, surv, identity_ok = audit_cancellation(m, degs)
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

# formal atoms: ("g", name, degree) or ("B", arity, args-tuple-of-atoms)


def _atom_degree(atom) -> int:
    if atom[0] == "g":
        return atom[2]
    return 2 - atom[1] + sum(_atom_degree(a) for a in atom[2])


def _koszul_sort(atoms: tuple) -> tuple[tuple | None, int]:
    items = list(atoms)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if repr(items[j]) > repr(items[j + 1]):
                if _atom_degree(items[j]) % 2 and _atom_degree(items[j + 1]) % 2:
                    sign = -sign
                items[j], items[j + 1] = items[j + 1], items[j]
    for a, b in zip(items, items[1:]):
        if a == b and _atom_degree(a) % 2:
            return None, 0
    return tuple(items), sign


FormalElement = dict[tuple, Fraction]  # sorted atom tuples -> coefficient


def _formal_mul(x: FormalElement, y: FormalElement) -> FormalElement:
    products = (
        (_koszul_sort(ma + mb), ca * cb) for ma, ca in x.items() for mb, cb in y.items()
    )
    out: FormalElement = {}
    sparse.accumulate(
        out, ((mono, c * sign) for (mono, sign), c in products if mono is not None)
    )
    return sparse.purge(out)


def _formal_bracket(arity: int, args: tuple[tuple, ...]) -> FormalElement:
    """Evaluate an uninterpreted bracket on formal monomial arguments."""
    if any(len(a) == 0 for a in args):
        return {}
    split = next((k for k, a in enumerate(args) if len(a) > 1), None)
    if split is None:
        atoms = tuple(a[0] for a in args)
        degrees = [_atom_degree(a) for a in atoms]
        order = tuple(sorted(range(len(atoms)), key=lambda k: repr(atoms[k])))
        canonical = tuple(atoms[k] for k in order)
        if any(
            x == y and _atom_degree(x) % 2 == 0
            for x, y in zip(canonical, canonical[1:])
        ):
            return {}
        sign = sign_odd(degrees, order)
        return {(("B", arity, canonical),): sign}
    if split != len(args) - 1:
        sel = tuple(k for k in range(len(args)) if k != split) + (split,)
        degrees = [sum(_atom_degree(a) for a in mono) for mono in args]
        sign = sign_odd(degrees, sel)
        rotated = _formal_bracket(arity, tuple(args[k] for k in sel))
        return {m: sign * c for m, c in rotated.items()}
    x, y = args[-1][:-1], args[-1][-1:]
    dx = sum(_atom_degree(a) for a in x)
    dy = _atom_degree(y[0])
    total = _formal_mul(_formal_bracket(arity, args[:-1] + (x,)), {y: ONE})
    swapped = _formal_mul(_formal_bracket(arity, args[:-1] + (y,)), {x: ONE})
    sparse.accumulate(total, swapped.items(), -1 if dx * dy % 2 else 1)
    return sparse.purge(total)


def _formal_linfax(m: int, args: tuple[tuple, ...]) -> FormalElement:
    degrees = [sum(_atom_degree(a) for a in mono) for mono in args]
    total: FormalElement = {}
    for i in range(1, m + 1):
        j = m + 1 - i
        for sel in shuffles(i, j - 1):
            sign = sign_odd(degrees, sel)
            inner = _formal_bracket(i, tuple(args[k] for k in sel[:i]))
            tail = tuple(args[k] for k in sel[i:])
            for mono, cv in inner.items():
                sparse.accumulate(total, _formal_bracket(j, (mono,) + tail).items(), sign * cv)
    return sparse.purge(total)


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
    x = ("g", "x", degrees[0])
    y = ("g", "y", degrees[1])
    others = tuple((("g", f"s{k}", degrees[2 + k]),) for k in range(m - 1))
    split_args = others + ((x, y),)

    generated = 0
    expansion = _formal_linfax(m, split_args)
    for mono in _formal_linfax_terms(m, split_args):
        if sum(1 for a in mono if a[0] == "B") >= 2:
            generated += 1
    surviving = sum(
        1 for mono in expansion if sum(1 for a in mono if a[0] == "B") >= 2
    )

    reference = _formal_mul(_formal_linfax(m, others + ((x,),)), {(y,): ONE})
    swapped = _formal_mul(_formal_linfax(m, others + ((y,),)), {(x,): ONE})
    sign = -1 if degrees[0] * degrees[1] % 2 else 1
    sparse.accumulate(reference, swapped.items(), sign)
    identity_ok = sparse.purge(reference) == expansion
    return generated, surviving, identity_ok


def _formal_linfax_terms(m: int, args: tuple[tuple, ...]):
    """The individual monomials of the expansion before coefficients merge."""
    for i in range(1, m + 1):
        j = m + 1 - i
        for sel in shuffles(i, j - 1):
            inner = _formal_bracket(i, tuple(args[k] for k in sel[:i]))
            tail = tuple(args[k] for k in sel[i:])
            for mono, cv in inner.items():
                for out in _formal_bracket(j, (mono,) + tail):
                    yield out


# ---------------------------------------------------------------------------
# homotopy fixture: solve the third bracket from the failed Jacobi identity
# ---------------------------------------------------------------------------


def solve_homotopy_bracket(
    basis: GradedBasis,
    d_table: dict[tuple[int, ...], Element],
    b2_table: dict[tuple[int, ...], Element],
    enforce_m4: bool = True,
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
    # per target generator of the right degree
    unknowns: list[tuple[tuple[int, int, int], int]] = []
    for triple in itertools.combinations_with_replacement(range(ngen), 3):
        if partial._forced_zero(triple):
            continue
        want = sum(basis.degrees[a] for a in triple) - 1
        for target in range(ngen):
            if basis.degrees[target] == want:
                unknowns.append((triple, target))
    col = {key: k for k, key in enumerate(unknowns)}

    def residual_rows(m: int, args: tuple[int, ...]):
        """Rows of the affine residual: (coeff per unknown..., constant) per target."""
        degrees = [basis.degrees[a] for a in args]
        rows: dict[int, list[Fraction]] = {}

        def row_for(target) -> list[Fraction]:
            return rows.setdefault(target, [ZERO] * (len(unknowns) + 1))

        def b3_value(args3) -> list[tuple[int, Fraction, int]]:
            # symbolic: [(column, coefficient, target)] for the ternary bracket
            sorted3 = tuple(sorted(args3))
            if partial._forced_zero(sorted3):
                return []
            order = tuple(sorted(range(3), key=lambda k: args3[k]))
            sign = sign_odd([basis.degrees[a] for a in args3], order)
            out = []
            for (triple, target), k in col.items():
                if triple == sorted3:
                    out.append((k, Fraction(sign), target))
            return out

        for i in (1, 2, 3):
            j = 4 - i
            for sel in shuffles(i, j - 1):
                sign = sign_odd(degrees, sel)
                picked = tuple(args[k] for k in sel[:i])
                tail = tuple(args[k] for k in sel[i:])
                if i == 3:
                    # d of the unknown bracket
                    for k, coeff, target in b3_value(picked):
                        for w, cw in partial.value(1, (target,)).items():
                            row_for(w)[k] += sign * coeff * cw
                elif i == 1 or i == 2:
                    inner = partial.value(i, picked)
                    if j == 3:
                        for v, cv in inner.items():
                            for k, coeff, target in b3_value((v,) + tail):
                                row_for(target)[k] += sign * cv * coeff
                    else:
                        for v, cv in inner.items():
                            for w, cw in partial.value(j, (v,) + tail).items():
                                row_for(w)[-1] += sign * cv * cw
        return rows.values()

    def residual_rows_m4(args: tuple[int, ...]):
        degrees = [basis.degrees[a] for a in args]
        rows: dict[int, list[Fraction]] = {}

        def row_for(target) -> list[Fraction]:
            return rows.setdefault(target, [ZERO] * (len(unknowns) + 1))

        def b3_value(args3):
            sorted3 = tuple(sorted(args3))
            if partial._forced_zero(sorted3):
                return []
            order = tuple(sorted(range(3), key=lambda k: args3[k]))
            sign = sign_odd([basis.degrees[a] for a in args3], order)
            return [
                (k, Fraction(sign), target)
                for (triple, target), k in col.items()
                if triple == sorted3
            ]

        for i, j in ((2, 3), (3, 2)):
            for sel in shuffles(i, j - 1):
                sign = sign_odd(degrees, sel)
                picked = tuple(args[k] for k in sel[:i])
                tail = tuple(args[k] for k in sel[i:])
                if i == 2:
                    for v, cv in partial.value(2, picked).items():
                        for k, coeff, target in b3_value((v,) + tail):
                            row_for(target)[k] += sign * cv * coeff
                else:
                    for k, coeff, target in b3_value(picked):
                        for w, cw in partial.value(2, (target,) + tail).items():
                            row_for(w)[k] += sign * coeff * cw
        return rows.values()

    system: list[list[Fraction]] = []
    for args in itertools.combinations_with_replacement(range(ngen), 3):
        system.extend(residual_rows(3, args))
    if enforce_m4:
        for args in itertools.combinations_with_replacement(range(ngen), 4):
            system.extend(residual_rows_m4(args))

    width = len(unknowns) + 1
    reduced = rref([row for row in system if any(row)], width)
    if width - 1 in reduced.pivot_cols:
        return None  # inconsistent: the defect is not exact
    solution = [ZERO] * len(unknowns)
    for prow, pcol in zip(reduced.rows, reduced.pivot_cols):
        solution[pcol] = -prow[-1]  # free coordinates stay zero

    b3: dict[tuple[int, ...], Element] = {}
    for (triple, target), k in col.items():
        if solution[k]:
            b3.setdefault(triple, {})[target] = solution[k]
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
