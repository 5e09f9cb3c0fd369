"""R-twisted symmetric-group actions and graded bialgebra components.

A unitary solution ``R`` of the quantum equation turns the usual
permutation action of ``S_m`` on the m-th tensor power into a twisted one:
the adjacent transposition ``(b, b+1)`` acts as the component swap composed
with ``R`` placed in slots ``b, b+1``.  Three computations hang off that
action, all by exact linear algebra:

* Young symmetrizers evaluated in the twisted action cut out the
  irreducible pieces of the tensor power;
* the degree-``m`` component of the quadratic quotient bialgebra built
  from ``R`` is realized inside ``End(V)^{\\otimes m}`` as the commutant of
  the twisted action (its dimension is computed both by row reduction of
  the inserted quadratic relations and as that commutant, and the two
  counts are asserted equal);
* the double commutant closes up onto the span of the twisted group
  image, giving the multiplicity-free decomposition bookkeeping.

An element of the group algebra of ``S_m`` is a plain :mod:`ybalg.sparse`
vector keyed by permutations in one-line form, multiplied by
``sparse.product(x, y, perm_compose)`` (see :func:`young_symmetrizer`).

Everything is brute force over exact scalars and deterministic: words are
enumerated lexicographically, permutations in sorted one-line order, and
partitions in descending lexicographic order.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

from . import sparse, ybe
from .linalg import Terms, rank, rref
from .sparse import ONE, Scalar
from .tensoralg import Perm, TensorMap, Word, identity_perm, perm_compose, perm_sign, words


class PreconditionError(ValueError):
    """The twist is not unitary or fails the quantum Yang-Baxter equation."""


# ---------------------------------------------------------------------------
# group algebra of S_m: sparse vectors keyed by permutations in one-line form


def group_algebra_rank(x: dict[Perm, Scalar]) -> int:
    """Rank of right multiplication by ``x`` on the group algebra.

    For a Young symmetrizer this equals the dimension of the irreducible
    representation the symmetrizer generates, which makes it an oracle
    independent of the hook-length count.  The zero element has rank 0.
    """
    if not x:
        return 0
    perms = sorted(itertools.permutations(range(len(next(iter(x))))))
    index = {p: k for k, p in enumerate(perms)}
    rows = [{index[perm_compose(sigma, tau)]: c for tau, c in x.items()} for sigma in perms]
    return rank(rows, len(perms))


# ---------------------------------------------------------------------------
# partitions and Young symmetrizers


class YoungDiagram:
    """A partition drawn as left-justified rows of cells."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[int]):
        r = tuple(int(k) for k in rows)
        if not r or any(k < 1 for k in r):
            raise ValueError("row lengths must be positive")
        if any(r[i] < r[i + 1] for i in range(len(r) - 1)):
            raise ValueError("row lengths must be weakly decreasing")
        self.rows = r

    @property
    def m(self) -> int:
        return sum(self.rows)

    def hooks(self) -> list[int]:
        out = []
        for i, length in enumerate(self.rows):
            for j in range(length):
                arm = length - j - 1
                leg = sum(1 for k in self.rows[i + 1 :] if k > j)
                out.append(arm + leg + 1)
        return out

    def irrep_dimension(self) -> int:
        product = math.prod(self.hooks())
        dim, rem = divmod(math.factorial(self.m), product)
        if rem:
            raise ArithmeticError("hook product does not divide the factorial")
        return dim

    def __eq__(self, other: object) -> bool:
        return isinstance(other, YoungDiagram) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(("YoungDiagram", self.rows))

    def __repr__(self) -> str:
        return f"YoungDiagram({list(self.rows)})"

    def label(self) -> str:
        return "(" + ",".join(map(str, self.rows)) + ")"


def partitions(m: int) -> list[YoungDiagram]:
    """All partitions of ``m`` in descending lexicographic order."""
    if m < 1:
        raise ValueError("partitions are defined for positive integers")
    found: list[tuple[int, ...]] = []

    def grow(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            found.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            grow(remaining - part, part, prefix + (part,))

    grow(m, m, ())
    return [YoungDiagram(rows) for rows in found]


def _canonical_filling(lam: YoungDiagram) -> list[list[int]]:
    filling = []
    next_entry = 0
    for length in lam.rows:
        filling.append(list(range(next_entry, next_entry + length)))
        next_entry += length
    return filling


def _group_sum(blocks: list[list[int]], m: int, signed: bool) -> dict[Perm, Scalar]:
    """Sum over all permutations preserving each block, optionally signed."""
    terms: dict[Perm, Scalar] = {}
    for images in itertools.product(
        *[itertools.permutations(block) for block in blocks]
    ):
        p = list(range(m))
        for block, image in zip(blocks, images):
            for pos, target in zip(block, image):
                p[pos] = target
        perm = tuple(p)
        terms[perm] = perm_sign(perm) if signed else ONE
    return terms


def row_symmetrizer(lam: YoungDiagram) -> dict[Perm, Scalar]:
    return _group_sum(_canonical_filling(lam), lam.m, signed=False)


def column_antisymmetrizer(lam: YoungDiagram) -> dict[Perm, Scalar]:
    filling = _canonical_filling(lam)
    columns = [
        [filling[i][j] for i in range(len(filling)) if lam.rows[i] > j]
        for j in range(lam.rows[0])
    ]
    return _group_sum(columns, lam.m, signed=True)


def young_symmetrizer(lam: YoungDiagram | Sequence[int]) -> dict[Perm, Scalar]:
    """Row symmetrizer times signed column sum for the row-major filling."""
    diagram = lam if isinstance(lam, YoungDiagram) else YoungDiagram(lam)
    # the group law: ``perm_compose`` applies the right factor first, so that
    # evaluation in any left action is a homomorphism
    return sparse.product(
        row_symmetrizer(diagram), column_antisymmetrizer(diagram), perm_compose
    )


# ---------------------------------------------------------------------------
# the twisted permutation action


def permutation_operator(p: Perm, dim: int) -> TensorMap:
    """The operator sending the slot-``j`` factor to slot ``p[j]``."""
    return TensorMap.from_permutation(p, dim)


def _adjacent_perm(b: int, m: int) -> Perm:
    p = list(range(m))
    p[b - 1], p[b] = p[b], p[b - 1]
    return tuple(p)


def _check_twist_shape(big_r: TensorMap) -> None:
    if big_r.dom_deg != 2 or big_r.cod_deg != 2:
        raise ValueError("the twist must be an operator on a tensor square")


def _twist_generators(big_r: TensorMap, m: int) -> tuple[TensorMap, ...]:
    from .tensoralg import embed_components

    gens = []
    for b in range(1, m):
        swap = permutation_operator(_adjacent_perm(b, m), big_r.dim)
        gens.append(swap.compose(embed_components(big_r, (b, b + 1), m)))
    return tuple(gens)


def _verify_braid_relations(gens: Sequence[TensorMap]) -> None:
    for b in range(len(gens) - 1):
        lhs = gens[b].compose(gens[b + 1]).compose(gens[b])
        rhs = gens[b + 1].compose(gens[b]).compose(gens[b + 1])
        if not (lhs - rhs).is_zero():
            raise RuntimeError(f"internal: braid relation fails at {b + 1}")
    for a in range(len(gens)):
        for b in range(a + 2, len(gens)):
            defect = gens[a].compose(gens[b]) - gens[b].compose(gens[a])
            if not defect.is_zero():
                raise RuntimeError(
                    f"internal: distant generators {a + 1},{b + 1} do not commute"
                )


class RPermutationAction:
    """Generators of the twisted ``S_m`` action; immutable, and its length
    is the number of generators."""

    __slots__ = ("dim", "m", "generators")
    dim: int
    m: int
    generators: tuple[TensorMap, ...]

    def __init__(self, dim: int, m: int, generators: tuple[TensorMap, ...]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: RPermutationAction is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: RPermutationAction is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.m, self.generators) == (other.dim, other.m, other.generators)

    def __hash__(self):
        return hash((self.dim, self.m, self.generators))

    def __repr__(self):
        return f"RPermutationAction(dim={self.dim!r}, m={self.m!r}, generators={self.generators!r})"

    def __len__(self) -> int:
        return len(self.generators)


def r_permutation_action(big_r: TensorMap, m: int) -> RPermutationAction:
    """Adjacent-transposition generators ``swap o R^{b,b+1}`` on ``m`` slots.

    Requires a unitary solution of the quantum equation; the generators of
    :func:`braid_generators` are verified to satisfy the full Coxeter
    presentation (squares from unitarity, braiding from the quantum equation).
    """
    _check_twist_shape(big_r)
    if m < 1:
        raise ValueError("the number of tensor factors must be at least 1")
    unit_witness = ybe.first_witness("unitarity", big_r)
    if unit_witness is not None:
        raise PreconditionError(
            f"twist is not unitary (R^21 R != Id): {ybe.witness_str(unit_witness)}"
        )
    gens = braid_generators(big_r, m)
    ident = TensorMap.identity(big_r.dim, m)
    for b, g in enumerate(gens):
        if not (g.compose(g) - ident).is_zero():
            raise RuntimeError(f"internal: generator {b + 1} squared is not Id")
    return RPermutationAction(big_r.dim, m, tuple(gens))


def braid_generators(big_r: TensorMap, m: int) -> list[TensorMap]:
    """Twisted generators for a not-necessarily-unitary quantum solution.

    Only the braid and distant-commutation relations are available here,
    so the return value is meant for commutant computations;
    :func:`r_permutation_action` adds unitarity and the squares before the
    symmetric-group decomposition uses them.
    """
    _check_twist_shape(big_r)
    q_witness = ybe.first_witness("qybe", big_r)
    if q_witness is not None:
        raise PreconditionError(
            f"twist fails the quantum Yang-Baxter equation: {ybe.witness_str(q_witness)}"
        )
    gens = _twist_generators(big_r, m)
    _verify_braid_relations(gens)
    return list(gens)


def action_table(action: RPermutationAction) -> dict[Perm, TensorMap]:
    """Operator for every permutation, grown from the generators.

    Breadth-first growth assigns each permutation a shortest word in the
    adjacent transpositions; the Coxeter verification performed when the
    action was built guarantees independence of the chosen word.
    """
    table = {identity_perm(action.m): TensorMap.identity(action.dim, action.m)}
    adjacents = [_adjacent_perm(b, action.m) for b in range(1, action.m)]
    frontier = [identity_perm(action.m)]
    while frontier:
        grown = []
        for sigma in frontier:
            for s, gen in zip(adjacents, action.generators):
                tau = perm_compose(s, sigma)
                if tau not in table:
                    table[tau] = gen.compose(table[sigma])
                    grown.append(tau)
        frontier = grown
    return table


def _evaluate_with_table(
    x: dict[Perm, Scalar], table: Mapping[Perm, TensorMap], dim: int, m: int
) -> TensorMap:
    total = TensorMap.zero(dim, m)
    for perm in sorted(x):
        total = total + table[perm].scale(x[perm])
    return total


def evaluate_in_action(x: dict[Perm, Scalar], action: RPermutationAction) -> TensorMap:
    """Substitute each permutation in ``x`` by its twisted-action operator."""
    for perm in x:
        if len(perm) != action.m:
            raise ValueError(
                f"m mismatch: element lives in S_{len(perm)},"
                f" the action is on {action.m} factors"
            )
    return _evaluate_with_table(x, action_table(action), action.dim, action.m)


# ---------------------------------------------------------------------------
# exact linear algebra on operators


def _word_index(dim: int, deg: int) -> dict[Word, int]:
    return {w: i for i, w in enumerate(words(dim, deg))}


def map_matrix(tmap: TensorMap) -> list[Terms]:
    """Sparse matrix rows (out-word index by in-word index), words lex."""
    index_in = _word_index(tmap.dim, tmap.dom_deg)
    index_out = _word_index(tmap.dim, tmap.cod_deg)
    rows: list[Terms] = [{} for _ in index_out]
    for (out_w, in_w), coeff in tmap.entries.items():
        rows[index_out[out_w]][index_in[in_w]] = coeff
    return rows


def image_dimension(tmap: TensorMap) -> int:
    """Exact rank of the operator."""
    return rank(map_matrix(tmap), tmap.dim**tmap.dom_deg)


def _flatten_operator(tmap: TensorMap, index: Mapping[Word, int]) -> Terms:
    n = len(index)
    return {
        index[out_w] * n + index[in_w]: coeff
        for (out_w, in_w), coeff in tmap.entries.items()
    }


def _commutant_rows(
    generators: Sequence[TensorMap], index: Mapping[Word, int]
) -> Iterator[dict[int, int]]:
    """Integer rows of ``[X, g] = 0``, ``X`` flattened over (out-word, in-word)
    pairs, yielded lazily; each ``g`` enters as its integral multiple."""
    n = len(index)
    for g in generators:
        lam = math.lcm(*(c.denominator for c in g.entries.values()))
        by_in: dict[int, list[tuple[int, int]]] = {}
        by_out: dict[int, list[tuple[int, int]]] = {}
        for (out_w, in_w), coeff in g.entries.items():
            c = coeff.numerator * (lam // coeff.denominator)
            by_in.setdefault(index[in_w], []).append((index[out_w], c))
            by_out.setdefault(index[out_w], []).append((index[in_w], c))
        for u in range(n):
            for v in range(n):
                if v not in by_in and u not in by_out:
                    continue
                row = {u * n + w: c for w, c in by_in.get(v, ())}
                for w, c in by_out.get(u, ()):
                    key = w * n + v
                    value = row.get(key, 0) - c
                    if value:
                        row[key] = value
                    else:
                        row.pop(key, None)
                if row:
                    yield row


def commutant(
    generators: Sequence[TensorMap],
    dim: int | None = None,
    deg: int | None = None,
) -> list[TensorMap]:
    """Deterministic basis of everything commuting with the generators.

    The basis comes out of the reduced echelon nullspace of
    :func:`_commutant_rows`, one map per free column.  With no generators
    the full endomorphism space is returned, which is why ``dim`` and
    ``deg`` must then be supplied.
    """
    if generators:
        dim = generators[0].dim
        deg = generators[0].dom_deg
    elif dim is None or deg is None:
        raise ValueError("empty generator list needs explicit dim and deg")
    for g in generators:
        if g.dim != dim or g.dom_deg != deg or g.cod_deg != deg:
            raise ValueError("generators must act on one common tensor power")
    index = _word_index(dim, deg)
    word_list = list(index)
    n = len(word_list)
    rows = list(_commutant_rows(generators, index))
    return [
        TensorMap(
            dim,
            deg,
            deg,
            {(word_list[flat // n], word_list[flat % n]): c for flat, c in vec.items()},
        )
        for vec in rref(rows, n * n).kernel()
    ]


# ---------------------------------------------------------------------------
# graded components of the quadratic quotient


def _quadratic_relation_vectors(big_r: TensorMap) -> list[list[tuple[int, Fraction]]]:
    """Degree-two relation vectors over ordered generator pairs.

    Generators are indexed ``(i, j) -> i*n + j``; a pair ``(g1, g2)`` is the
    word ``g1 then g2``.  For each choice of output rows ``a, b`` and input
    columns ``c, d`` the relation reads: twist applied on the left of the
    pair ``(row side)`` minus the reversed pair hit by the twist on the
    column side.  The identity twist yields plain commutators.
    """
    n = big_r.dim
    n2 = n * n
    sparse_rows: list[list[tuple[int, Fraction]]] = []
    for a, b, c, d in itertools.product(range(n), repeat=4):
        terms = []
        for (out_w, in_w), coeff in big_r.entries.items():
            if out_w == (a, b):
                terms.append(((in_w[0] * n + c) * n2 + (in_w[1] * n + d), coeff))
            if in_w == (c, d):
                terms.append(((b * n + out_w[1]) * n2 + (a * n + out_w[0]), -coeff))
        cleaned = sorted(sparse.vector(terms).items())
        if cleaned:
            sparse_rows.append(cleaned)
    return sparse_rows


def hr_relation_rank(big_r: TensorMap, m: int) -> int:
    """Rank of the degree-``m`` slice of the two-sided relation ideal."""
    if m < 1:
        raise ValueError("the degree must be at least 1")
    n2 = big_r.dim**2
    ncols = n2**m
    if m == 1:
        return 0
    relations = _quadratic_relation_vectors(big_r)
    windex = _word_index(n2, m)
    rows: list[Terms] = []
    for t in range(m - 1):
        for u in words(n2, t):
            for v in words(n2, m - 2 - t):
                rows.extend(
                    {windex[u + divmod(key, n2) + v]: c for key, c in rel}
                    for rel in relations
                )
    return rank(rows, ncols)


def hr_dimension_oracles(big_r: TensorMap, m: int) -> tuple[int, int]:
    """The component dimension by relations and by commutant, unasserted.

    The commutant count is the size of :func:`hr_component_dual_basis`,
    which also checks the twist before the relation rank is computed.
    """
    by_commutant = len(hr_component_dual_basis(big_r, m))
    by_relations = big_r.dim ** (2 * m) - hr_relation_rank(big_r, m)
    return by_relations, by_commutant


def hr_graded_dimension(big_r: TensorMap, m: int) -> int:
    """Dimension of the degree-``m`` bialgebra component, doubly computed."""
    by_relations, by_commutant = hr_dimension_oracles(big_r, m)
    if by_relations != by_commutant:
        raise RuntimeError(
            "internal consistency failure: relation reduction gives"
            f" {by_relations}, the commutant gives {by_commutant}"
        )
    return by_relations


def hr_component_dual_basis(big_r: TensorMap, m: int) -> list[TensorMap]:
    """The degree-``m`` component realized dually inside the operator space."""
    action = r_permutation_action(big_r, m)
    return commutant(action.generators, dim=big_r.dim, deg=m)


# ---------------------------------------------------------------------------
# the decomposition report


class PartitionBlock(NamedTuple):
    partition: tuple[int, ...]
    rho_dim: int
    comodule_dim: int
    included: bool


class DecompositionReport(NamedTuple):
    """Multiplicity-free decomposition bookkeeping for one twist."""

    m: int
    dim: int
    blocks: tuple[PartitionBlock, ...]
    total: int
    expected: int
    sr_commutant_dim: int
    hr_commutant_dim: int
    sr_span_dim: int
    double_commutant_ok: bool

    @property
    def passed(self) -> bool:
        return self.total == self.expected and self.double_commutant_ok

    def lines(self) -> list[str]:
        out = ["check: schur-weyl", f"m: {self.m}", f"dimV: {self.dim}"]
        for block in self.blocks:
            label = "(" + ",".join(map(str, block.partition)) + ")"
            status = "" if block.included else " (absent)"
            out.append(
                f"lambda {label}: rho dim {block.rho_dim},"
                f" comodule dim {block.comodule_dim}{status}"
            )
        out.append(f"total: {self.total}")
        out.append(f"expected: dimV^m = {self.expected}")
        out.append(f"sr commutant dim: {self.sr_commutant_dim}")
        out.append(f"double commutant dim: {self.hr_commutant_dim}")
        out.append(f"sr span dim: {self.sr_span_dim}")
        closure = "PASS" if self.double_commutant_ok else "FAIL"
        out.append(f"double commutant closure: {closure}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out


def schur_weyl_decompose(big_r: TensorMap, m: int) -> DecompositionReport:
    """Cut the tensor power along partitions and audit the bookkeeping.

    For every partition the irreducible dimension (hook lengths,
    cross-checked on every call against the group-algebra rank of the
    symmetrizer, which is built once and then evaluated) is paired with the
    exact rank of the evaluated symmetrizer; the weighted
    total must account for the whole tensor power, and the double
    commutant of the twisted action must close onto its span.

    Closure is certified by counting: every generator commuting with every
    map of the commutant ``C'`` puts the span inside ``C''``, and then the
    two are equal exactly when their dimensions are.  ``dim C''`` is the
    nullity of ``[X, c] = 0`` over ``C'``, whose elimination stops once the
    nullity is down to the span dimension.  Without the inclusion it runs
    in full, so the printed dimension is exact.

    The duality itself is an oracle on counts already made: with ``d`` the
    irreducible and ``n`` the comodule dimensions, ``dim C' = sum n^2`` and
    the span dimension is ``sum d^2`` over the partitions with ``n > 0``.
    Either failing is a fault of the program and raises ``RuntimeError``.
    """
    dim_v = big_r.dim
    action = r_permutation_action(big_r, m)
    table = action_table(action)
    blocks = []
    total = 0
    for lam in partitions(m):
        rho_dim = lam.irrep_dimension()
        symmetrizer = young_symmetrizer(lam)
        if rho_dim != group_algebra_rank(symmetrizer):
            raise RuntimeError(
                "internal: hook-length dimension disagrees with the"
                f" group-algebra rank for {lam.label()}"
            )
        comodule_dim = image_dimension(_evaluate_with_table(symmetrizer, table, dim_v, m))
        total += rho_dim * comodule_dim
        blocks.append(
            PartitionBlock(lam.rows, rho_dim, comodule_dim, comodule_dim > 0)
        )
    index = _word_index(dim_v, m)
    sr_rows = [_flatten_operator(table[p], index) for p in sorted(table)]
    ncols = len(index) ** 2
    span_dim = rank(sr_rows, ncols)
    first = commutant(action.generators, dim=dim_v, deg=m)
    # Maschke: V^(x)m = (+) S_lam (x) M_lam with dim M_lam = n_lam, so
    # dim C' = sum n_lam^2 and the span is (+) End(S_lam) over n_lam > 0
    if sum(b.comodule_dim**2 for b in blocks) != len(first):
        raise RuntimeError(
            "internal: the comodule dimensions squared do not sum to the"
            f" commutant dimension {len(first)}"
        )
    if sum(b.rho_dim**2 for b in blocks if b.comodule_dim) != span_dim:
        raise RuntimeError(
            "internal: the irreducible dimensions squared do not sum to the"
            f" span dimension {span_dim}"
        )
    # the span lies in C'' exactly when every generator commutes with all of C'
    inside = all(
        (x.compose(g) - g.compose(x)).is_zero() for g in action.generators for x in first
    )
    limit = ncols - span_dim if inside else None
    second_dim = ncols - rank(_commutant_rows(first, index), ncols, limit)
    return DecompositionReport(
        m=m,
        dim=dim_v,
        blocks=tuple(blocks),
        total=total,
        expected=dim_v**m,
        sr_commutant_dim=len(first),
        hr_commutant_dim=second_dim,
        sr_span_dim=span_dim,
        double_commutant_ok=inside and second_dim == span_dim,
    )
