"""Finite truncated algebras: polynomial quotients, free and path algebras,
and (deformed) preprojective quotients computed by exact row reduction.

Elements are sparse vectors ``{basis_index: Fraction}`` of
:mod:`ybalg.sparse`.  Each algebra carries a truncation ``mode``:

* ``"quotient"`` — products beyond the cap are genuinely zero (the algebra is
  the intended quotient, like a truncated polynomial ring);
* ``"window"`` — products beyond the cap are *unknown* where ``unknown``
  holds; using one raises :class:`TruncationOverflow` instead of silently
  treating it as zero.

Every exhaustive check walks its basis tuples through :func:`scan` (or
:func:`first_failure`, which reads it up to the first witness): a tuple
whose evaluation raises :class:`TruncationOverflow` is skipped and counted,
never read as a pass or a failure.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import sparse
from .linalg import rref
from .sparse import ONE

Element = dict[int, Fraction]


class TruncationOverflow(Exception):
    """A product left the truncation window."""


def scan(tuples, defect):
    """Yield ``(args, value)`` for each tuple of ``tuples`` whose
    ``defect(*args)`` is nonzero, and ``(args, None)`` for each whose
    evaluation left the window."""
    for args in tuples:
        try:
            value = defect(*args)
        except TruncationOverflow:
            yield args, None
            continue
        if value:
            yield args, value


def first_failure(tuples, defect):
    """The first tuple on which ``defect`` is nonzero (``None`` if there is
    none), its value, and how many tuples before it left the window."""
    skipped = 0
    for args, value in scan(tuples, defect):
        if value is None:
            skipped += 1
        else:
            return args, value, skipped
    return None, None, skipped


class TruncatedAlgebra:
    """An algebra with a finite labeled basis and exact structure constants.

    ``table[(i, j)]`` holds the product of basis elements ``i`` and ``j``
    inside the cap as a sparse element.  A missing key means zero unless
    :meth:`overflows` holds (``unknown=None`` means every pair).
    ``factorizations[i]`` optionally records a peeling ``i = generator *
    rest`` used by derivation-style bracket extensions; atoms (generators,
    idempotents, the unit) have ``None`` there.
    """

    def __init__(
        self,
        labels: list[str],
        degrees: list[int],
        table: dict[tuple[int, int], Element],
        unit: Element,
        mode: str,
        cap: int,
        idempotents: list[int] | None = None,
        factorizations: list[tuple[int, Element] | None] | None = None,
        info: dict | None = None,
        unknown: Callable[[int, int], bool] | None = None,
    ):
        if mode not in ("quotient", "window"):
            raise ValueError("mode must be 'quotient' or 'window'")
        self.labels = list(labels)
        self.degrees = list(degrees)
        self.table = table
        self.unit = sparse.vector(unit)
        self.mode = mode
        self.cap = cap
        self.idempotents = idempotents
        self.factorizations = factorizations
        self.info = info or {}
        self.unknown = unknown

    @property
    def nbasis(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def element(self, label: str) -> Element:
        return {self.index(label): ONE}

    def overflows(self, i: int, j: int) -> bool:
        return (
            self.mode == "window"
            and self.degrees[i] + self.degrees[j] > self.cap
            and (self.unknown is None or self.unknown(i, j))
        )

    def mul_basis(self, i: int, j: int) -> Element:
        value = self.table.get((i, j))
        if value is not None:
            return value
        if self.overflows(i, j):
            raise TruncationOverflow(
                f"product {self.labels[i]} * {self.labels[j]} leaves the window"
            )
        return {}

    def mul(self, x: Element, y: Element) -> Element:
        return sparse.structure_product(x, y, self.mul_basis)

    def check_associativity(self):
        """Exact check of (ab)c = a(bc) on all basis triples within the cap.

        Returns ``(ok, first_failure, skipped)`` where ``skipped`` counts the
        window-mode triples before the failure whose products overflow; those
        whose ``ab`` or ``bc`` overflows are counted before any product.
        """
        n, skipped = self.nbasis, 0
        leaves = lambda i, j: (i, j) not in self.table and self.overflows(i, j)

        def within():
            nonlocal skipped
            for i, j in itertools.product(range(n), repeat=2):
                out = leaves(i, j)
                for k in range(n):
                    if out or leaves(j, k):
                        skipped += 1
                    else:
                        yield i, j, k

        def defect(i, j, k):
            left = self.mul(self.mul_basis(i, j), {k: ONE})
            return left != self.mul({i: ONE}, self.mul_basis(j, k))

        triple, _, outer = first_failure(within(), defect)
        return triple is None, triple, skipped + outer


def _build_table(degrees, raw_product, cap):
    """Tabulate the nonzero products of the pairs inside the cap.

    Degrees ascend along every basis built here, so the partners of ``i``
    inside the cap are a prefix of the basis, found by bisection.
    """
    table: dict[tuple[int, int], Element] = {}
    for i, degree in enumerate(degrees):
        for j in range(bisect_right(degrees, cap - degree)):
            prod = raw_product(i, j)
            if prod:
                table[(i, j)] = prod
    return table


# ---------------------------------------------------------------------------
# polynomial and free algebras
# ---------------------------------------------------------------------------


def polynomial_quotient_algebra(n: int) -> TruncatedAlgebra:
    """The quotient of a one-variable polynomial ring by the n-th power."""
    labels = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, n)]
    degrees = list(range(n))
    raw = lambda i, j: {i + j: ONE}
    table = _build_table(degrees, raw, n - 1)
    factorizations: list[tuple[int, Element] | None] = [None, None]
    factorizations += [(1, {k - 1: ONE}) for k in range(2, n)]
    return TruncatedAlgebra(
        labels,
        degrees,
        table,
        unit={0: ONE},
        mode="quotient",
        cap=n - 1,
        factorizations=factorizations,
        info={"kind": "polynomial_quotient", "power": n},
    )


def free_algebra(dim: int, cap: int, mode: str = "window") -> TruncatedAlgebra:
    """Tensor algebra on ``dim`` letters, truncated at word length ``cap``."""
    basis_words = [()]
    for length in range(1, cap + 1):
        basis_words.extend(itertools.product(range(dim), repeat=length))
    labels = ["1"] + ["".join(f"x{i}" for i in w) for w in basis_words[1:]]
    degrees = [len(w) for w in basis_words]
    index = {w: k for k, w in enumerate(basis_words)}
    raw = lambda i, j: {index[basis_words[i] + basis_words[j]]: ONE}
    table = _build_table(degrees, raw, cap)
    factorizations: list[tuple[int, Element] | None] = []
    for w in basis_words:
        if len(w) <= 1:
            factorizations.append(None)
        else:
            factorizations.append((index[w[:1]], {index[w[1:]]: ONE}))
    return TruncatedAlgebra(
        labels,
        degrees,
        table,
        unit={0: ONE},
        mode=mode,
        cap=cap,
        factorizations=factorizations,
        info={"kind": "free", "dim": dim},
    )


# ---------------------------------------------------------------------------
# quivers and path algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (label, source, target)

    def __post_init__(self):
        labels = [e[0] for e in self.edges]
        if len(set(labels)) != len(labels):
            raise ValueError("edge labels must be unique")
        for label, src, tgt in self.edges:
            if src not in self.vertices or tgt not in self.vertices:
                raise ValueError(f"edge {label} has an endpoint off the vertex list")

    def is_strongly_connected(self) -> bool:
        if len(self.vertices) <= 1:
            return True
        forward: dict[str, set[str]] = {v: set() for v in self.vertices}
        backward: dict[str, set[str]] = {v: set() for v in self.vertices}
        for _, src, tgt in self.edges:
            forward[src].add(tgt)
            backward[tgt].add(src)

        def reach(adj):
            seen = {self.vertices[0]}
            frontier = [self.vertices[0]]
            while frontier:
                v = frontier.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            return seen

        return len(reach(forward)) == len(self.vertices) and len(
            reach(backward)
        ) == len(self.vertices)


def double_quiver(q: Quiver) -> Quiver:
    doubled = list(q.edges) + [(f"{label}*", tgt, src) for label, src, tgt in q.edges]
    return Quiver(q.vertices, tuple(doubled))


def structural_primeness_report(q: Quiver) -> list[str]:
    """Sufficient structural criteria for primeness/noncommutativity of the
    path algebra; explicitly labeled as criteria, not a decision procedure."""
    sc = q.is_strongly_connected()
    big = len(q.vertices) >= 2 or len(q.edges) >= 2
    return [
        f"strongly connected: {sc}",
        f"at least two vertices or two edges: {big}",
        "primeness per cited criteria (strong connectivity), not verified from first principles",
    ]


def path_algebra(q: Quiver, cap: int, mode: str = "window") -> TruncatedAlgebra:
    """All paths of length up to ``cap``; product is concatenation when the
    terminal vertex of the left factor equals the initial vertex of the right.
    """
    vidx = {v: k for k, v in enumerate(q.vertices)}
    esrc = [vidx[e[1]] for e in q.edges]
    etgt = [vidx[e[2]] for e in q.edges]

    # paths as (initial_vertex, terminal_vertex, edge_tuple); trivial = empty tuple
    paths: list[tuple[int, int, tuple[int, ...]]] = [
        (v, v, ()) for v in range(len(q.vertices))
    ]
    frontier = [(esrc[i], etgt[i], (i,)) for i in range(len(q.edges))]
    for _ in range(cap):
        paths.extend(frontier)
        nxt = []
        for ini, ter, edges in frontier:
            if len(edges) == cap:
                continue
            for i in range(len(q.edges)):
                if esrc[i] == ter:
                    nxt.append((ini, etgt[i], edges + (i,)))
        frontier = nxt
        if not frontier:
            break
    paths = [p for p in paths if len(p[2]) <= cap]
    paths.sort(key=lambda p: (len(p[2]), p[2], p[0]))

    labels = []
    for ini, ter, edges in paths:
        if not edges:
            labels.append(f"e_{q.vertices[ini]}")
        else:
            labels.append("".join(q.edges[i][0] for i in edges))
    degrees = [len(p[2]) for p in paths]
    index = {p: k for k, p in enumerate(paths)}

    def meet(i, j):
        return paths[i][1] == paths[j][0]

    def raw(i, j):
        pi, pj = paths[i], paths[j]
        return {index[(pi[0], pj[1], pi[2] + pj[2])]: ONE} if meet(i, j) else {}

    table = _build_table(degrees, raw, cap)
    unit = {k: ONE for k, p in enumerate(paths) if not p[2]}
    factorizations: list[tuple[int, Element] | None] = []
    for ini, ter, edges in paths:
        if len(edges) <= 1:
            factorizations.append(None)
        else:
            head = index[(esrc[edges[0]], etgt[edges[0]], edges[:1])]
            rest = index[(etgt[edges[0]], ter, edges[1:])]
            factorizations.append((head, {rest: ONE}))
    return TruncatedAlgebra(
        labels,
        degrees,
        table,
        unit=unit,
        mode=mode,
        cap=cap,
        idempotents=[k for k, p in enumerate(paths) if not p[2]],
        factorizations=factorizations,
        info={"kind": "path", "quiver": q},
        unknown=meet,
    )


# ---------------------------------------------------------------------------
# quotients by two-sided ideals (preprojective and deformed preprojective)
# ---------------------------------------------------------------------------


def preprojective_relation(q: Quiver, algebra: TruncatedAlgebra) -> Element:
    """The moment-map element ``sum_e (e e* - e* e)`` in the doubled path algebra."""
    rel: Element = {}
    for label, _, _ in q.edges:
        e = algebra.element(label)
        estar = algebra.element(f"{label}*")
        sparse.accumulate(rel, algebra.mul(e, estar).items())
        sparse.accumulate(rel, algebra.mul(estar, e).items(), -1)
    return sparse.purge(rel)


def quotient_algebra(
    parent: TruncatedAlgebra, relation: Element, relation_degree_span: int
) -> TruncatedAlgebra:
    """Quotient of a truncated algebra by the two-sided ideal of a relation.

    The ideal is spanned by ``p * relation * q`` over basis pairs whose total
    degree keeps the product inside the cap (``relation_degree_span`` is the
    top degree appearing in the relation).  With a homogeneous relation the
    computation is exact degreewise; an inhomogeneous relation is supported
    by the same row reduction and the result is flagged in ``info``.
    Only products inside the cap are taken; the quotient is a window.
    """
    n = parent.nbasis
    span = _build_table(
        parent.degrees,
        lambda p, s: parent.mul(parent.mul({p: ONE}, relation), {s: ONE}),
        parent.cap - relation_degree_span,
    )
    reduced = rref(list(span.values()), n)
    reps = reduced.free_cols()
    rep_pos = {col: k for k, col in enumerate(reps)}

    normal_forms: dict[int, Element] = {}

    def reduce_to_quotient(element: Element) -> Element:
        # reduce is linear and sorts its columns, so each parent column is
        # reduced once per build; its residual lives on reps, in column order
        total: Element = {}
        for col, coeff in element.items():
            if col not in normal_forms:
                residual = sparse.purge(reduced.reduce({col: ONE}))
                normal_forms[col] = {rep_pos[c]: x for c, x in residual.items()}
            sparse.accumulate(total, normal_forms[col].items(), coeff)
        return sparse.purge(dict(sorted(total.items())))

    labels = [parent.labels[c] for c in reps]
    degrees = [parent.degrees[c] for c in reps]
    homogeneous = (
        len({parent.degrees[i] for i in relation}) <= 1 if relation else True
    )
    table = _build_table(
        degrees,
        lambda i, j: reduce_to_quotient(parent.mul_basis(reps[i], reps[j])),
        parent.cap,
    )

    dims: dict[int, int] = {}
    for d in degrees:
        dims[d] = dims.get(d, 0) + 1
    return TruncatedAlgebra(
        labels,
        degrees,
        table,
        unit=reduce_to_quotient(parent.unit),
        mode="window",
        cap=parent.cap,
        info={
            "kind": "quotient",
            "parent": parent.info.get("kind"),
            "relation_rank": reduced.rank,
            "inhomogeneous": not homogeneous,
            "dims_by_degree": dims,
        },
    )


def _doubled_path_algebra(q: Quiver, cap: int) -> TruncatedAlgebra:
    """The doubled path algebra; caps below 2, the relation's degree, are refused."""
    if cap < 2:
        raise ValueError(f"cap={cap} is below 2, the degree of the preprojective relation")
    return path_algebra(double_quiver(q), cap)


def preprojective_algebra(q: Quiver, cap: int) -> TruncatedAlgebra:
    parent = _doubled_path_algebra(q, cap)
    relation = preprojective_relation(q, parent)
    out = quotient_algebra(parent, relation, relation_degree_span=2)
    out.info["kind"] = "preprojective"
    return out


def deformed_preprojective_algebra(
    q: Quiver, weights: dict[str, Fraction], cap: int
) -> TruncatedAlgebra:
    """Quotient by ``lambda - sum_e (e e* - e* e)`` with vertexwise weights."""
    parent = _doubled_path_algebra(q, cap)
    relation = sparse.scale(preprojective_relation(q, parent), -1)
    for v, weight in weights.items():
        relation = sparse.add(relation, sparse.scale(parent.element(f"e_{v}"), weight))
    out = quotient_algebra(parent, relation, relation_degree_span=2)
    out.info["kind"] = "deformed_preprojective"
    return out
