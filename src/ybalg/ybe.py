"""Residuals for the classical, associative, and quantum Yang-Baxter equations.

Every residual is a signed sum of chains of slot embeddings of ``r``
(:data:`CHAINS`), a map on a tensor power that is zero exactly when its
equation holds.  :func:`push_rows` is their one evaluator and yields the
nonzero rows in sorted output order: a residual map collects every row, and
a check (:func:`first_witness`) reads rows only up to the first nonzero one.
The quadratic residuals are tables of products (:data:`PRODUCTS`,
``double.JACOBI_PRODUCTS``, ``double.TRANSFORM_PRODUCTS``) that :func:`fold`
turns into chains, for ``fixtures.SkewOrbitForm`` too.  The embedding and
r21 conventions live in :mod:`ybalg.tensoralg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import sparse
from .sparse import Scalar
from .tensoralg import TensorMap, Word, embed_components, words

CONVENTIONS: dict[str, str] = {
    "permutation_action": "left action: content of slot j moves to slot p(j)",
    "r21": "r21 = swap o r o swap",
    "skew": "skew means r + r21 = 0",
    "cybe": "cybe(r) = [r12, r13] - [r23, r12] + [r13, r23]",
    "aybe": "aybe(r) = r12 r13 - r23 r12 + r13 r23",
    "aybe_prime": "aybe_prime(r) = r13 r12 - r12 r23 + r23 r13",
    "qybe": "qybe(R) = R12 R13 R23 - R23 R13 R12",
    "unitarity": "unitarity means R21 o R = id",
    "cae": "cae defect = cybe(r) - (aybe(r) - P23 aybe(r) P23), P23 printed (132)",
}

#: each quadratic residual as a signed sum of conjugated products of two
#: slot embeddings: ``(coeff, left_slots, right_slots, perm)`` stands for
#: ``coeff * P (r^left o r^right) P^-1``, ``P`` the operator of ``perm``;
#: ``cybe = aybe - aybe_prime`` and ``cae = -aybe_prime + P23 aybe P23``
_AYBE = (
    (1, (1, 2), (1, 3), (0, 1, 2)), (-1, (2, 3), (1, 2), (0, 1, 2)), (1, (1, 3), (2, 3), (0, 1, 2)),
)
_AYBE_PRIME = (
    (1, (1, 3), (1, 2), (0, 1, 2)), (-1, (1, 2), (2, 3), (0, 1, 2)), (1, (2, 3), (1, 3), (0, 1, 2)),
)
_MINUS_AYBE_PRIME = tuple((-c, a, b, p) for c, a, b, p in _AYBE_PRIME)
PRODUCTS = {
    "cybe": _AYBE + _MINUS_AYBE_PRIME,
    "aybe": _AYBE,
    "aybe-prime": _AYBE_PRIME,
    "cae": _MINUS_AYBE_PRIME + tuple((c, a, b, (0, 2, 1)) for c, a, b, _ in _AYBE),
}


def fold(products) -> dict:
    """A table's joins ``{(left_slots, right_slots): coeff}``: each conjugation
    folded into its slot pairs, ``P r^{st} P^-1 = r^{p(s) p(t)}``, equal joins
    merged and those that cancel dropped."""
    merged: dict = {}
    for c, a, b, p in products:
        key = tuple((p[s - 1] + 1, p[t - 1] + 1) for s, t in (a, b))
        merged[key] = merged.get(key, 0) + c
    return {key: c for key, c in merged.items() if c}


#: every residual as a folded table ``{(slots_1, ..., slots_k): coeff}``, each
#: chain ``coeff * r^{slots_1} o ... o r^{slots_k}`` on the tensor power of its
#: highest slot; the empty slot tuple ``()`` stands for the identity
CHAINS = {
    **{kind: fold(products) for kind, products in PRODUCTS.items()},
    "qybe": {((1, 2), (1, 3), (2, 3)): 1, ((2, 3), (1, 3), (1, 2)): -1},
    "unitarity": {((2, 1), (1, 2)): 1, ((),): -1},
    "skew": {((1, 2),): 1, ((2, 1),): 1},
}


def slot_index(r: TensorMap, slots, n: int) -> dict:
    """``r^{slots}`` on the ``n``-th tensor power by output word, ``{out: [(in, c), ...]}``;
    no slots give the identity."""
    if not slots:
        return {w: [(w, 1)] for w in words(r.dim, n)}
    index: dict = {}
    for (o, i), c in embed_components(r, slots, n).entries.items():
        index.setdefault(o, []).append((i, c))
    return index


def _tree(chains) -> tuple:
    """The chains as ``(identity coeff, [(factor, tree of its prefixes), ...])``,
    one child for each distinct last factor."""
    identity, groups = 0, {}
    for c, factors in chains:
        if factors:
            groups.setdefault(id(factors[-1]), (factors[-1], []))[1].append((c, factors[:-1]))
        else:
            identity += c
    return identity, [(factor, _tree(prefixes)) for factor, prefixes in groups.values()]


def _push(row: dict, tree: tuple) -> dict:
    """``row`` through the tree's chains, accumulated but not purged."""
    identity, children = tree
    total: dict = {}
    if identity:
        sparse.accumulate(total, row.items(), identity)
    for factor, (scalar, prefixes) in children:
        # a first factor takes the row as it is, times the chains' coefficient
        pushed, scalar = (_push(row, (scalar, prefixes)), 1) if prefixes else (row, scalar)
        for mid, c in pushed.items():
            sparse.accumulate(total, factor.get(mid, ()), c * scalar)
    return total


def push_rows(chains):
    """The nonzero rows ``(out, {in: c})`` of ``sum coeff * F_1 o ... o F_k`` over the
    chains ``(coeff, (F_1, ..., F_k))``, each factor indexed by output word
    (:func:`slot_index`), in sorted output order and only as they are read.

    Row ``out`` is ``{out: 1}`` pushed through the factors one at a time and
    accumulated after each; the chains that end in one factor are summed
    before it, so each row goes through each distinct last factor once.  Only
    the out-words of the first factors can have a nonzero row.
    """
    tree = _tree(chains)
    for o in sorted(set().union(*(factors[0] for _, factors in chains))):
        row = sparse.purge(_push({o: 1}, tree))
        if row:
            yield o, row


def _rows(r: TensorMap, *tables) -> tuple[int, list]:
    """The tensor power of the folded tables and a row stream for each at ``r``;
    each slot embedding of ``r`` is indexed once for all of them."""
    slots = dict.fromkeys(s for table in tables for chain in table for s in chain)
    # a table that cancels completely is the zero map on cubes
    n = max((t for s in slots for t in s), default=3)
    index = {s: slot_index(r, s, n) for s in slots}
    chains = ([(c, tuple(map(index.get, chain))) for chain, c in table.items()] for table in tables)
    return n, [push_rows(each) for each in chains]


def _maps(r: TensorMap, *tables) -> tuple[TensorMap, ...]:
    n, streams = _rows(r, *tables)
    entries = ({(o, i): c for o, row in rows for i, c in row.items()} for rows in streams)
    return tuple(r._of(n, n, each) for each in entries)


def table_residuals(r: TensorMap, *tables) -> tuple[TensorMap, ...]:
    """Each table's ``sum coeff * P (r^left o r^right) P^-1`` at ``r``; each
    slot pair of ``r`` is embedded once for all the tables."""
    return _maps(r, *map(fold, tables))


def is_skew(r: TensorMap) -> bool:
    """Whether ``r + r21 = 0``."""
    return first_witness("skew", r) is None


def skew_defect(r: TensorMap) -> TensorMap:
    return _maps(r, CHAINS["skew"])[0]


def cybe_residual(r: TensorMap) -> TensorMap:
    return _maps(r, CHAINS["cybe"])[0]


def aybe_residual(r: TensorMap) -> TensorMap:
    return _maps(r, CHAINS["aybe"])[0]


def aybe_prime_residual(r: TensorMap) -> TensorMap:
    return _maps(r, CHAINS["aybe-prime"])[0]


def qybe_residual(big_r: TensorMap) -> TensorMap:
    return _maps(big_r, CHAINS["qybe"])[0]


def unitarity_defect(big_r: TensorMap) -> TensorMap:
    return _maps(big_r, CHAINS["unitarity"])[0]


def cae_defect(r: TensorMap) -> TensorMap:
    """Difference between the classical residual and its associative expansion.

    For skew ``r`` this is identically zero:
    ``cybe(r) = aybe(r) - P aybe(r) P`` with ``P`` the operator exchanging
    the second and third slots (one-line form ``(132)``).  Folded, two of
    the table's six products cancel for every ``r``.
    """
    return _maps(r, CHAINS["cae"])[0]


RESIDUALS = {
    "cybe": cybe_residual,
    "aybe": aybe_residual,
    "aybe-prime": aybe_prime_residual,
    "qybe": qybe_residual,
    "unitarity": unitarity_defect,
    "cae": cae_defect,
    "skew": skew_defect,
}


def _integral(kind: str, r: TensorMap) -> tuple[TensorMap, Scalar]:
    """``(lam r, lam^-d)`` as :func:`evaluate` uses them, or ``(r, 1)``."""
    lam = math.lcm(*(c.denominator for c in r.entries.values() if type(c) is Fraction))
    degrees = {sum(map(bool, chain)) for chain in CHAINS[kind]}
    if lam == 1 or len(degrees) != 1:
        return r, 1
    return r.scale(lam), Fraction(1, lam ** degrees.pop())


def evaluate(kind: str, r: TensorMap) -> TensorMap:
    """``RESIDUALS[kind](r)``, computed on an integral multiple of ``r``.

    A residual whose chains all embed ``r`` ``d`` times has ``R(lam r) = lam^d R(r)``.
    With ``lam`` the least common multiple of the entry denominators,
    ``lam r`` has integer entries, so the residual runs on integer
    arithmetic and is divided by ``lam^d`` once at the end.  Integral maps
    (``lam = 1``) and the unitarity defect are evaluated as given.
    """
    scaled, unscale = _integral(kind, r)
    residual = RESIDUALS[kind](scaled)
    return residual if unscale == 1 else residual.scale(unscale)


def first_witness(kind: str, r: TensorMap) -> tuple[Word, Word, Scalar] | None:
    """The first nonzero entry ``(out, in, value)`` of ``evaluate(kind, r)``, or
    ``None``: the least in-word of the first nonzero row; no later row is pushed."""
    scaled, unscale = _integral(kind, r)
    _, (rows,) = _rows(scaled, CHAINS[kind])
    for o, row in rows:
        i = min(row)
        return o, i, sparse.frac(row[i] * unscale)
    return None


_RELEVANT_FLAGS = {
    "cybe": ("permutation_action", "r21", "skew", "cybe"),
    "aybe": ("permutation_action", "aybe"),
    "aybe-prime": ("permutation_action", "aybe_prime"),
    "qybe": ("permutation_action", "qybe"),
    "unitarity": ("permutation_action", "r21", "unitarity"),
    "cae": ("permutation_action", "r21", "skew", "cybe", "aybe", "cae"),
    "skew": ("permutation_action", "r21", "skew"),
}


def witness_str(witness: tuple[Word, Word, Scalar]) -> str:
    """``out=(..) in=(..) value=c`` for a map entry ``(out, in, c)``."""
    o, i, c = witness
    o_s = ",".join(map(str, o))
    i_s = ",".join(map(str, i))
    return f"out=({o_s}) in=({i_s}) value={c}"


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one residual check, with enough context to reproduce it."""

    kind: str
    dim: int
    passed: bool
    witness: tuple[Word, Word, Scalar] | None
    conventions: tuple[tuple[str, str], ...]
    preconditions: tuple[tuple[str, bool], ...] = field(default=())
    notes: tuple[str, ...] = field(default=())

    def lines(self) -> list[str]:
        out = [f"check: {self.kind}", f"dim: {self.dim}"]
        for name, ok in self.preconditions:
            out.append(f"precondition {name}: {'holds' if ok else 'FAILS'}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        if self.witness is not None:
            out.append(f"witness: {witness_str(self.witness)}")
        for note in self.notes:
            out.append(f"note: {note}")
        for key, text in self.conventions:
            out.append(f"convention {key}: {text}")
        return out


def check(kind: str, r: TensorMap, residual: TensorMap | None = None) -> ResidualReport:
    """Run one named residual check and wrap the outcome in a report; the witness
    is read off ``residual = evaluate(kind, r)`` when the caller has built it."""
    if kind not in RESIDUALS:
        raise ValueError(f"unknown check kind: {kind!r}")
    preconditions: list[tuple[str, bool]] = []
    notes: list[str] = []
    if kind == "cae":
        skew_ok = is_skew(r)
        preconditions.append(("skew", skew_ok))
        if not skew_ok:
            notes.append("the expansion identity is only asserted for skew r")
    witness = first_witness(kind, r) if residual is None else residual.first_nonzero()
    return ResidualReport(
        kind=kind,
        dim=r.dim,
        passed=witness is None and all(ok for _, ok in preconditions),
        witness=witness,
        conventions=tuple((k, CONVENTIONS[k]) for k in _RELEVANT_FLAGS[kind]),
        preconditions=tuple(preconditions),
        notes=tuple(notes),
    )
