"""Residuals for the classical, associative, and quantum Yang-Baxter equations.

All residuals are returned as exact tensor maps on the third tensor power;
an equation "holds" precisely when its residual map has no entries.  The
component-embedding and r21 conventions live in :mod:`ybalg.tensoralg`.

Each residual quadratic in ``r`` is stated once, as a table of products
(:data:`PRODUCTS`, ``double.JACOBI_PRODUCTS``, ``double.TRANSFORM_PRODUCTS``),
and :func:`table_residuals` is their one evaluator; ``fixtures.SkewOrbitForm``
builds its coefficient maps with the same :func:`fold` and :func:`join`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import sparse
from .sparse import Scalar
from .tensoralg import TensorMap, Word, embed_components

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


def embed_slot_pairs(r: TensorMap, joins) -> dict:
    """The entries of ``r^{st}`` on the third tensor power, once for each slot
    pair ``(s, t)`` that the joins ``(left_slots, right_slots)`` use."""
    pairs = dict.fromkeys(itertools.chain.from_iterable(joins))
    return {slots: embed_components(r, slots, 3).entries for slots in pairs}


def _join_terms(joins: dict, factors):
    for left, right in factors:
        for (a, b), c in joins.items():
            by_mid: dict = {}
            for (o, mid), c1 in left[a].items():
                by_mid.setdefault(mid, []).append((o, c * c1))
            for (mid, i), c2 in right[b].items():
                for o, c1 in by_mid.get(mid, ()):
                    yield (o, i), c1 * c2


def join(joins: dict, factors) -> dict:
    """The entries of ``sum coeff * left[a] o right[b]`` over the joins
    ``{(a, b): coeff}`` and the ``(left, right)`` pairs of embeddings in
    ``factors``, joined on middle words into one total, purged once."""
    total: dict = {}
    sparse.accumulate(total, _join_terms(joins, factors))
    return sparse.purge(total)


def table_residuals(r: TensorMap, *tables) -> tuple[TensorMap, ...]:
    """Each table's ``sum coeff * P (r^left o r^right) P^-1`` at ``r``; each
    slot pair of ``r`` is embedded once for all the tables."""
    folded = [fold(products) for products in tables]
    embedded = embed_slot_pairs(r, itertools.chain.from_iterable(folded))
    return tuple(r._of(3, 3, join(joins, ((embedded, embedded),))) for joins in folded)


def is_skew(r: TensorMap) -> bool:
    """Whether ``r + r21 = 0``."""
    return (r + r.r21()).is_zero()


def skew_defect(r: TensorMap) -> TensorMap:
    return r + r.r21()


def cybe_residual(r: TensorMap) -> TensorMap:
    return table_residuals(r, PRODUCTS["cybe"])[0]


def aybe_residual(r: TensorMap) -> TensorMap:
    return table_residuals(r, PRODUCTS["aybe"])[0]


def aybe_prime_residual(r: TensorMap) -> TensorMap:
    return table_residuals(r, PRODUCTS["aybe-prime"])[0]


def qybe_residual(big_r: TensorMap) -> TensorMap:
    r12, r13, r23 = (embed_components(big_r, slots, 3) for slots in ((1, 2), (1, 3), (2, 3)))
    return r12.compose(r13).compose(r23) - r23.compose(r13).compose(r12)


def unitarity_defect(big_r: TensorMap) -> TensorMap:
    return big_r.r21().compose(big_r) - TensorMap.identity(big_r.dim, 2)


def cae_defect(r: TensorMap) -> TensorMap:
    """Difference between the classical residual and its associative expansion.

    For skew ``r`` this is identically zero:
    ``cybe(r) = aybe(r) - P aybe(r) P`` with ``P`` the operator exchanging
    the second and third slots (one-line form ``(132)``).  Folded, two of
    the table's six products cancel for every ``r``.
    """
    return table_residuals(r, PRODUCTS["cae"])[0]


RESIDUALS = {
    "cybe": cybe_residual,
    "aybe": aybe_residual,
    "aybe-prime": aybe_prime_residual,
    "qybe": qybe_residual,
    "unitarity": unitarity_defect,
    "cae": cae_defect,
    "skew": skew_defect,
}

#: each residual's degree as a homogeneous polynomial in the map; the
#: unitarity defect ``R21 R - id`` is not homogeneous and has none
DEGREE = {"cybe": 2, "aybe": 2, "aybe-prime": 2, "qybe": 3, "cae": 2, "skew": 1}


def evaluate(kind: str, r: TensorMap) -> TensorMap:
    """``RESIDUALS[kind](r)``, computed on an integral multiple of ``r``.

    A residual homogeneous of degree ``d`` has ``R(lam r) = lam^d R(r)``.
    With ``lam`` the least common multiple of the entry denominators,
    ``lam r`` has integer entries, so the residual runs on integer
    arithmetic and is divided by ``lam^d`` once at the end.  Integral maps
    (``lam = 1``) and the unitarity defect are evaluated as given.
    """
    residual = RESIDUALS[kind]
    degree = DEGREE.get(kind)
    lam = math.lcm(*(c.denominator for c in r.entries.values() if type(c) is Fraction))
    if lam == 1 or degree is None:
        return residual(r)
    return residual(r.scale(lam)).scale(Fraction(1, lam**degree))


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
    #: the residual map itself, kept for witness emission and never printed
    residual: TensorMap | None = field(default=None, compare=False, repr=False)

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


def check(kind: str, r: TensorMap) -> ResidualReport:
    """Run one named residual check and wrap the outcome in a report."""
    if kind not in RESIDUALS:
        raise ValueError(f"unknown check kind: {kind!r}")
    preconditions: list[tuple[str, bool]] = []
    notes: list[str] = []
    if kind == "cae":
        skew_ok = is_skew(r)
        preconditions.append(("skew", skew_ok))
        if not skew_ok:
            notes.append("the expansion identity is only asserted for skew r")
    residual = evaluate(kind, r)
    passed = residual.is_zero() and all(ok for _, ok in preconditions)
    return ResidualReport(
        kind=kind,
        dim=r.dim,
        passed=passed,
        witness=residual.first_nonzero(),
        conventions=tuple((k, CONVENTIONS[k]) for k in _RELEVANT_FLAGS[kind]),
        preconditions=tuple(preconditions),
        notes=tuple(notes),
        residual=residual,
    )
