"""Exact sparse tensor algebra over the rationals.

Basis tensors are indexed by *words*: the word ``(i1, ..., im)`` stands for
``e_{i1} (x) ... (x) e_{im}`` in the m-th tensor power of a fixed
finite-dimensional space with basis ``e_0, ..., e_{dim-1}``.  A tensor is a
plain sparse vector of :mod:`ybalg.sparse` keyed by words, whose lengths may
differ (an element of the tensor algebra); a tensor map keeps its entries as
such a vector keyed by ``(out_word, in_word)``.  Every coefficient is a
nonzero ``int`` or ``fractions.Fraction``, all arithmetic is that module's,
and nothing here ever rounds.

Permutations are kept in one-line form as 0-indexed tuples under the *left
action* convention: ``p[j]`` is the slot that the content of slot ``j`` moves
to, so ``(p . t)_{p(j)} = t_j``.  The pretty printer emits the 1-indexed
one-line string ``(312)`` used in reports, meaning the permutation sending
``v (x) w1 (x) w2`` to ``w1 (x) w2 (x) v`` when read with this convention.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterator, Mapping, Sequence

from . import sparse
from .sparse import ONE, Scalar

Word = tuple[int, ...]
Perm = tuple[int, ...]
Tensor = dict[Word, Scalar]


def words(dim: int, length: int) -> Iterator[Word]:
    """All basis words of the given length, in lexicographic order."""
    return itertools.product(range(dim), repeat=length)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Composite ``p o q`` (apply ``q`` first, then ``p``)."""
    if len(p) != len(q):
        raise ValueError("size mismatch")
    return tuple(p[q[j]] for j in range(len(q)))


def perm_inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for j, image in enumerate(p):
        inv[image] = j
    return tuple(inv)


def koszul_sort(items, odd, key=None) -> tuple[tuple, int]:
    """Stable sort of ``items`` by ``key`` (the items themselves by default)
    and the Koszul sign of the reordering.

    The insertion loop swaps each out-of-order pair once, as neighbours, and
    the sign flips at every swap of two items for which ``odd`` is true.
    This is the one reorder-sign loop of the package.
    """
    seq = list(items)
    ranks = seq if key is None else list(map(key, seq))
    sign = 1
    for top in range(1, len(seq)):
        pos = top
        while pos and ranks[pos - 1] > ranks[pos]:
            # the moving item first: when it is even, one call settles the swap
            if odd(seq[pos]) and odd(seq[pos - 1]):
                sign = -sign
            seq[pos - 1], seq[pos] = seq[pos], seq[pos - 1]
            if ranks is not seq:
                ranks[pos - 1], ranks[pos] = ranks[pos], ranks[pos - 1]
            pos -= 1
    return tuple(seq), sign


def perm_sign(p: Perm) -> int:
    """Sign of a permutation: the sign of sorting it with every item odd."""
    return koszul_sort(p, lambda _: True)[1]


def is_perm(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def perm_str(p: Perm) -> str:
    """1-indexed one-line notation, e.g. ``(312)``."""
    if len(p) <= 9:
        return "(" + "".join(str(i + 1) for i in p) + ")"
    return "(" + " ".join(str(i + 1) for i in p) + ")"


def _reader(positions: Sequence[int]) -> Callable[[Sequence[int]], Word]:
    """The map ``w -> (w[positions[0]], w[positions[1]], ...)`` as a placement table."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    # ``itemgetter`` of one position returns a letter, not a word
    return lambda w: tuple(w[j] for j in positions)


def word_permute(p: Perm, w: Word) -> Word:
    """Left action on words: the letter in slot ``j`` moves to slot ``p[j]``."""
    if len(p) != len(w):
        raise ValueError("size mismatch")
    out = [0] * len(w)
    for j, letter in enumerate(w):
        out[p[j]] = letter
    return tuple(out)


# ---------------------------------------------------------------------------
# tensor maps
# ---------------------------------------------------------------------------


class TensorMap:
    """A linear map from the ``dom_deg``-th to the ``cod_deg``-th tensor power.

    Stored sparsely as ``entries[(out_word, in_word)] = coefficient`` with
    zero entries purged eagerly; equality of entry dictionaries is equality of
    maps.
    """

    __slots__ = ("dim", "dom_deg", "cod_deg", "entries")

    def __init__(
        self,
        dim: int,
        dom_deg: int,
        cod_deg: int,
        entries: Mapping[tuple[Word, Word], Scalar] | None = None,
    ):
        if {type(dim), type(dom_deg), type(cod_deg)} != {int}:
            raise TypeError("dim and degrees must be int")
        self.dim = dim
        self.dom_deg = dom_deg
        self.cod_deg = cod_deg
        entries = entries or {}
        if any(len(o) != cod_deg or len(i) != dom_deg for o, i in entries):
            raise ValueError("entry word length does not match degrees")
        self.entries = sparse.vector(
            ((tuple(o), tuple(i)), c) for (o, i), c in entries.items()
        )

    @staticmethod
    def _wrap(dim: int, dom_deg: int, cod_deg: int, entries: dict) -> "TensorMap":
        """A map wrapping a vector the kernel already purged, keys checked by the caller."""
        t = object.__new__(TensorMap)
        t.dim = dim
        t.dom_deg = dom_deg
        t.cod_deg = cod_deg
        t.entries = entries
        return t

    def _of(self, dom_deg: int, cod_deg: int, entries: dict) -> "TensorMap":
        """A map over the same space wrapping a vector the kernel already purged."""
        return TensorMap._wrap(self.dim, dom_deg, cod_deg, entries)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, dom_deg: int, cod_deg: int | None = None) -> "TensorMap":
        return cls(dim, dom_deg, dom_deg if cod_deg is None else cod_deg, {})

    @classmethod
    def identity(cls, dim: int, deg: int) -> "TensorMap":
        return cls.from_permutation(identity_perm(deg), dim)

    @classmethod
    def from_permutation(cls, p: Perm, dim: int) -> "TensorMap":
        return cls(
            dim,
            len(p),
            len(p),
            {(word_permute(p, w), w): ONE for w in words(dim, len(p))},
        )

    @classmethod
    def swap(cls, dim: int) -> "TensorMap":
        return cls.from_permutation((1, 0), dim)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def is_degree_preserving(self) -> bool:
        return self.dom_deg == self.cod_deg

    def first_nonzero(self) -> tuple[Word, Word, Scalar] | None:
        """Lexicographically first nonzero entry, as ``(out, in, value)``."""
        if not self.entries:
            return None
        (out_word, in_word), coeff = min(self.entries.items())
        return (out_word, in_word, coeff)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorMap)
            and (self.dim, self.dom_deg, self.cod_deg)
            == (other.dim, other.dom_deg, other.cod_deg)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash(
            (self.dim, self.dom_deg, self.cod_deg, frozenset(self.entries.items()))
        )

    def __repr__(self) -> str:
        return (
            f"TensorMap(dim={self.dim}, {self.dom_deg}->{self.cod_deg}, "
            f"{len(self.entries)} entries)"
        )

    # -- linear algebra -----------------------------------------------------

    def apply(self, t: Tensor) -> Tensor:
        if any(len(word) != self.dom_deg for word in t):
            raise ValueError("input degree does not match map domain")
        out: Tensor = {}
        sparse.accumulate(
            out, ((o, c * t[i]) for (o, i), c in self.entries.items() if i in t)
        )
        return sparse.purge(out)

    def apply_word(self, w: Word) -> Tensor:
        return self.apply({tuple(w): ONE})

    def __add__(self, other: "TensorMap") -> "TensorMap":
        self._check_same_shape(other)
        return self._of(self.dom_deg, self.cod_deg, sparse.add(self.entries, other.entries))

    def __sub__(self, other: "TensorMap") -> "TensorMap":
        return self + other.scale(-1)

    def __neg__(self) -> "TensorMap":
        return self.scale(-1)

    def scale(self, scalar) -> "TensorMap":
        return self._of(self.dom_deg, self.cod_deg, sparse.scale(self.entries, scalar))

    def compose(self, other: "TensorMap") -> "TensorMap":
        """``self o other`` (apply ``other`` first)."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.dom_deg != other.cod_deg:
            raise ValueError("degree mismatch in composition")
        by_mid: dict[Word, list[tuple[Word, Scalar]]] = {}
        for (out_word, mid_word), c in self.entries.items():
            by_mid.setdefault(mid_word, []).append((out_word, c))
        out: dict[tuple[Word, Word], Scalar] = {}
        sparse.accumulate(
            out,
            (
                ((out_word, in_word), c1 * c2)
                for (mid_word, in_word), c2 in other.entries.items()
                for out_word, c1 in by_mid.get(mid_word, ())
            ),
        )
        return self._of(other.dom_deg, self.cod_deg, sparse.purge(out))

    def tensor_product(self, other: "TensorMap") -> "TensorMap":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return self._of(
            self.dom_deg + other.dom_deg,
            self.cod_deg + other.cod_deg,
            sparse.product(
                self.entries, other.entries, lambda a, b: (a[0] + b[0], a[1] + b[1])
            ),
        )

    def conjugate_by_perm(self, p: Perm) -> "TensorMap":
        """``P o self o P^{-1}`` for the permutation operator ``P``."""
        if not self.is_degree_preserving() or len(p) != self.dom_deg:
            raise ValueError("conjugation needs a degree-preserving map")
        # the letter in slot ``j`` moves to slot ``p[j]`` (see word_permute)
        place = _reader(perm_inverse(p))
        return self._of(
            self.dom_deg,
            self.cod_deg,
            {(place(o), place(i)): c for (o, i), c in self.entries.items()},
        )

    def r21(self) -> "TensorMap":
        """``swap o r o swap`` for maps on the square of the base space."""
        if self.dom_deg != 2 or self.cod_deg != 2:
            raise ValueError("r21 is defined for maps on tensor squares")
        return self.conjugate_by_perm((1, 0))

    def _check_same_shape(self, other: "TensorMap") -> None:
        if (self.dim, self.dom_deg, self.cod_deg) != (
            other.dim,
            other.dom_deg,
            other.cod_deg,
        ):
            raise ValueError("shape mismatch")


def columns(entries: Mapping[tuple[Word, Word], Scalar]) -> dict[Word, Tensor]:
    """A map's entries as input word -> its nonzero image, in entry order."""
    out: dict[Word, Tensor] = {}
    for (o, i), c in entries.items():
        out.setdefault(i, {})[o] = c
    return out


def embed_components(r: TensorMap, slots: Sequence[int], n: int) -> TensorMap:
    """Embed a degree-preserving map so it acts on the given slots of ``n``.

    ``slots`` are 1-indexed, pairwise distinct, and may appear in any order:
    the ``t``-th tensor factor of the map acts on slot ``slots[t]``.
    ``embed_components(r, (1, 3), 3)`` is the usual ``r^{13}``;
    ``embed_components(r, (3, 1), 3)`` is ``r^{31}``.
    """
    if not r.is_degree_preserving():
        raise ValueError("embedding needs a degree-preserving map")
    k = r.dom_deg
    if len(slots) != k or len(set(slots)) != k:
        raise ValueError("slots must be distinct and match the map degree")
    if any(s < 1 or s > n for s in slots):
        raise ValueError("slot out of range")
    idx = [s - 1 for s in slots]
    passive = [j for j in range(n) if j not in idx]
    # slot ``idx[t]`` takes letter ``t`` of ``o + filler``, slot ``passive[t]``
    # letter ``k + t``
    place = _reader(perm_inverse(tuple(idx + passive)))
    fillers = list(words(r.dim, n - k))
    out = {
        (place(o + filler), place(i + filler)): c
        for (o, i), c in r.entries.items()
        for filler in fillers
    }
    return r._of(n, n, out)
