"""Deterministic fixtures and small exhaustive searches used by checks/tests."""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

from . import linalg, sparse, ybe
from .sparse import ONE, Scalar, frac
from .tensoralg import TensorMap, Word, words
from .twisted import PolynomialPoissonBracket


@functools.lru_cache(maxsize=None)
def skew_entry_orbits(dim: int):
    """Pair up map entries under the skew involution.

    A map on the tensor square is skew iff, for every entry position,
    ``r[(k,l),(i,j)] = -r[(l,k),(j,i)]``.  Returns ``(orbits, fixed)`` where
    ``orbits`` lists representative/partner position pairs and ``fixed`` the
    self-paired positions (which skewness forces to zero).  Both are tuples,
    computed once per ``dim``.
    """
    seen: set[tuple[Word, Word]] = set()
    orbits: list[tuple[tuple[Word, Word], tuple[Word, Word]]] = []
    fixed: list[tuple[Word, Word]] = []
    for out_w in words(dim, 2):
        for in_w in words(dim, 2):
            key = (out_w, in_w)
            if key in seen:
                continue
            partner = ((out_w[1], out_w[0]), (in_w[1], in_w[0]))
            seen.add(key)
            seen.add(partner)
            if partner == key:
                fixed.append(key)
            else:
                orbits.append((key, partner))
    return tuple(orbits), tuple(fixed)


def skew_map_from_orbit_values(dim: int, values) -> TensorMap:
    orbits, _ = skew_entry_orbits(dim)
    if len(values) != len(orbits):
        raise ValueError("one value per entry orbit required")
    entries: dict[tuple[Word, Word], Scalar] = {}
    for (rep, partner), val in zip(orbits, values):
        c = frac(val)
        if c:
            entries[rep] = c
            entries[partner] = -c
    # the entries are canonical and nonzero already: wrap them as they are
    return TensorMap._wrap(dim, 2, 2, entries)


def orbit_values(r: TensorMap) -> list[Scalar]:
    """The values of a skew map at its orbit representatives.

    A skew map is zero at the fixed positions, so it is
    ``skew_map_from_orbit_values(r.dim, orbit_values(r))``.
    """
    orbits, _ = skew_entry_orbits(r.dim)
    return [r.entries.get(rep, 0) for rep, _ in orbits]


def orbit_grid(dim: int, entry_values=(-1, 0, 1)):
    """Every tuple of orbit values drawn from a finite set, in product order."""
    orbits, _ = skew_entry_orbits(dim)
    return itertools.product([frac(v) for v in entry_values], repeat=len(orbits))


def enumerate_skew_maps(dim: int, entry_values=(-1, 0, 1)):
    """All skew maps on the tensor square with orbit entries from a finite set."""
    for choice in orbit_grid(dim, entry_values):
        yield skew_map_from_orbit_values(dim, choice)


class SkewOrbitForm:
    """A quadratic residual as a quadratic form on skew maps.

    Let ``S_k`` be the skew map that is 1 at the representative of entry
    orbit ``k`` and -1 at its partner; every skew map is ``r = sum x_k S_k``
    with ``x = orbit_values(r)``.  The residual comes as its table of
    products (see ``ybe.PRODUCTS``): ``R(r) = B(r, r)`` with
    ``B(s, t) = sum coeff * P (s^a o t^b) P^-1``, so

        ``R(r) = sum_k x_k^2 D_k + sum_{k<l} x_k x_l P_kl``,
        ``D_k = B(S_k, S_k)``,  ``P_kl = B(S_k, S_l) + B(S_l, S_k)``.

    The table is folded with :func:`ybe.fold`, and then once more: each
    ``S_k`` is skew, ``S_k^{ts} = -S_k^{st}``, so every slot pair is put in
    increasing order and equal joins merge, some of them to zero.  The right
    factors of all the ``S_l`` share one index with in-words tagged by ``l``,
    so one :func:`ybe.push_rows` per ``k`` gives ``B(S_k, S_l)`` for every
    ``l``; no residual is called.  ``terms`` lists the nonzero ``(k, k, D_k)``
    and ``(k, l, P_kl)``.

    Read as a matrix ``A`` with one row per output entry and one column per
    term, ``R(r) = A w`` with ``w`` the weights ``x_k x_l``.  So ``R(r)`` is
    zero exactly when ``E w`` is, for ``E`` the reduced echelon rows of
    ``A``; at dimension 2 the ``cybe`` form has 4 of them and the ``aybe``
    form 10.  :meth:`vanishes` decides ``R(r) = 0`` from ``E`` alone; a call
    builds ``R(r)`` itself, which only a witness needs.
    """

    def __init__(self, products, dim: int):
        orbits, _ = skew_entry_orbits(dim)
        merged: dict = {}
        for (a, b), c in ybe.fold(products).items():
            if a[0] > a[1]:
                a, c = a[::-1], -c
            if b[0] > b[1]:
                b, c = b[::-1], -c
            merged[a, b] = merged.get((a, b), 0) + c
        joins = {key: c for key, c in merged.items() if c}
        # each S_k's embeddings; a table that cancels embeds nothing
        slots = dict.fromkeys(itertools.chain.from_iterable(joins))
        family = [
            {s: ybe.slot_index(TensorMap._wrap(dim, 2, 2, {rep: 1, partner: -1}), s, 3)
             for s in slots}
            for rep, partner in orbits
        ] if joins else []
        # the right factors of all the S_l in one index, in-words tagged by l
        tagged: dict = {b: {} for _, b in joins}
        for l, s_l in enumerate(family):
            for b, index in tagged.items():
                for mid, row in s_l[b].items():
                    index.setdefault(mid, []).extend(((l, i), c) for i, c in row)
        # B(S_k, S_l) for every l from one push
        halves: dict = {}
        for k, s_k in enumerate(family):
            chains = [(c, (s_k[a], tagged[b])) for (a, b), c in joins.items()]
            for o, row in ybe.push_rows(chains):
                for (l, i), c in row.items():
                    halves.setdefault((k, l), {})[o, i] = c
        self.dim = dim
        self.terms = []
        for k, l in itertools.combinations_with_replacement(range(len(family)), 2):
            # D_k = B(S_k, S_k), P_kl = B(S_k, S_l) + B(S_l, S_k)
            entries = sparse.add(halves.get((k, l), {}), halves.get((l, k), {}) if l > k else {})
            if entries:
                self.terms.append((k, l, entries))
        # the rows of A: each output entry's coefficients, by term index
        rows: dict = {}
        for j, (_, _, entries) in enumerate(self.terms):
            for key, c in entries.items():
                rows.setdefault(key, {})[j] = c
        echelon = linalg.rref(list(rows.values()), len(self.terms))
        # the rows of E as primitive integer (k, l, c) triples: a reduced row
        # scaled by the lcm of its denominators has no common factor left
        self.echelon = []
        for row in echelon.sparse_rows:
            scale = math.lcm(*(c.denominator for c in row.values()))
            triples = []
            for j, c in row.items():
                k, l, _ = self.terms[j]
                triples.append((k, l, c.numerator * (scale // c.denominator)))
            self.echelon.append(tuple(triples))

    def __call__(self, values: Sequence[Scalar]) -> TensorMap:
        """``R`` at the skew map with these orbit values."""
        total: dict = {}
        for k, l, entries in self.terms:
            weight = values[k] * values[l]
            if weight:
                sparse.accumulate(total, entries.items(), weight)
        return TensorMap._wrap(self.dim, 3, 3, sparse.purge(total))

    def vanishes(self, values: Sequence[Scalar]) -> bool:
        """Whether ``R`` is zero at the skew map with these orbit values: ``E w = 0``."""
        for row in self.echelon:
            total = 0
            for k, l, c in row:
                total += c * values[k] * values[l]
            if total:
                return False
        return True


def search_skew_solutions(kind: str, dim: int = 2, entry_values=(-1, 0, 1)):
    """Split the skew enumeration into exact solutions and non-solutions.

    ``kind`` names a residual quadratic in the map (``cybe``, ``aybe``,
    ``aybe-prime`` or ``cae``); it is built as a :class:`SkewOrbitForm` from
    its table in ``ybe.PRODUCTS``, and each grid map is sorted by
    :meth:`SkewOrbitForm.vanishes`, the form's echelon rows, without
    building its residual.
    """
    if kind not in ybe.PRODUCTS:
        raise ValueError(f"the skew search needs a residual quadratic in r, not {kind!r}")
    form = SkewOrbitForm(ybe.PRODUCTS[kind], dim)
    solutions: list[TensorMap] = []
    non_solutions: list[TensorMap] = []
    for values in orbit_grid(dim, entry_values):
        r = skew_map_from_orbit_values(dim, values)
        (solutions if form.vanishes(values) else non_solutions).append(r)
    return solutions, non_solutions


def random_skew_map(dim: int, rng: random.Random, lo: int = -2, hi: int = 2) -> TensorMap:
    orbits, _ = skew_entry_orbits(dim)
    values = [Fraction(rng.randint(lo, hi)) for _ in orbits]
    return skew_map_from_orbit_values(dim, values)


def random_map(dim: int, deg: int, rng: random.Random, density: float = 0.5) -> TensorMap:
    entries = {}
    for out_w in words(dim, deg):
        for in_w in words(dim, deg):
            if rng.random() < density:
                entries[(out_w, in_w)] = Fraction(rng.randint(-2, 2))
    return TensorMap(dim, deg, deg, entries)


def diagonal_unitary_qybe_solution(dim: int = 2) -> TensorMap:
    """A non-identity unitary quantum Yang-Baxter solution, diagonal on words.

    ``R(e_i (x) e_j) = eps_{ij} e_i (x) e_j`` with a symmetric sign matrix
    satisfies the quantum equation (both sides act diagonally with the same
    scalar) and unitarity (``eps_{ij} eps_{ji} = 1``).
    """
    entries = {
        ((i, j), (i, j)): Fraction(1 if i == j else -1)
        for i in range(dim)
        for j in range(dim)
    }
    return TensorMap(dim, 2, 2, entries)


def sl2_poisson_bracket() -> PolynomialPoissonBracket:
    """Linear Poisson structure with {e,f} = h, {h,e} = 2e, {h,f} = -2f.

    Generators are ordered (e, h, f) = (0, 1, 2).
    """
    table = {
        (0, 2): {(1,): ONE},  # {e, f} = h
        (0, 1): {(0,): -2 * ONE},  # {e, h} = -2e
        (1, 2): {(2,): -2 * ONE},  # {h, f} = -2f
    }
    return PolynomialPoissonBracket.from_table(3, table)
