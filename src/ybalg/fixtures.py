"""Deterministic fixtures and small exhaustive searches used by checks/tests."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Callable, Sequence

from . import sparse
from .sparse import ONE, Scalar, frac
from .tensoralg import TensorMap, Word, words
from .twisted import PolynomialPoissonBracket
from .ybe import DEGREE, RESIDUALS


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
    entries: dict[tuple[Word, Word], Fraction] = {}
    for (rep, partner), val in zip(orbits, values):
        c = frac(val)
        if c:
            entries[rep] = c
            entries[partner] = -c
    return TensorMap(dim, 2, 2, entries)


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
    """A residual quadratic in the map, as a quadratic form on skew maps.

    Let ``S_k`` be the skew map that is 1 at the representative of entry
    orbit ``k`` and -1 at its partner; every skew map is ``r = sum x_k S_k``
    with ``x = orbit_values(r)``.  A residual ``R(r) = B(r, r)``, ``B``
    bilinear, is then

        ``R(r) = sum_k x_k^2 D_k + sum_{k<l} x_k x_l P_kl``,
        ``D_k = R(S_k)``,  ``P_kl = R(S_k + S_l) - D_k - D_l``.

    The constructor evaluates ``R`` literally on the zero map (for the
    shape), on each ``S_k`` and on each ``S_k + S_l``, and keeps the nonzero
    ``D_k`` and ``P_kl``.  A call costs one scaled accumulation per kept
    term with a nonzero weight ``x_k x_l`` and returns ``R(r)`` entry for
    entry, so verdicts and witnesses are those of the literal residual.
    Building a form costs ``1 + n(n+1)/2`` literal evaluations for ``n``
    orbits (22 at dim 2, 667 at dim 3): it pays off over many maps only.
    """

    def __init__(self, residual: Callable[[TensorMap], TensorMap], dim: int):
        n = len(skew_entry_orbits(dim)[0])

        def at(*ks: int) -> TensorMap:
            values = [1 if j in ks else 0 for j in range(n)]
            return residual(skew_map_from_orbit_values(dim, values))

        self._zero = at()
        diag = [at(k) for k in range(n)]
        self.terms = [(k, k, d.entries) for k, d in enumerate(diag) if not d.is_zero()]
        for k, l in itertools.combinations(range(n), 2):
            cross = at(k, l) - diag[k] - diag[l]
            if not cross.is_zero():
                self.terms.append((k, l, cross.entries))

    def __call__(self, values: Sequence[Scalar]) -> TensorMap:
        """``R`` at the skew map with these orbit values."""
        total: dict = {}
        for k, l, entries in self.terms:
            weight = values[k] * values[l]
            if weight:
                sparse.accumulate(total, entries.items(), weight)
        zero = self._zero
        return zero._of(zero.dom_deg, zero.cod_deg, sparse.purge(total))


def search_skew_solutions(kind: str, dim: int = 2, entry_values=(-1, 0, 1)):
    """Split the skew enumeration into exact solutions and non-solutions.

    ``kind`` names a residual quadratic in the map (``cybe``, ``aybe``,
    ``aybe-prime`` or ``cae``); it is evaluated as a :class:`SkewOrbitForm`.
    """
    if DEGREE.get(kind) != 2:
        raise ValueError(f"the skew search needs a residual quadratic in r, not {kind!r}")
    form = SkewOrbitForm(RESIDUALS[kind], dim)
    solutions: list[TensorMap] = []
    non_solutions: list[TensorMap] = []
    for values in orbit_grid(dim, entry_values):
        r = skew_map_from_orbit_values(dim, values)
        (solutions if form(values).is_zero() else non_solutions).append(r)
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
    return PolynomialPoissonBracket(3, table)
