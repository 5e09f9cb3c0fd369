"""Deterministic fixtures and small exhaustive searches used by checks/tests."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .sparse import ONE, frac
from .tensoralg import TensorMap, Word, words
from .twisted import PolynomialPoissonBracket
from .ybe import RESIDUALS, is_skew


def skew_entry_orbits(dim: int):
    """Pair up map entries under the skew involution.

    A map on the tensor square is skew iff, for every entry position,
    ``r[(k,l),(i,j)] = -r[(l,k),(j,i)]``.  Returns ``(orbits, fixed)`` where
    ``orbits`` lists representative/partner position pairs and ``fixed`` the
    self-paired positions (which skewness forces to zero).
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
    return orbits, fixed


def skew_map_from_orbit_values(dim: int, values) -> TensorMap:
    orbits, _ = skew_entry_orbits(dim)
    if len(values) != len(orbits):
        raise ValueError("one value per entry orbit required")
    entries: dict[tuple[Word, Word], Fraction] = {}
    for (rep, partner), val in zip(orbits, values):
        c = frac(val)
        entries[rep] = c
        entries[partner] = -c
    return TensorMap(dim, 2, 2, entries)


def enumerate_skew_maps(dim: int, entry_values=(-1, 0, 1)):
    """All skew maps on the tensor square with orbit entries from a finite set."""
    orbits, _ = skew_entry_orbits(dim)
    for choice in itertools.product(entry_values, repeat=len(orbits)):
        yield skew_map_from_orbit_values(dim, choice)


def search_skew_solutions(kind: str, dim: int = 2, entry_values=(-1, 0, 1)):
    """Split the skew enumeration into exact solutions and non-solutions."""
    residual = RESIDUALS[kind]
    solutions: list[TensorMap] = []
    non_solutions: list[TensorMap] = []
    for r in enumerate_skew_maps(dim, entry_values):
        (solutions if residual(r).is_zero() else non_solutions).append(r)
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
