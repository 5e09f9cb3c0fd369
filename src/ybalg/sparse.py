"""Sparse exact vectors: the one coefficient-dictionary kernel.

Every object the package computes with is a finitely supported rational
combination of hashable keys: words of the tensor algebra, ``(out, in)``
word pairs of a tensor map, index pairs and triples in ``A (x) A`` and
``A (x) A (x) A``, polynomial monomials, permutations in a group algebra.
All of them are plain ``dict[key, Fraction]`` values, and this module is
the only place that combines, scales, multiplies and purges them.

A *vector* here is such a dict whose stored coefficients are all nonzero
``Fraction`` values, so equality of dicts is equality of vectors.  Every
dict the functions below return is a vector; :func:`accumulate` instead
updates a running total in place and may leave cancelled keys at zero, so
call :func:`purge` once when the total is complete.  Insertion order follows
the order in which keys are first met, and cancelled keys keep their place
until the purge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping

ZERO = Fraction(0)
ONE = Fraction(1)

Terms = Iterable[tuple[Hashable, Fraction]]


def frac(value) -> Fraction:
    """Coerce ints, strings like ``"2/3"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def vector(terms: Mapping | Terms = ()) -> dict:
    """A vector from outside input: a mapping or ``(key, coefficient)`` pairs.

    Coefficients go through :func:`frac`, repeated keys are summed, and
    zeros are dropped.
    """
    items = terms.items() if isinstance(terms, Mapping) else terms
    out: dict = {}
    accumulate(out, ((key, frac(coeff)) for key, coeff in items))
    return purge(out)


def accumulate(total: dict, terms: Terms, scalar=None) -> None:
    """Add ``scalar * coeff`` (``coeff`` without a scalar) into ``total``.

    ``terms`` yields ``(key, coeff)`` pairs with ``Fraction`` coefficients;
    the scalar may be an ``int`` or a ``Fraction``.  Works in place and
    purges nothing.
    """
    if scalar is None:
        for key, coeff in terms:
            if key in total:
                total[key] += coeff
            else:
                total[key] = coeff
    else:
        for key, coeff in terms:
            if key in total:
                total[key] += scalar * coeff
            else:
                total[key] = scalar * coeff


def purge(terms: dict) -> dict:
    """The entries with a nonzero coefficient, in their order."""
    return {key: coeff for key, coeff in terms.items() if coeff}


def add(x: dict, y: dict) -> dict:
    """``x + y``: the keys of ``x`` first, then the new keys of ``y``."""
    out = dict(x)
    accumulate(out, y.items())
    return purge(out)


def scale(x: dict, scalar) -> dict:
    """``scalar * x``; the scalar is coerced with :func:`frac`."""
    c = frac(scalar)
    return {key: c * coeff for key, coeff in x.items()} if c else {}


def product(x: dict, y: dict, key: Callable[[Hashable, Hashable], Hashable]) -> dict:
    """Bilinear product in which basis keys ``a``, ``b`` multiply to ``key(a, b)``."""
    out: dict = {}
    accumulate(
        out, ((key(a, b), ca * cb) for a, ca in x.items() for b, cb in y.items())
    )
    return purge(out)
