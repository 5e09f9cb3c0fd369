"""Sparse exact vectors: the one coefficient-dictionary kernel.

Every object the package computes with is a finitely supported rational
combination of hashable keys: words of the tensor algebra, ``(out, in)``
word pairs of a tensor map, index pairs and triples in ``A (x) A`` and
``A (x) A (x) A``, polynomial monomials, permutations in a group algebra.
All of them are plain ``dict[key, scalar]`` values, and this module is
the only place that combines, scales, multiplies and purges them.

Scalars are exact and kept in canonical form: an ``int`` when the value is
integral, otherwise a ``Fraction`` whose denominator is not 1.  Most
coefficients in the package are integers, and integer arithmetic is many
times cheaper than ``Fraction`` arithmetic.  Nothing is lost: ``str``
prints ``3`` and ``Fraction(3)`` alike, and ``==`` and ``hash`` agree
across the two types, so dict equality and set membership are unchanged.
A float is never a scalar.

A *vector* here is such a dict whose stored coefficients are all nonzero
canonical scalars, so equality of dicts is equality of vectors.  Every
dict the functions below return is a vector; :func:`accumulate` instead
updates a running total in place and may leave cancelled keys at zero, so
call :func:`purge` once when the total is complete.  Insertion order follows
the order in which keys are first met, and cancelled keys keep their place
until the purge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Union

ZERO = 0
ONE = 1

Scalar = Union[int, Fraction]
Terms = Iterable[tuple[Hashable, Scalar]]


def frac(value) -> Scalar:
    """Coerce ints, strings like ``"2/3"``, and Fractions to a canonical scalar.

    The result is an ``int`` when the value is integral, otherwise a
    ``Fraction``; anything else, floats included, raises ``TypeError``.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
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

    ``terms`` yields ``(key, coeff)`` pairs with ``int`` or ``Fraction``
    coefficients; the scalar must be an ``int`` or a ``Fraction`` too.
    Works in place and purges nothing, so an integral ``Fraction`` may stand
    in ``total`` until :func:`purge`.
    """
    if scalar is None:
        for key, coeff in terms:
            if key in total:
                total[key] += coeff
            else:
                total[key] = coeff
    elif not isinstance(scalar, (int, Fraction)):
        raise TypeError(f"not an exact scalar: {scalar!r}")
    else:
        for key, coeff in terms:
            if key in total:
                total[key] += scalar * coeff
            else:
                total[key] = scalar * coeff


def purge(terms: dict) -> dict:
    """The entries with a nonzero coefficient, in their order, in canonical form."""
    return {
        key: c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for key, c in terms.items()
        if c
    }


def add(x: dict, y: dict) -> dict:
    """``x + y``: the keys of ``x`` first, then the new keys of ``y``."""
    out = dict(x)
    accumulate(out, y.items())
    return purge(out)


def scale(x: dict, scalar) -> dict:
    """``scalar * x``; the scalar is coerced with :func:`frac`."""
    c = frac(scalar)
    if c == 1 or c == -1:
        # a sign keeps every scalar canonical
        return {key: c * coeff for key, coeff in x.items()}
    return purge({key: c * coeff for key, coeff in x.items()})


def product(x: dict, y: dict, key: Callable[[Hashable, Hashable], Hashable]) -> dict:
    """Bilinear product in which basis keys ``a``, ``b`` multiply to ``key(a, b)``."""
    out: dict = {}
    accumulate(
        out, ((key(a, b), ca * cb) for a, ca in x.items() for b, cb in y.items())
    )
    return purge(out)


def structure_product(x: dict, y: dict, table: Callable) -> dict:
    """Bilinear product in which basis keys ``a``, ``b`` multiply to the vector ``table(a, b)``."""
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            value = table(a, b)
            if value:
                accumulate(out, value.items(), ca * cb)
    return purge(out)
