"""Helpers of the infinity-residual tests: small fixtures, the one-shot
residual evaluators, and the dictionary between words of matrix units and
maps on column spaces."""

from fractions import Fraction

from ybalg import sparse
from ybalg.algebras import TruncatedAlgebra
from ybalg.sparse import ONE
from ybalg.tensoralg import Tensor, TensorMap, Word
from ybalg.ybe_infty import (
    LieStructure,
    RnFamily,
    _bracket_degrees,
    _check_family,
    _cybe_sum,
    _pair_product,
)


def assoc_pair_product(
    algebra: TruncatedAlgebra, x: Tensor, slots_x, y: Tensor, slots_y, n: int,
    super_degrees=None,
) -> Tensor:
    """``x^(slots_x) . y^(slots_y)`` inside the n-th tensor power of ``algebra``.

    ``super_degrees`` drive the Koszul interchange; they default to zero
    because a truncated algebra's own degrees measure word length, not
    parity.
    """
    degrees = _bracket_degrees(algebra.nbasis, super_degrees)
    return _pair_product(algebra.mul_basis, degrees, x, slots_x, y, slots_y, n)


def cybe_infty_sum(g: LieStructure, fam: RnFamily, n: int, reading: str = "shuffle") -> Tensor:
    """One evaluation of the n-th classical residual under a chosen reading."""
    if reading not in ("shuffle", "literal"):
        raise ValueError("reading must be 'shuffle' or 'literal'")
    g.require_lie()
    _check_family(fam, g.nbasis, g.degrees)
    return _cybe_sum(g, fam, n, reading)


def abelian_lie(dim: int, degrees=None) -> LieStructure:
    """The abelian Lie algebra: every bracket vanishes."""
    return LieStructure([f"x{k + 1}" for k in range(dim)], {}, degrees)


def scalar_algebra() -> TruncatedAlgebra:
    """The ground field as a one-element basis."""
    return TruncatedAlgebra(
        ["1"],
        [0],
        {(0, 0): {0: ONE}},
        {0: ONE},
        mode="quotient",
        cap=0,
        info={"kind": "scalar"},
    )


def matrix_element_to_map(tensor: Tensor, size: int, n: int) -> TensorMap:
    """Words of matrix units as an endomorphism of the n-fold column space."""
    entries: dict[tuple[Word, Word], Fraction] = {}
    sparse.accumulate(
        entries,
        (
            ((tuple(k // size for k in word), tuple(k % size for k in word)), coeff)
            for word, coeff in tensor.items()
        ),
    )
    return TensorMap(size, n, n, entries)


def matrix_map_to_element(r: TensorMap, size: int) -> Tensor:
    """The inverse dictionary: an endomorphism as a word of matrix units."""
    return sparse.vector(
        (tuple(a * size + b for a, b in zip(out_word, in_word)), coeff)
        for (out_word, in_word), coeff in r.entries.items()
    )
