"""Reference permutations of tensor slots, for the tests: block
permutations expanded slot by slot, the realignment of symbol blocks, and
the letterwise action on tensors.  The library itself regroups word slices
instead (:mod:`ybalg.twisted`, :func:`ybalg.linfty.sign_odd`)."""

from typing import Hashable, Sequence

from ybalg.tensoralg import Perm, Tensor, is_perm, word_permute


def block_permutation_expand(tau: Perm, sizes: Sequence[int]) -> Perm:
    """Expand a block permutation to a permutation of the individual slots.

    Block ``j`` (of ``sizes[j]`` consecutive slots, in source order) moves as a
    contiguous unit to block position ``tau[j]``; slots inside a block keep
    their relative order.  Example: ``block_permutation_expand((1, 0), (1, 2))``
    is ``(2, 0, 1)``, printed ``(312)``, which sends ``v (x) w1 (x) w2`` to
    ``w1 (x) w2 (x) v``.

    No evaluator expands a block permutation (:mod:`ybalg.twisted` regroups
    word slices); this and :func:`sigma_prime` are the reference construction
    that the twisted extension, defects and regrouping and
    ``linfty.sign_odd`` are compared against.
    """
    if len(tau) != len(sizes) or not is_perm(tau):
        raise ValueError("invalid block permutation")
    src_offset = [0] * len(sizes)
    for j in range(1, len(sizes)):
        src_offset[j] = src_offset[j - 1] + sizes[j - 1]
    out_offset = [0] * len(sizes)
    for j in range(len(sizes)):
        out_offset[j] = sum(sizes[k] for k in range(len(sizes)) if tau[k] < tau[j])
    total = sum(sizes)
    expanded = [0] * total
    for j, size in enumerate(sizes):
        for t in range(size):
            expanded[src_offset[j] + t] = out_offset[j] + t
    return tuple(expanded)


def sigma_prime(
    target_order: Sequence[Hashable],
    current: Sequence[tuple[Hashable, int]],
) -> Perm:
    """Slot realignment permutation for multilinear expansion bookkeeping.

    ``current`` lists the symbols of an expression in the order their slot
    blocks actually appear, each with the number of slots it occupies;
    ``target_order`` lists the same symbols in the order they should appear.
    Returns the expanded permutation that moves each block to its target
    position.  Symbols must be pairwise distinct.
    """
    symbols = [sym for sym, _ in current]
    if sorted(map(repr, symbols)) != sorted(map(repr, target_order)):
        raise ValueError("target order and expression order disagree on symbols")
    if len(set(target_order)) != len(target_order):
        raise ValueError("symbols must be distinct")
    position = {sym: k for k, sym in enumerate(target_order)}
    tau = tuple(position[sym] for sym in symbols)
    sizes = tuple(size for _, size in current)
    return block_permutation_expand(tau, sizes)


def apply_permutation(p: Perm, t: Tensor) -> Tensor:
    """Left action of a permutation on a tensor, letter by letter, each word
    through :func:`word_permute`."""
    return {word_permute(p, w): c for w, c in t.items()}
