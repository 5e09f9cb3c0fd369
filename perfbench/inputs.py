"""Seeded input generators for the benchmark workloads.

Every object is built here from a ``random.Random`` seeded by the benchmark
seed, in plain ``Fraction`` arithmetic, and written through
``ybalg.io.dump_*``.  The program under test receives only these files (or
``Job`` params); none of its own fixtures are used to make inputs.

The seed moves values (signs, rationals, labels) but never shapes or sizes,
so the work per pass is the same for every seed and run-to-run spread comes
from the machine, not from the inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product


_PRIMES = [p for p in range(131, 256) if all(p % k for k in range(2, 16))]


def nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 5)))


# ---------------------------------------------------------------------------
# tensor maps


def diagonal_twist(dim: int, eps) -> dict:
    """``R(e_i (x) e_j) = eps[i][j] e_i (x) e_j`` as tensor-map entries.

    Any diagonal ``R`` solves the quantum equation (all three embeddings are
    diagonal, so both sides agree); it is unitary iff
    ``eps[i][j] * eps[j][i] == 1`` for every pair.
    """
    return {
        ((i, j), (i, j)): Fraction(eps[i][j]) for i in range(dim) for j in range(dim)
    }


def sign_twist_eps(rng: random.Random) -> list[list[int]]:
    """Dim-2 unitary twist ``[[a, -1], [-1, -a]]`` with a seeded sign ``a``.

    The two seeded choices are exchanged by swapping the basis vectors, so
    the commutant systems have the same shape for every seed (other sign
    patterns differ in cost by up to 3x).
    """
    a = rng.choice((-1, 1))
    return [[a, -1], [-1, -a]]


def rational_twist_eps(dim: int, rng: random.Random) -> list[list[Fraction]]:
    """Unitary diagonal twist with ``eps_ij = q``, ``eps_ji = 1/q`` above the diagonal.

    The diagonal alternates ``a, -a, a, ...`` as in :func:`sign_twist_eps`
    (seeded ``a`` only at dim 2, where the basis swap makes it free); each
    ``q = +-p/s`` for distinct seeded primes ``p``, ``s`` of eight bits, so
    the coefficient sizes, and the cost, are alike for every seed.
    """
    a = rng.choice((-1, 1)) if dim == 2 else 1
    eps = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        eps[i][i] = Fraction(a if i % 2 == 0 else -a)
        for j in range(i + 1, dim):
            p, s = rng.sample(_PRIMES, 2)
            q = Fraction(rng.choice((-1, 1)) * p, s)
            eps[i][j] = q
            eps[j][i] = 1 / q
    return eps


def skew_map(dim: int, rng: random.Random) -> dict:
    """A skew map (``r + r21 = 0``) with seeded rational entries on every orbit."""
    entries = {}
    for out_w in product(range(dim), repeat=2):
        for in_w in product(range(dim), repeat=2):
            partner = ((out_w[1], out_w[0]), (in_w[1], in_w[0]))
            if partner == (out_w, in_w) or partner in entries:
                continue
            value = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
            if value:
                entries[(out_w, in_w)] = value
                entries[partner] = -value
    return entries


def skew_diagonal_map(dim: int, rng: random.Random) -> dict:
    """``r(e_i (x) e_j) = a_ij e_i (x) e_j`` with ``a`` antisymmetric.

    Skew, and diagonal, so every commutator in the classical residual
    vanishes: a classical solution for every seed.
    """
    entries = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            a = nonzero(rng)
            entries[((i, j), (i, j))] = a
            entries[((j, i), (j, i))] = -a
    return entries


def unit_pair_map(dim: int, rng: random.Random) -> dict:
    """``c * x (x) y`` with ``x = E_ii``, ``y = E_ij`` (``i != j``).

    From ``x^2 = x``, ``y^2 = 0``, ``xy = y``, ``yx = 0``:
    ``cybe = -c^2 x (x) [x,y] (x) y = -c^2 x (x) y (x) y`` is nonzero, and
    ``aybe = c^2 (x (x) y (x) y - x (x) xy (x) y + x (x) x (x) y^2) = 0``.
    So the classical check fails and the associative check passes.
    """
    i, j = rng.sample(range(dim), 2)
    return {((i, i), (i, j)): nonzero(rng)}


# ---------------------------------------------------------------------------
# algebras, brackets, families


def polynomial_quotient(power: int) -> dict:
    """Structure constants of k[x]/(x^power): basis 1, x, ..., x^(power-1)."""
    labels = ["1"] + [f"x{k}" for k in range(1, power)]
    table = {
        (i, j): {i + j: Fraction(1)}
        for i in range(power)
        for j in range(power)
        if i + j < power
    }
    return {"labels": labels, "degrees": list(range(power)), "table": table,
            "unit": {0: Fraction(1)}, "cap": power - 1}


def lambda_double_bracket(power: int, lam: Fraction) -> dict:
    """The double bracket with ``{{x, x}} = lam (x (x) 1 - 1 (x) x)`` on k[x]/(x^power).

    Closed form of its derivation extension, with ``s``/``t`` the first/second
    tensor slot: ``{{x^a, x^c}} = lam (s^a - t^a) (s^c - t^c) / (s - t)``,
    truncated at ``x^power``.  All double-bracket axioms hold and the
    one-sided multiplication comparison passes for every ``lam``.
    """
    entries = {}
    for a in range(power):
        for c in range(power):
            poly: dict[tuple[int, int], Fraction] = {}
            # (s^a - t^a) * sum_{k<c} s^k t^(c-1-k)
            for k in range(c):
                for (u, v), sign in (((a, 0), 1), ((0, a), -1)):
                    key = (u + k, v + c - 1 - k)
                    poly[key] = poly.get(key, Fraction(0)) + sign * lam
            for (u, v), coeff in poly.items():
                if coeff and u < power and v < power:
                    entries[((u, v), (a, c))] = coeff
    return entries


def gl_structure(size: int, scale) -> dict:
    """gl_size on matrix units ``E_ab`` (index ``a*size+b``), basis rescaled.

    ``f_k = scale[k] E_k`` is a linear change of basis, so the structure
    constants ``[f_p, f_q] = sum (scale_p scale_q / scale_r) c_pq^r f_r``
    still define a Lie algebra.
    """
    n = size * size
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a, b, c, d in product(range(size), repeat=4):
        p, q = a * size + b, c * size + d
        value: dict[int, Fraction] = {}
        if b == c:
            value[a * size + d] = value.get(a * size + d, Fraction(0)) + 1
        if d == a:
            value[c * size + b] = value.get(c * size + b, Fraction(0)) - 1
        value = {r: v * scale[p] * scale[q] / scale[r] for r, v in value.items() if v}
        if value:
            table[(p, q)] = value
    labels = [f"f{a}{b}" for a in range(size) for b in range(size)]
    return {"labels": labels, "degrees": [0] * n, "table": table}


def matrix_units(size: int) -> dict:
    """The matrix algebra: ``E_ab E_cd = [b = c] E_ad``, unit ``sum E_aa``."""
    table = {
        (a * size + b, b * size + d): {a * size + d: Fraction(1)}
        for a, b, d in product(range(size), repeat=3)
    }
    labels = [f"e{a}{b}" for a in range(size) for b in range(size)]
    unit = {a * size + a: Fraction(1) for a in range(size)}
    return {"labels": labels, "degrees": [0] * (size * size), "table": table,
            "unit": unit, "cap": 0}


def nilpotent_square(size: int, rng: random.Random) -> dict:
    """``c * y (x) y`` for the matrix unit ``y = E_01``.

    ``y^2 = 0`` and ``[y, y] = 0``, so both classical residuals (bracket and
    product form) vanish, and so do the n=3 higher residuals of the
    family holding only this binary component.
    """
    y = 0 * size + 1
    return {(y, y): nonzero(rng)}


def sl2_cone(rng: random.Random) -> dict:
    """The cone on the adjoint of sl2 as a dg Lie algebra, basis rescaled.

    Generators ``xe, xf, xh`` in degree 0 carry the sl2 bracket, ``ye, yf,
    yh`` in degree -1 the shifted adjoint module, and ``d y = x``.
    Rescaling each generator by a seeded rational is a change of basis, so
    the homotopy identities hold at every arity.
    """
    labels = ["xe", "xf", "xh", "ye", "yf", "yh"]
    degrees = [0, 0, 0, -1, -1, -1]
    xe, xf, xh, ye, yf, yh = range(6)
    s = [nonzero(rng) for _ in labels]
    d = {(y,): {x: Fraction(1)} for y, x in ((ye, xe), (yf, xf), (yh, xh))}
    b2 = {
        (xe, xf): {xh: 1}, (xe, xh): {xe: -2}, (xf, xh): {xf: 2},
        (xe, yf): {yh: 1}, (xe, yh): {ye: -2}, (xf, ye): {yh: -1},
        (xf, yh): {yf: 2}, (xh, ye): {ye: 2}, (xh, yf): {yf: -2},
    }

    def rescale(table):
        out = {}
        for args, value in table.items():
            factor = Fraction(1)
            for k in args:
                factor *= s[k]
            out[args] = {r: Fraction(v) * factor / s[r] for r, v in value.items()}
        return out

    return {"labels": labels, "degrees": degrees, "ops": {1: rescale(d), 2: rescale(b2)}}


def two_loop_quiver(rng: random.Random) -> tuple[tuple[str, ...], tuple]:
    """One vertex with two loops; only the names are seeded."""
    tag = rng.choice("pqrstuvw")
    vertex = f"v{tag}"
    return (vertex,), ((f"a{tag}", vertex, vertex), (f"b{tag}", vertex, vertex))
