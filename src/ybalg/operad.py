"""Classification of quadratic relations compatible with biderivation extension.

A binary operation ``*`` on a commutative algebra that is a derivation in
both arguments (the generalized Leibniz rule)

    (uv)*w = u(v*w) + v(u*w)        u*(vw) = v(u*w) + w(u*v)

does not extend along an arbitrary quadratic relation: substituting a product
into one slot of the relation produces cross terms ``(x*y)(z*w)`` that must
cancel identically.  This module expands the substitution symbolically on
the package's one formal Leibniz engine, the extension of uninterpreted
brackets in :mod:`ybalg.linfty` with ``*`` as its binary bracket, extracts
the exact linear constraints on the relation coefficients, computes the
admissible relation space, and names the resulting operads.  An independent
numeric oracle re-derives every verdict on genuine polynomial algebras,
bypassing the engine entirely: the operation is the polynomial bracket of
:class:`ybalg.twisted.PolynomialPoissonBracket`, the same biderivation that
carries the degree-0 Poisson checks, with a fresh variable as its value on
each pair of variables.

Relation coordinates: a quadratic relation in arguments ``b1, b2, b3`` is

    sum over sigma in S3, shape in {1, 2} of lambda[sigma, shape] * term

with shape 1 = ``b_{s(1)} * (b_{s(2)} * b_{s(3)})`` (right-nested) and
shape 2 = ``(b_{s(1)} * b_{s(2)}) * b_{s(3)}`` (left-nested).  Under a
declared symmetry ``x*y = eps y*x`` the left-nested shapes collapse and the
three-term cyclic basis

    lambda1 b1*(b2*b3) + lambda2 b2*(b3*b1) + lambda3 b3*(b1*b2)

is used instead.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import sparse
from .linalg import nullspace, rref
from .linfty import ExtendedFamily, FormalBrackets, SuperSymAlgebra
from .sparse import ONE, ZERO, frac
from .tensoralg import perm_str
from .twisted import Poly, PolynomialPoissonBracket, poly_mul

# ---------------------------------------------------------------------------
# formal trees and Leibniz normal form
# ---------------------------------------------------------------------------

# a tree is a leaf (string) or ('s'|'p', left, right)


def star(left, right) -> tuple:
    return ("s", left, right)


def prod(left, right) -> tuple:
    return ("p", left, right)


def _atom_str(atom) -> str:
    if atom[0] == 0:
        return atom[1]
    return "(" + "*".join(map(_atom_str, atom[2])) + ")"


def monomial_str(monomial: tuple) -> str:
    return ".".join(_atom_str(a) for a in monomial)


def _extension(sym: str) -> ExtendedFamily:
    """``*`` on a commutative algebra in degree 0; ``x*y = eps y*x`` makes the
    arguments anticommute (eps = -1), commute (eps = 1) or keep their order."""
    eps = SYMMETRY_EPSILON[sym]
    odd = None if eps is None else (lambda _: eps < 0)
    return ExtendedFamily(FormalBrackets(odd), SuperSymAlgebra(lambda _: 0))


def _expand(tree, ext: ExtendedFamily) -> dict[tuple, Fraction]:
    """Normal form of a tree on distinct leaves: a sum of commutative
    monomials in the leaves and the atomic stars."""
    if isinstance(tree, str):
        return {((0, tree, 0),): ONE}
    kind, left, right = tree
    lx, rx = _expand(left, ext), _expand(right, ext)
    if kind == "p":
        return ext.algebra.mul(lx, rx)
    return sparse.structure_product(lx, rx, lambda ml, mr: ext.value(2, (ml, mr)))


# ---------------------------------------------------------------------------
# relation bases
# ---------------------------------------------------------------------------


class RelationTerm(NamedTuple):
    label: str
    build: Callable  # (b1, b2, b3) -> tree


def general_basis() -> list[RelationTerm]:
    """The 12 terms (sigma in S3) x (right-nested, left-nested)."""
    terms = []
    for sigma in itertools.permutations((0, 1, 2)):
        i, j, k = sigma

        def right_nested(b1, b2, b3, _s=(i, j, k)):
            bs = (b1, b2, b3)
            return star(bs[_s[0]], star(bs[_s[1]], bs[_s[2]]))

        def left_nested(b1, b2, b3, _s=(i, j, k)):
            bs = (b1, b2, b3)
            return star(star(bs[_s[0]], bs[_s[1]]), bs[_s[2]])

        name = perm_str(sigma)
        terms.append(
            RelationTerm(f"b{i+1}*(b{j+1}*b{k+1}) [sigma={name}]", right_nested)
        )
        terms.append(
            RelationTerm(f"(b{i+1}*b{j+1})*b{k+1} [sigma={name}]", left_nested)
        )
    return terms


def cyclic_basis() -> list[RelationTerm]:
    """Three-term cyclic basis used once a symmetry is declared."""
    return [
        RelationTerm("b1*(b2*b3)", lambda b1, b2, b3: star(b1, star(b2, b3))),
        RelationTerm("b2*(b3*b1)", lambda b1, b2, b3: star(b2, star(b3, b1))),
        RelationTerm("b3*(b1*b2)", lambda b1, b2, b3: star(b3, star(b1, b2))),
    ]


SYMMETRY_EPSILON: dict[str, Fraction | None] = {
    "none": None,
    "symmetric": frac(1),
    "skew": frac(-1),
}


def relation_basis(sym: str) -> list[RelationTerm]:
    if sym not in SYMMETRY_EPSILON:
        raise ValueError(f"symmetry must be one of {sorted(SYMMETRY_EPSILON)}")
    return general_basis() if sym == "none" else cyclic_basis()


# ---------------------------------------------------------------------------
# obstruction systems
# ---------------------------------------------------------------------------


class Constraint(NamedTuple):
    slot: int
    monomial: tuple  # the cross-term monomial whose coefficient must vanish
    row: tuple[Fraction, ...]

    def pretty(self, basis: list[RelationTerm]) -> str:
        parts = []
        for coeff, term in zip(self.row, basis):
            if not coeff:
                continue
            sign = "+" if coeff > 0 else "-"
            mag = abs(coeff)
            scale = "" if mag == 1 else f"{mag}*"
            parts.append(f"{sign} {scale}lam[{term.label}]")
        lhs = " ".join(parts) if parts else "0"
        return f"slot {self.slot}, coefficient of {monomial_str(self.monomial)}: {lhs} = 0"


class ObstructionSystem(NamedTuple):
    sym: str
    constraints: tuple[Constraint, ...]
    nullspace_basis: tuple[tuple[Fraction, ...], ...]

    @property
    def nullspace_dim(self) -> int:
        return len(self.nullspace_basis)

    def unique_rows(self) -> list[tuple[Fraction, ...]]:
        seen = []
        for c in self.constraints:
            row = _normalize_row(c.row)
            if row and row not in seen:
                seen.append(row)
        return seen

    def violated_by(self, coeffs) -> list[tuple[Constraint, Fraction]]:
        out = []
        for c in self.constraints:
            value = sum((r * x for r, x in zip(c.row, coeffs)), ZERO)
            if value:
                out.append((c, value))
        return out


def _normalize_row(row) -> tuple[Fraction, ...] | None:
    lead = next((x for x in row if x), None)
    if lead is None:
        return None
    return tuple(Fraction(x) / lead for x in row)


def leibniz_obstruction(sym: str, slot: int) -> ObstructionSystem:
    """Constraints from substituting a product into one slot of the relation.

    Expands ``rel(..., b'b'', ...)`` minus the outer-multiple form
    ``b' rel(..., b'', ...) + b'' rel(..., b', ...)`` and equates the
    coefficient of every residual monomial to zero.  Only cross-term
    monomials ``(x*y).(z*w)`` survive the subtraction.
    """
    if slot not in (1, 2, 3):
        raise ValueError("slot must be 1, 2 or 3")
    return _system(sym, (slot,))


def full_constraint_system(sym: str) -> ObstructionSystem:
    """Union of the slot-1, slot-2 and slot-3 obstruction systems."""
    return _system(sym, (1, 2, 3))


def _system(sym: str, slots) -> ObstructionSystem:
    basis = relation_basis(sym)
    ext = _extension(sym)
    constraints: list[Constraint] = []
    rows: list[dict[int, Fraction]] = []
    for slot in slots:
        prime, dprime = f"b{slot}'", f"b{slot}''"

        def build(term, leaf):
            return term.build(*(leaf if k == slot else f"b{k}" for k in (1, 2, 3)))

        # one constraint row per residual monomial, one column per basis term
        row_of: dict[tuple, dict[int, Fraction]] = {}
        for col, term in enumerate(basis):
            defect = _expand(build(term, prod(prime, dprime)), ext)
            for outer, leaf in ((prime, dprime), (dprime, prime)):
                rhs = _expand(prod(outer, build(term, leaf)), ext)
                sparse.accumulate(defect, rhs.items(), -1)
            for mono, coeff in sparse.purge(defect).items():
                row_of.setdefault(mono, {})[col] = coeff
        for mono in sorted(row_of):
            rows.append(row_of[mono])
            row = tuple(row_of[mono].get(col, ZERO) for col in range(len(basis)))
            constraints.append(Constraint(slot, mono, row))
    basis_vecs = nullspace(rows, len(basis))
    return ObstructionSystem(sym, tuple(constraints), tuple(map(tuple, basis_vecs)))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class ClassificationResult(NamedTuple):
    sym: str
    verdict: str  # operad name or "not distributive"
    relation_dim: int
    violated: tuple[tuple[Constraint, Fraction], ...]

    def lines(self, basis: list[RelationTerm]) -> list[str]:
        out = [f"symmetry: {self.sym}", f"relation space dimension: {self.relation_dim}"]
        if self.verdict == "not distributive":
            out.append("verdict: not distributive")
            for constraint, value in self.violated:
                out.append(f"violated: {constraint.pretty(basis)}  [evaluates to {value}]")
        else:
            out.append(f"verdict: operad of {self.verdict}")
        return out


def classify(system: ObstructionSystem, r3_vectors: list) -> ClassificationResult:
    """Name the operad presented by (symmetry choice, quadratic relations).

    ``system`` is :func:`full_constraint_system` of the symmetry choice and
    ``r3_vectors`` spans the imposed degree-3 relations in the coordinates of
    ``relation_basis(system.sym)``.  Vectors outside the admissible nullspace
    yield "not distributive" with the violated constraints as witnesses.
    """
    sym = system.sym
    violated: list[tuple[Constraint, Fraction]] = []
    for vec in r3_vectors:
        violated.extend(system.violated_by(vec))
    if violated:
        return ClassificationResult(sym, "not distributive", _span_dim(r3_vectors), tuple(violated))

    dim = _span_dim(r3_vectors)
    if sym == "none":
        verdict = "magmas" if dim == 0 else "Lie-admissible algebras"
    elif sym == "symmetric":
        verdict = "symmetric magmas"  # nullspace is {0}: dim is forcibly 0
    else:
        verdict = "skew magmas" if dim == 0 else "Lie algebras"
    return ClassificationResult(sym, verdict, dim, ())


def _span_dim(vectors) -> int:
    vecs = [list(v) for v in vectors if any(v)]
    if not vecs:
        return 0
    return rref(vecs, len(vecs[0])).rank


def lie_admissible_vector() -> list[Fraction]:
    """The generator of the admissible line in the 12-term basis."""
    from .tensoralg import perm_sign

    vec = []
    for sigma in itertools.permutations((0, 1, 2)):
        sgn = frac(perm_sign(sigma))
        vec.extend([-sgn, sgn])  # right-nested then left-nested
    return vec


def associativity_vector() -> list[Fraction]:
    """b1*(b2*b3) - (b1*b2)*b3 in the 12-term basis."""
    vec = [ZERO] * 12
    vec[0] = ONE  # identity permutation, right-nested
    vec[1] = -ONE  # identity permutation, left-nested
    return vec


def jacobi_vector() -> list[Fraction]:
    return [ONE, ONE, ONE]


# ---------------------------------------------------------------------------
# numeric oracle: the operation as a polynomial Poisson bracket
# ---------------------------------------------------------------------------


def poly_var(name: str) -> Poly:
    return {(name,): ONE}


def eval_tree(tree, env: dict[str, Poly], op: PolynomialPoissonBracket) -> Poly:
    if isinstance(tree, str):
        return env[tree]
    kind, left, right = tree
    lv = eval_tree(left, env, op)
    rv = eval_tree(right, env, op)
    return poly_mul(lv, rv) if kind == "p" else op.bracket(lv, rv)


def generic_assignment(sym: str) -> PolynomialPoissonBracket:
    """A faithful instantiation: each variable pair gets a fresh variable.

    Values of the operation on base variables are fresh symbols (with the
    declared symmetry), and pairs involving fresh symbols get further fresh
    symbols.  Distinct cross terms then land on distinct monomials, so the
    numeric defect vanishes iff the symbolic constraints are satisfied.
    """
    eps = SYMMETRY_EPSILON[sym]

    def gen(a: str, b: str) -> Poly:
        if eps is not None and a > b:
            return sparse.scale(gen(b, a), eps)
        return poly_var(f"<{a}|{b}>")

    return PolynomialPoissonBracket(gen)


def relation_value(coeffs, basis, env, op: PolynomialPoissonBracket) -> Poly:
    total: Poly = {}
    for coeff, term in zip(coeffs, basis):
        if coeff:
            value = eval_tree(term.build("b1", "b2", "b3"), env, op)
            sparse.accumulate(total, value.items(), frac(coeff))
    return sparse.purge(total)


def symbolic_expand_oracle(coeffs, sym: str) -> bool:
    """Numerically confirm (or refute) compatibility of a relation.

    Substitutes a product of two fresh variables into each slot in turn and
    compares against the outer-multiple form, with the operation realized
    concretely on polynomials by :func:`generic_assignment`.  The verdict
    agrees exactly with the linear constraint system.
    """
    basis = relation_basis(sym)
    op = generic_assignment(sym)
    base_env = {"b1": poly_var("u1"), "b2": poly_var("u2"), "b3": poly_var("u3")}
    for slot in (1, 2, 3):
        name = f"b{slot}"
        p, q = poly_var(f"v{slot}"), poly_var(f"w{slot}")
        env_split = dict(base_env)
        env_split[name] = poly_mul(p, q)
        lhs = relation_value(coeffs, basis, env_split, op)
        env_p = dict(base_env)
        env_p[name] = q
        env_q = dict(base_env)
        env_q[name] = p
        rhs = sparse.add(
            poly_mul(p, relation_value(coeffs, basis, env_p, op)),
            poly_mul(q, relation_value(coeffs, basis, env_q, op)),
        )
        if lhs != rhs:
            return False
    return True


def random_relation(sym: str, rng: random.Random, lo: int = -3, hi: int = 3):
    n = len(relation_basis(sym))
    return [frac(rng.randint(lo, hi)) for _ in range(n)]


def oracle_agreement_trial(sym: str, rng: random.Random, count: int = 50) -> int:
    """Compare the linear-system verdict against the numeric oracle on random
    relations; returns the number of agreements (should equal ``count``)."""
    system = full_constraint_system(sym)
    agreements = 0
    for _ in range(count):
        coeffs = random_relation(sym, rng)
        linear_ok = not system.violated_by(coeffs)
        numeric_ok = symbolic_expand_oracle(coeffs, sym)
        agreements += linear_ok == numeric_ok
    return agreements
