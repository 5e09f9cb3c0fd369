"""Brackets on free algebras with permutation-twisted symmetry bookkeeping.

The free algebra on a space ``V`` placed in degree 1 has basis words over the
``V``-basis.  A bracket is determined by its generator table
``r : V (x) V -> V (x) V``; its value on longer words is the sum over letter
pairs of the generator value tensored with the spectator letters, realigned by
the slot permutation that restores the original letter order
(:func:`ybalg.tensoralg.sigma_prime`).  Note the realignment may interleave
spectator letters *between* the two slots of a generator value.

Conventions (printed into every report):

* antisymmetry is categorical: ``{w, v} = -(21)^{|v|,|w|} {v, w}``;
* the cyclic Jacobi sum realigns each summand's blocks back to the argument
  order before adding, and carries no further signs;
* the left Leibniz rule is
  ``{u v, w} = u (x) {v, w} + (213)^{|v|,|u|,|w|} (v (x) {u, w})``.

For a space placed in degree 0 the same extension scheme is the classical
Poisson one on a polynomial algebra (all realignments become trivial);
:class:`PolynomialPoissonBracket` implements that case directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import sparse
from .sparse import ONE
from .tensoralg import (
    GradedTensor,
    TensorMap,
    Word,
    block_permutation_expand,
    sigma_prime,
    words,
)
from .ybe import cybe_residual, is_skew

CONVENTIONS: dict[str, str] = {
    "skew_twisted": "{w,v} = -(21)^{|v|,|w|} {v,w}",
    "jacobi_twisted": (
        "{u,{v,w}} + realign(231){v,{w,u}} + realign(312){w,{u,v}} = 0, "
        "realign = block permutation back to (u,v,w) slot order"
    ),
    "leibniz_twisted": "{uv,w} = u(x){v,w} + (213)^{|v|,|u|,|w|} (v(x){u,w})",
    "extension": (
        "{v1..vm, w1..wn} = sum_{i,j} realign({vi,wj} (x) spectators), "
        "realign restores original letter order and may tear the bracket value"
    ),
}


class TensorWordBracket:
    """Bracket on the free algebra determined by a generator table.

    ``r`` must be a map from the tensor square to itself.  Values are cached
    per word pair; the bracket of empty words is zero (the unit is central).
    """

    def __init__(self, r: TensorMap):
        if r.dom_deg != 2 or r.cod_deg != 2:
            raise ValueError("generator table must act on the tensor square")
        self.r = r
        self.dim = r.dim
        self._cache: dict[tuple[Word, Word], GradedTensor] = {}
        self._cache_rec: dict[tuple[Word, Word], GradedTensor] = {}

    # -- evaluation, closed form -------------------------------------------

    def extend(self, v: Word, w: Word) -> GradedTensor:
        """Closed-form multilinear extension (sum over letter pairs)."""
        v, w = tuple(v), tuple(w)
        key = (v, w)
        if key not in self._cache:
            self._cache[key] = self._extend_direct(v, w)
        return self._cache[key]

    def _extend_direct(self, v: Word, w: Word) -> GradedTensor:
        m, n = len(v), len(w)
        if m == 0 or n == 0:
            return GradedTensor.zero(self.dim)
        target = [("v", i) for i in range(m)] + [("w", j) for j in range(n)]
        total = GradedTensor.zero(self.dim)
        for i in range(m):
            for j in range(n):
                value = self.r.apply_word((v[i], w[j]))
                if value.is_zero():
                    continue
                spectators = v[:i] + v[i + 1 :] + w[:j] + w[j + 1 :]
                current = (
                    [("v", i), ("w", j)]
                    + [("v", k) for k in range(m) if k != i]
                    + [("w", l) for l in range(n) if l != j]
                )
                realign = sigma_prime(target, [(sym, 1) for sym in current])
                term = value.tensor(GradedTensor.basis(self.dim, spectators))
                total = total + term.permute(realign)
        return total

    # -- evaluation, recursive peeling route --------------------------------

    def extend_recursive(self, v: Word, w: Word) -> GradedTensor:
        """Independent evaluation route: Leibniz peeling plus antisymmetry.

        Requires no property of ``r`` to be defined, but only agrees with
        :meth:`extend` when ``r`` is skew (the swap step uses antisymmetry).
        """
        v, w = tuple(v), tuple(w)
        key = (v, w)
        if key in self._cache_rec:
            return self._cache_rec[key]
        m, n = len(v), len(w)
        if m == 0 or n == 0:
            result = GradedTensor.zero(self.dim)
        elif m == 1 and n == 1:
            result = self.r.apply_word((v[0], w[0]))
        elif m > 1:
            head, tail = v[:1], v[1:]
            term1 = GradedTensor.basis(self.dim, head).tensor(
                self.extend_recursive(tail, w)
            )
            inner = GradedTensor.basis(self.dim, tail).tensor(
                self.extend_recursive(head, w)
            )
            realign = block_permutation_expand((1, 0, 2), (len(tail), 1, n))
            result = term1 + inner.permute(realign)
        else:
            # single letter against a long word: flip with the twisted skew rule
            flipped = self.extend_recursive(w, v)
            realign = block_permutation_expand((1, 0), (n, 1))
            result = -flipped.permute(realign)
        self._cache_rec[key] = result
        return result

    # -- bilinear wrapper ----------------------------------------------------

    def bracket(
        self, x: GradedTensor | Word, y: GradedTensor | Word
    ) -> GradedTensor:
        """Bilinear extension to arbitrary (sums of) words."""
        xt = x if isinstance(x, GradedTensor) else GradedTensor.basis(self.dim, x)
        yt = y if isinstance(y, GradedTensor) else GradedTensor.basis(self.dim, y)
        total = GradedTensor.zero(self.dim)
        for wx, cx in xt.terms.items():
            for wy, cy in yt.terms.items():
                total = total + self.extend(wx, wy).scale(cx * cy)
        return total


# ---------------------------------------------------------------------------
# defects
# ---------------------------------------------------------------------------


def twisted_skew_defect(br: TensorWordBracket, v: Word, w: Word) -> GradedTensor:
    """``{w,v} + (21)^{|v|,|w|} {v,w}``; zero iff the pair is antisymmetric."""
    realign = block_permutation_expand((1, 0), (len(v), len(w)))
    return br.extend(w, v) + br.extend(v, w).permute(realign)


def twisted_jacobi_defect(
    br: TensorWordBracket, u: Word, v: Word, w: Word
) -> GradedTensor:
    """Cyclic Jacobi sum with each summand realigned to (u, v, w) slot order."""
    lu, lv, lw = len(u), len(v), len(w)
    target = ["u", "v", "w"]
    t1 = br.bracket(u, br.extend(v, w))
    t2 = br.bracket(v, br.extend(w, u)).permute(
        sigma_prime(target, [("v", lv), ("w", lw), ("u", lu)])
    )
    t3 = br.bracket(w, br.extend(u, v)).permute(
        sigma_prime(target, [("w", lw), ("u", lu), ("v", lv)])
    )
    return t1 + t2 + t3


def twisted_leibniz_defect(
    br: TensorWordBracket, u: Word, v: Word, w: Word
) -> GradedTensor:
    """Defect of the left Leibniz rule on ``{u (x) v, w}``."""
    dim = br.dim
    lhs = br.extend(u + v, w)
    term1 = GradedTensor.basis(dim, u).tensor(br.extend(v, w))
    inner = GradedTensor.basis(dim, v).tensor(br.extend(u, w))
    realign = block_permutation_expand((1, 0, 2), (len(v), len(u), len(w)))
    return lhs - term1 - inner.permute(realign)


def degree111_jacobi_map(br: TensorWordBracket) -> TensorMap:
    """The Jacobi defect on letter triples, packaged as a map on cubes.

    For any generator table this map coincides entry by entry with
    :func:`ybalg.ybe.cybe_residual` of the table when the table is skew, which
    is what ties bracket verification back to the classical equation.
    """
    entries: dict[tuple[Word, Word], Fraction] = {}
    for a, b, c in words(br.dim, 3):
        defect = twisted_jacobi_defect(br, (a,), (b,), (c,))
        for word, coeff in defect.terms.items():
            entries[(word, (a, b, c))] = coeff
    return TensorMap(br.dim, 3, 3, entries)


# ---------------------------------------------------------------------------
# whole-bracket checks
# ---------------------------------------------------------------------------


def _word_pairs(dim: int, max_total: int):
    for total in range(2, max_total + 1):
        for lv in range(1, total):
            lw = total - lv
            for v in words(dim, lv):
                for w in words(dim, lw):
                    yield v, w


def _word_triples(dim: int, max_total: int):
    for total in range(3, max_total + 1):
        for lu in range(1, total - 1):
            for lv in range(1, total - lu):
                lw = total - lu - lv
                for u in words(dim, lu):
                    for v in words(dim, lv):
                        for w in words(dim, lw):
                            yield u, v, w


@dataclass(frozen=True)
class BracketCheck:
    name: str
    passed: bool
    # first failing instance: argument words plus first nonzero term
    witness: tuple[tuple[Word, ...], Word, Fraction] | None

    def line(self) -> str:
        if self.passed:
            return f"{self.name}: PASS"
        args, word, coeff = self.witness
        arg_s = "; ".join(",".join(map(str, a)) for a in args)
        word_s = ",".join(map(str, word))
        return f"{self.name}: FAIL at args [{arg_s}] term ({word_s}) = {coeff}"


@dataclass(frozen=True)
class BracketReport:
    dim: int
    max_degree: int
    checks: tuple[BracketCheck, ...]
    conventions: tuple[tuple[str, str], ...] = field(
        default_factory=lambda: tuple(sorted(CONVENTIONS.items()))
    )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"bracket extension check, dim {self.dim}, degree <= {self.max_degree}"]
        out.extend(c.line() for c in self.checks)
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        out.extend(f"convention {k}: {v}" for k, v in self.conventions)
        return out


def _first_defect(defect_iter) -> tuple[bool, tuple | None]:
    for args, defect in defect_iter:
        if not defect.is_zero():
            word, coeff = min(
                defect.terms.items(), key=lambda kv: (len(kv[0]), kv[0])
            )
            return False, (args, word, coeff)
    return True, None


def check_bracket_extension(r: TensorMap, max_degree: int) -> BracketReport:
    """Verify antisymmetry, Jacobi, Leibniz, and route agreement up to a degree.

    All four families of identities are checked on every tuple of basis words
    whose total length is at most ``max_degree``; the report carries the first
    failing tuple for each family.
    """
    br = TensorWordBracket(r)
    dim = r.dim
    checks = []

    ok, witness = _first_defect(
        (((v, w), twisted_skew_defect(br, v, w)) for v, w in _word_pairs(dim, max_degree))
    )
    checks.append(BracketCheck("antisymmetry", ok, witness))

    ok, witness = _first_defect(
        (
            ((u, v, w), twisted_jacobi_defect(br, u, v, w))
            for u, v, w in _word_triples(dim, max_degree)
        )
    )
    checks.append(BracketCheck("jacobi", ok, witness))

    ok, witness = _first_defect(
        (
            ((u, v, w), twisted_leibniz_defect(br, u, v, w))
            for u, v, w in _word_triples(dim, max_degree)
        )
    )
    checks.append(BracketCheck("leibniz", ok, witness))

    ok, witness = _first_defect(
        (
            ((v, w), br.extend(v, w) - br.extend_recursive(v, w))
            for v, w in _word_pairs(dim, max_degree)
        )
    )
    checks.append(BracketCheck("route-agreement", ok, witness))

    return BracketReport(dim=dim, max_degree=max_degree, checks=tuple(checks))


@dataclass(frozen=True)
class RoundtripReport:
    """Object-level correspondence between generator tables and brackets."""

    dim: int
    max_degree: int
    r_is_skew: bool
    cybe_holds: bool
    bracket_report: BracketReport
    jacobi111_equals_cybe: bool
    restriction_equals_r: bool

    @property
    def passed(self) -> bool:
        forward = (not (self.r_is_skew and self.cybe_holds)) or self.bracket_report.passed
        backward = (not self.bracket_report.passed) or (self.r_is_skew and self.cybe_holds)
        return (
            forward
            and backward
            and self.jacobi111_equals_cybe
            and self.restriction_equals_r
        )

    def lines(self) -> list[str]:
        out = [f"bracket/generator-table roundtrip, dim {self.dim}"]
        out.append(f"r skew: {self.r_is_skew}")
        out.append(f"cybe residual zero: {self.cybe_holds}")
        out.append(
            f"extension passes all identities to degree {self.max_degree}: "
            f"{self.bracket_report.passed}"
        )
        out.append(f"degree-(1,1,1) jacobi map equals cybe residual: {self.jacobi111_equals_cybe}")
        out.append(f"(1,1) restriction returns the table: {self.restriction_equals_r}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out


def bracket_roundtrip(r: TensorMap, max_degree: int) -> RoundtripReport:
    br = TensorWordBracket(r)
    skew = is_skew(r)
    cybe_zero = cybe_residual(r).is_zero()
    report = check_bracket_extension(r, max_degree)
    # the identification of the letter-triple jacobi defect with the classical
    # residual is only asserted for skew tables; vacuous otherwise
    jac_matches = (not skew) or degree111_jacobi_map(br) == cybe_residual(r)
    restriction = TensorMap(
        r.dim,
        2,
        2,
        {
            (word, (a, b)): coeff
            for a, b in words(r.dim, 2)
            for word, coeff in br.extend((a,), (b,)).terms.items()
        },
    )
    return RoundtripReport(
        dim=r.dim,
        max_degree=max_degree,
        r_is_skew=skew,
        cybe_holds=cybe_zero,
        bracket_report=report,
        jacobi111_equals_cybe=jac_matches,
        restriction_equals_r=restriction == r,
    )


# ---------------------------------------------------------------------------
# the degree-0 case: classical Poisson brackets on polynomial algebras
# ---------------------------------------------------------------------------

Poly = dict[Word, Fraction]  # monomial (sorted generator tuple) -> coefficient


def _times_monomial(p: Poly, mono: Word) -> Poly:
    """``p`` times one monomial; distinct monomials stay distinct."""
    return {tuple(sorted(m + mono)): c for m, c in p.items()}


class PolynomialPoissonBracket:
    """Classical Poisson bracket on a polynomial algebra, by biderivation.

    ``table[(i, j)]`` for ``i < j`` gives ``{x_i, x_j}`` as a polynomial; the
    table is extended antisymmetrically and by the Leibniz rule in both slots.
    """

    def __init__(self, dim: int, table: dict[tuple[int, int], Poly]):
        self.dim = dim
        self.table = {
            key: sparse.vector((tuple(sorted(m)), c) for m, c in val.items())
            for key, val in table.items()
        }
        for (i, j) in self.table:
            if not 0 <= i < j < dim:
                raise ValueError("table keys must be ordered generator pairs")

    def gen_value(self, i: int, j: int) -> Poly:
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return sparse.scale(self.table.get((j, i), {}), -1)

    def extend(self, m1: Word, m2: Word) -> Poly:
        total: Poly = {}
        for a, gi in enumerate(m1):
            for b, gj in enumerate(m2):
                value = self.gen_value(gi, gj)
                if not value:
                    continue
                rest = m1[:a] + m1[a + 1 :] + m2[:b] + m2[b + 1 :]
                sparse.accumulate(total, _times_monomial(value, rest).items())
        return sparse.purge(total)

    def bracket(self, p: Poly, q: Poly) -> Poly:
        total: Poly = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                sparse.accumulate(total, self.extend(m1, m2).items(), c1 * c2)
        return sparse.purge(total)

    # defects ---------------------------------------------------------------

    def skew_defect(self, m1: Word, m2: Word) -> Poly:
        return sparse.add(self.extend(m1, m2), self.extend(m2, m1))

    def jacobi_defect(self, m1: Word, m2: Word, m3: Word) -> Poly:
        t1 = self.bracket({m1: ONE}, self.extend(m2, m3))
        t2 = self.bracket({m2: ONE}, self.extend(m3, m1))
        t3 = self.bracket({m3: ONE}, self.extend(m1, m2))
        return sparse.add(sparse.add(t1, t2), t3)

    def leibniz_defect(self, m1: Word, m2: Word, m3: Word) -> Poly:
        lhs = self.extend(m1, tuple(sorted(m2 + m3)))
        rhs = sparse.add(
            _times_monomial(self.extend(m1, m2), m3),
            _times_monomial(self.extend(m1, m3), m2),
        )
        return sparse.add(lhs, sparse.scale(rhs, -1))

    def check(self, max_degree: int) -> BracketReport:
        checks = []
        monos = lambda lo, hi: (
            m
            for length in range(lo, hi + 1)
            for m in itertools.combinations_with_replacement(range(self.dim), length)
        )

        def pairs():
            for m1 in monos(1, max_degree - 1):
                for m2 in monos(1, max_degree - len(m1)):
                    yield m1, m2

        def triples():
            for m1 in monos(1, max_degree - 2):
                for m2 in monos(1, max_degree - len(m1) - 1):
                    for m3 in monos(1, max_degree - len(m1) - len(m2)):
                        yield m1, m2, m3

        def first_poly_defect(it):
            for args, defect in it:
                if defect:
                    mono, coeff = min(
                        defect.items(), key=lambda kv: (len(kv[0]), kv[0])
                    )
                    return False, (args, mono, coeff)
            return True, None

        ok, wit = first_poly_defect(
            ((p, self.skew_defect(*p)) for p in pairs())
        )
        checks.append(BracketCheck("antisymmetry", ok, wit))
        ok, wit = first_poly_defect(
            ((t, self.jacobi_defect(*t)) for t in triples())
        )
        checks.append(BracketCheck("jacobi", ok, wit))
        ok, wit = first_poly_defect(
            ((t, self.leibniz_defect(*t)) for t in triples())
        )
        checks.append(BracketCheck("leibniz", ok, wit))
        return BracketReport(dim=self.dim, max_degree=max_degree, checks=tuple(checks))
