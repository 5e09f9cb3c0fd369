"""Brackets on free algebras with permutation-twisted symmetry bookkeeping.

The free algebra on a space ``V`` placed in degree 1 has basis words over the
``V``-basis.  A bracket is determined by its generator table
``r : V (x) V -> V (x) V``; its value on longer words is the sum over letter
pairs of the generator value tensored with the spectator letters, realigned to
the original letter order.  That realignment puts the two value slots where
the two letters stood, so the extension is slot substitution::

    {v, w} = sum_{i,j} r^{i,|v|+j}(v (x) w)
           = sum_{i,j} sum_{a,b} r(v_i w_j -> a b)
                 v[:i] a v[i+1:] w[:j] b w[j+1:]

``r`` replaces letter ``i`` of ``v`` and letter ``j`` of ``w``, and every
other letter stays where it is.  Note the spectators ``v[i+1:] w[:j]`` sit
*between* the two slots of a generator value.

Conventions (printed into every report):

* antisymmetry is categorical: ``{w, v} = -(21)^{|v|,|w|} {v, w}``;
* the cyclic Jacobi sum realigns each summand's blocks back to the argument
  order before adding, and carries no further signs;
* the left Leibniz rule is
  ``{u v, w} = u (x) {v, w} + (213)^{|v|,|u|,|w|} (v (x) {u, w})``.

Every realignment above moves whole blocks of slots, so it is applied by
cutting each word into its blocks and concatenating them in the new order
(:func:`_regroup`); no slot permutation is expanded.

:func:`check_bracket_extension` scans Jacobi on letter triples (for a skew
map, the classical residual) and what the formal audit of the map's own
symmetry, :func:`audit_extension`, leaves open: for a skew map nothing (skew
classical solutions are the twisted Poisson structures), for any map no Leibniz.

For a space placed in degree 0 the same extension scheme is the classical
Poisson one on a polynomial algebra (all realignments become trivial);
:class:`PolynomialPoissonBracket` implements that case directly.  Its
generator values come from a callable: the antisymmetric extension of a
table of ordered pairs (:meth:`PolynomialPoissonBracket.from_table`), or the
fresh-variable assignment with which :mod:`ybalg.operad`'s numeric oracle
evaluates a relation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

from . import sparse
from .algebras import first_failure
from .sparse import ONE
from .tensoralg import Tensor, TensorMap, Word, columns, words
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


def _regroup(t: Tensor, sizes: Sequence[int], order: Sequence[int]) -> Tensor:
    """``t`` with each word cut into consecutive blocks of ``sizes`` and the
    blocks concatenated in ``order`` (``order[k]`` is the source block that
    ends up k-th).  This is the action of the block permutation that sends
    block ``order[k]`` to position ``k``."""
    cuts = list(itertools.accumulate(sizes, initial=0))
    pieces = [slice(cuts[k], cuts[k + 1]) for k in order]
    return {sum([w[s] for s in pieces], ()): c for w, c in t.items()}


def _total(*parts) -> Tensor:
    """The sum of several ``(word, coeff)`` iterables, purged once."""
    total: Tensor = {}
    for terms in parts:
        sparse.accumulate(total, terms)
    return sparse.purge(total)


class TensorWordBracket:
    """Bracket on the free algebra determined by a generator table.

    ``r`` must be a map from the tensor square to itself.  Values are sparse
    vectors keyed by words, cached per word pair; the bracket of empty words
    is zero (the unit is central).
    """

    def __init__(self, r: TensorMap):
        if r.dom_deg != 2 or r.cod_deg != 2:
            raise ValueError("generator table must act on the tensor square")
        self.dim = r.dim
        # r's entries by input pair: (x, y) -> {(a, b): coeff}
        self._values = columns(r.entries)
        self._cache: dict[tuple[Word, Word], Tensor] = {}
        self._cache_rec: dict[tuple[Word, Word], Tensor] = {}

    # -- evaluation, closed form -------------------------------------------

    def extend(self, v: Word, w: Word) -> Tensor:
        """Closed-form multilinear extension (sum over letter pairs)."""
        key = (tuple(v), tuple(w))
        if key not in self._cache:
            self._cache[key] = self._extend_direct(*key)
        return self._cache[key]

    def _extend_direct(self, v: Word, w: Word) -> Tensor:
        """Slot substitution: each term ``r(v_i w_j -> a b)`` contributes
        ``v[:i] + (a,) + v[i+1:] + w[:j] + (b,) + w[j+1:]``."""
        total: Tensor = {}
        for i, x in enumerate(v):
            v_head, v_tail = v[:i], v[i + 1 :]
            for j, y in enumerate(w):
                value = self._values.get((x, y))
                if value:
                    w_head, w_tail = w[:j], w[j + 1 :]
                    sparse.accumulate(
                        total,
                        (
                            (v_head + (a,) + v_tail + w_head + (b,) + w_tail, c)
                            for (a, b), c in value.items()
                        ),
                    )
        return sparse.purge(total)

    # -- evaluation, recursive peeling route --------------------------------

    def extend_recursive(self, v: Word, w: Word) -> Tensor:
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
            result = {}
        elif m == 1 and n == 1:
            result = self._values.get((v[0], w[0]), {})
        elif m > 1:
            head, tail = v[:1], v[1:]
            # head (x) {tail, w} + (213)(tail (x) {head, w}): tail moves
            # between the two value slots of {head, w}
            result = _total(
                ((head + x, c) for x, c in self.extend_recursive(tail, w).items()),
                ((x[:1] + tail + x[1:], c) for x, c in self.extend_recursive(head, w).items()),
            )
        else:
            # single letter against a long word: flip with the twisted skew rule
            result = sparse.scale(_regroup(self.extend_recursive(w, v), (n, 1), (1, 0)), -1)
        self._cache_rec[key] = result
        return result

    # -- bilinear wrapper ----------------------------------------------------

    def bracket(self, x: Tensor, y: Tensor) -> Tensor:
        """Bilinear extension to sums of words."""
        return sparse.structure_product(x, y, self.extend)


# ---------------------------------------------------------------------------
# defects
# ---------------------------------------------------------------------------


def twisted_skew_defect(br: TensorWordBracket, v: Word, w: Word) -> Tensor:
    """``{w,v} + (21)^{|v|,|w|} {v,w}``; zero iff the pair is antisymmetric."""
    swapped = _regroup(br.extend(v, w), (len(v), len(w)), (1, 0))
    return _total(br.extend(w, v).items(), swapped.items())


def twisted_jacobi_defect(br: TensorWordBracket, u: Word, v: Word, w: Word) -> Tensor:
    """Cyclic Jacobi sum with each summand realigned to (u, v, w) slot order."""
    lu, lv, lw = len(u), len(v), len(w)
    t1 = br.bracket({u: ONE}, br.extend(v, w))
    # the blocks of {v,{w,u}} are v, w, u and those of {w,{u,v}} are w, u, v
    t2 = _regroup(br.bracket({v: ONE}, br.extend(w, u)), (lv, lw, lu), (2, 0, 1))
    t3 = _regroup(br.bracket({w: ONE}, br.extend(u, v)), (lw, lu, lv), (1, 2, 0))
    return _total(t1.items(), t2.items(), t3.items())


def twisted_leibniz_defect(br: TensorWordBracket, u: Word, v: Word, w: Word) -> Tensor:
    """Defect of the left Leibniz rule on ``{u (x) v, w}``."""
    lu = len(u)
    return _total(
        br.extend(u + v, w).items(),
        ((u + x, -c) for x, c in br.extend(v, w).items()),
        # (213)^{|v|,|u|,|w|} (v (x) {u, w}): v moves between u's and w's slots
        ((x[:lu] + v + x[lu:], -c) for x, c in br.extend(u, w).items()),
    )


def degree111_jacobi_map(br: TensorWordBracket) -> TensorMap:
    """The Jacobi defect on letter triples, packaged as a map on cubes.

    For any generator table this map coincides entry by entry with
    :func:`ybalg.ybe.cybe_residual` of the table when the table is skew, which
    is what ties bracket verification back to the classical equation.
    """
    entries: dict[tuple[Word, Word], Fraction] = {}
    for a, b, c in words(br.dim, 3):
        defect = twisted_jacobi_defect(br, (a,), (b,), (c,))
        for word, coeff in defect.items():
            entries[(word, (a, b, c))] = coeff
    return TensorMap(br.dim, 3, 3, entries)


# ---------------------------------------------------------------------------
# whole-bracket checks
# ---------------------------------------------------------------------------


def _word_tuples(dim: int, arity: int, max_total: int, patterns=None):
    """Tuples of ``arity`` nonempty words of total length at most
    ``max_total``: by total length, then by the tuple of lengths, then by
    the words.  With ``patterns``, only the tuples of those lengths."""
    for total in range(arity, max_total + 1):
        for lengths in itertools.product(range(1, total), repeat=arity):
            if sum(lengths) == total and (patterns is None or lengths in patterns):
                yield from itertools.product(*(words(dim, n) for n in lengths))


class BracketCheck(NamedTuple):
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


class BracketReport(NamedTuple):
    dim: int
    max_degree: int
    checks: tuple[BracketCheck, ...]
    conventions: tuple[tuple[str, str], ...] = tuple(sorted(CONVENTIONS.items()))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"bracket extension check, dim {self.dim}, degree <= {self.max_degree}"]
        out.extend(c.line() for c in self.checks)
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        out.extend(f"convention {k}: {v}" for k, v in self.conventions)
        return out


def _check(name: str, arg_tuples, defect) -> BracketCheck:
    """The first argument tuple on which ``defect`` (returning a vector) is
    nonzero, with the shortest, then least, word of its value."""
    args, terms, _ = first_failure(arg_tuples, defect)
    if args is None:
        return BracketCheck(name, True, None)
    word, coeff = min(terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return BracketCheck(name, False, (args, word, coeff))


def check_bracket_extension(r: TensorMap, max_degree: int) -> BracketReport:
    """Verify antisymmetry, Jacobi, Leibniz, and route agreement up to a degree.

    The report carries each family's first failing tuple of basis words of
    total length at most ``max_degree``.  Only the length patterns that
    :func:`audit_extension` leaves open for the map's symmetry are scanned,
    plus Jacobi's letter triples; these come first, so each witness is the
    full scan's.
    """
    literal = audit_extension(max_degree, is_skew(r))
    literal["jacobi"].add((1, 1, 1))
    return _families(r, max_degree, literal)


def _families(r: TensorMap, max_degree: int, literal=None) -> BracketReport:
    """The four families on every tuple of basis words of total length at most
    ``max_degree``, or on those of the length patterns ``literal[family]``."""
    br = TensorWordBracket(r)
    tuples = lambda name, arity: _word_tuples(r.dim, arity, max_degree, (literal or {}).get(name))
    checks = (
        _check("antisymmetry", tuples("antisymmetry", 2), partial(twisted_skew_defect, br)),
        _check("jacobi", tuples("jacobi", 3), partial(twisted_jacobi_defect, br)),
        _check("leibniz", tuples("leibniz", 3), partial(twisted_leibniz_defect, br)),
        _check(
            "route-agreement",
            tuples("route-agreement", 2),
            lambda v, w: sparse.add(br.extend(v, w), sparse.scale(br.extend_recursive(v, w), -1)),
        ),
    )
    return BracketReport(dim=r.dim, max_degree=max_degree, checks=checks)


class _FormalBracket(TensorWordBracket):
    """The extension of an uninterpreted table, which it serves as itself: its
    value at ``x, y`` is the word of fresh atoms ``(1, x, y) (2, x, y)``, but with
    ``skew`` the one at ``y, x`` for ``x < y`` is minus the flip of that at ``x, y``."""

    def __init__(self, skew: bool):
        self.skew, self._values, self._cache, self._cache_rec = skew, self, {}, {}

    def get(self, pair, default=None) -> Tensor:
        x, y = pair
        if self.skew and y < x:
            return {((2, y, x), (1, y, x)): -ONE}
        return {((1, x, y), (2, x, y)): ONE}


def _letterwise_jacobi(br: TensorWordBracket, u: Word, v: Word, w: Word) -> Tensor:
    """The letter triples' Jacobi defects, each put in place of its (distinct) letters."""
    total: Tensor = {}
    for a, b, c in itertools.product(u, v, w):
        defect = twisted_jacobi_defect(br, (a,), (b,), (c,))
        sparse.accumulate(total, (
            (tuple({a: x, b: y, c: z}.get(t, t) for t in u + v + w), coeff)
            for (x, y, z), coeff in defect.items()
        ))
    return sparse.purge(total)


def audit_extension(max_degree: int, skew: bool) -> dict[str, set[tuple[int, ...]]]:
    """The length patterns, per family, on which the formal audit fails.

    A pattern's words are distinct atoms ``(0, k)`` of a :class:`_FormalBracket`,
    which any table (skew with ``skew``), dim and letters specialize.  Leibniz
    (for a table that need not be skew) and antisymmetry must vanish, the
    routes agree, and Jacobi equal :func:`_letterwise_jacobi`'s sum.
    """
    br, free = _FormalBracket(skew), _FormalBracket(False)
    identities = {
        "antisymmetry": (2, lambda v, w: not twisted_skew_defect(br, v, w)),
        "jacobi": (3, lambda *uvw: twisted_jacobi_defect(br, *uvw) == _letterwise_jacobi(br, *uvw)),
        "leibniz": (3, lambda u, v, w: not twisted_leibniz_defect(free, u, v, w)),
        "route-agreement": (2, lambda v, w: br.extend(v, w) == br.extend_recursive(v, w)),
    }
    failed = {name: set() for name in identities}
    for name, (arity, holds) in identities.items():
        # one tuple of words per length pattern, its letters then made distinct
        for pattern in _word_tuples(1, arity, max_degree):
            letters = iter((0, k) for k in itertools.count())
            if not holds(*(tuple(next(letters) for _ in word) for word in pattern)):
                failed[name].add(tuple(map(len, pattern)))
    return failed


class RoundtripReport(NamedTuple):
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
        # the theorem: the extension passes exactly for skew solutions
        theorem = (self.r_is_skew and self.cybe_holds) == self.bracket_report.passed
        return theorem and self.jacobi111_equals_cybe and self.restriction_equals_r

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
    cybe = cybe_residual(r)
    report = check_bracket_extension(r, max_degree)
    # the identification of the letter-triple jacobi defect with the classical
    # residual is only asserted for skew tables; vacuous otherwise
    jac_matches = (not skew) or degree111_jacobi_map(br) == cybe
    restriction = all(br.extend((a,), (b,)) == r.apply_word((a, b)) for a, b in words(r.dim, 2))
    return RoundtripReport(
        dim=r.dim,
        max_degree=max_degree,
        r_is_skew=skew,
        cybe_holds=cybe.is_zero(),
        bracket_report=report,
        jacobi111_equals_cybe=jac_matches,
        restriction_equals_r=restriction,
    )


# ---------------------------------------------------------------------------
# the degree-0 case: classical Poisson brackets on polynomial algebras
# ---------------------------------------------------------------------------

Poly = dict[tuple, Fraction]  # monomial (sorted generator tuple) -> coefficient


def poly_mul(p: Poly, q: Poly) -> Poly:
    """Product of polynomials: monomials concatenate and re-sort."""
    return sparse.product(p, q, lambda m1, m2: tuple(sorted(m1 + m2)))


class PolynomialPoissonBracket:
    """Bracket on a polynomial algebra, a derivation in each argument.

    ``gen(a, b)`` gives the bracket of two generators as a polynomial.
    Generators are any mutually comparable values and a monomial is the
    sorted tuple of its generators, repeats included.  The bracket extends
    ``gen`` by the Leibniz rule in both slots (a repeated generator
    contributes once per occurrence) and to polynomials by bilinearity.
    :meth:`check` enumerates the monomials in the generators
    ``0 .. dim-1``.
    """

    def __init__(self, gen: Callable[[Any, Any], Poly], dim: int = 0):
        self.gen = gen
        self.dim = dim

    @classmethod
    def from_table(
        cls, dim: int, table: dict[tuple[int, int], Poly]
    ) -> "PolynomialPoissonBracket":
        """``table[(i, j)]`` for ``i < j`` gives ``{x_i, x_j}``; the generator
        values are its antisymmetric extension."""
        table = {
            key: sparse.vector((tuple(sorted(m)), c) for m, c in val.items())
            for key, val in table.items()
        }
        for (i, j) in table:
            if not 0 <= i < j < dim:
                raise ValueError("table keys must be ordered generator pairs")

        def gen(i: int, j: int) -> Poly:
            if i < j:
                return table.get((i, j), {})
            if i > j:
                return sparse.scale(table.get((j, i), {}), -1)
            return {}

        return cls(gen, dim)

    def extend(self, m1: tuple, m2: tuple) -> Poly:
        """The bracket of two monomials."""
        total: Poly = {}
        for a, gi in enumerate(m1):
            for b, gj in enumerate(m2):
                value = self.gen(gi, gj)
                if not value:
                    continue
                rest = m1[:a] + m1[a + 1 :] + m2[:b] + m2[b + 1 :]
                sparse.accumulate(total, ((tuple(sorted(m + rest)), c) for m, c in value.items()))
        return sparse.purge(total)

    def bracket(self, p: Poly, q: Poly) -> Poly:
        return sparse.structure_product(p, q, self.extend)

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
            poly_mul(self.extend(m1, m2), {m3: ONE}),
            poly_mul(self.extend(m1, m3), {m2: ONE}),
        )
        return sparse.add(lhs, sparse.scale(rhs, -1))

    def check(self, max_degree: int) -> BracketReport:
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

        checks = (
            _check("antisymmetry", pairs(), self.skew_defect),
            _check("jacobi", triples(), self.jacobi_defect),
            _check("leibniz", triples(), self.leibniz_defect),
        )
        return BracketReport(dim=self.dim, max_degree=max_degree, checks=checks)
