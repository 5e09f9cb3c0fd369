"""Residual tables and their quadratic forms on the skew-orbit basis, against literal
compose chains that do not go through the table evaluator."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ybalg import double, ybe
from ybalg.double import JACOBI_PRODUCTS, TRANSFORM_PRODUCTS, one_variable_lambda_bracket
from ybalg.fixtures import (
    SkewOrbitForm,
    orbit_grid,
    orbit_values,
    search_skew_solutions,
    skew_entry_orbits,
    skew_map_from_orbit_values,
)
from ybalg.harness import Job, JobSpec, run_suite
from ybalg.tensoralg import TensorMap, embed_components, words
from ybalg.ybe import PRODUCTS, is_skew, table_residuals

# the literal residuals: hand-written compose chains of the slot embeddings


def commutator(f: TensorMap, g: TensorMap) -> TensorMap:
    return f.compose(g) - g.compose(f)


def _components(r: TensorMap) -> tuple[TensorMap, TensorMap, TensorMap]:
    """``(r12, r13, r23)``."""
    return tuple(embed_components(r, slots, 3) for slots in ((1, 2), (1, 3), (2, 3)))


def literal_cybe(r: TensorMap) -> TensorMap:
    r12, r13, r23 = _components(r)
    return commutator(r12, r13) - commutator(r23, r12) + commutator(r13, r23)


def literal_aybe(r: TensorMap) -> TensorMap:
    r12, r13, r23 = _components(r)
    return r12.compose(r13) - r23.compose(r12) + r13.compose(r23)


def literal_aybe_prime(r: TensorMap) -> TensorMap:
    r12, r13, r23 = _components(r)
    return r13.compose(r12) - r12.compose(r23) + r23.compose(r13)


def literal_cae(r: TensorMap) -> TensorMap:
    r12, r13, r23 = _components(r)
    p = r12.compose(r13), r23.compose(r12), r13.compose(r23)
    q = r13.compose(r12), r12.compose(r23), r23.compose(r13)
    cybe = (p[0] - q[0]) - (p[1] - q[1]) + (p[2] - q[2])
    a = p[0] - p[1] + p[2]
    return cybe - (a - a.conjugate_by_perm((0, 2, 1)))


def literal_double_jacobi(r: TensorMap) -> TensorMap:
    """``r12 r23 + r23 r31 + r31 r12`` as a map on cubes."""
    r12 = embed_components(r, (1, 2), 3)
    r23 = embed_components(r, (2, 3), 3)
    r31 = embed_components(r, (3, 1), 3)
    return r12.compose(r23) + r23.compose(r31) + r31.compose(r12)


def literal_transform_difference(r: TensorMap) -> TensorMap:
    """The negated (321)-conjugate of the double-Jacobi residual minus ``aybe(r)``."""
    transformed = -literal_double_jacobi(r).conjugate_by_perm((2, 1, 0))
    return transformed - literal_aybe(r)


def literal_qybe(big_r: TensorMap) -> TensorMap:
    r12, r13, r23 = _components(big_r)
    return r12.compose(r13).compose(r23) - r23.compose(r13).compose(r12)


def literal_unitarity(big_r: TensorMap) -> TensorMap:
    return big_r.r21().compose(big_r) - TensorMap.identity(big_r.dim, 2)


def literal_skew(r: TensorMap) -> TensorMap:
    return r + r.r21()


#: the residuals that are not quadratic tables: name -> (residual, literal chain)
CHAINED = {
    "qybe": (ybe.qybe_residual, literal_qybe),
    "unitarity": (ybe.unitarity_defect, literal_unitarity),
    "skew": (ybe.skew_defect, literal_skew),
}

#: name -> (table of products, literal residual)
RESIDUALS = {
    "cybe": (PRODUCTS["cybe"], literal_cybe),
    "aybe": (PRODUCTS["aybe"], literal_aybe),
    "aybe-prime": (PRODUCTS["aybe-prime"], literal_aybe_prime),
    "cae": (PRODUCTS["cae"], literal_cae),
    "double-jacobi": (JACOBI_PRODUCTS, literal_double_jacobi),
    "transform-difference": (TRANSFORM_PRODUCTS, literal_transform_difference),
}

#: the named residual functions, each one evaluation of its table
NAMED = {
    "cybe": ybe.cybe_residual,
    "aybe": ybe.aybe_residual,
    "aybe-prime": ybe.aybe_prime_residual,
    "cae": ybe.cae_defect,
    "double-jacobi": double.double_jacobi_residual_map,
}


@functools.cache
def form(name, dim):
    return SkewOrbitForm(RESIDUALS[name][0], dim)


@functools.cache
def literal_form(name, dim):
    """The nonzero ``D_k`` and ``P_kl`` from literal residual evaluations.

    ``D_k = R(S_k)`` and ``P_kl = R(S_k + S_l) - D_k - D_l``: the reference
    build, ``1 + n(n+1)/2`` evaluations for ``n`` orbits.
    """
    residual = RESIDUALS[name][1]
    n = len(skew_entry_orbits(dim)[0])

    def at(*ks):
        return residual(skew_map_from_orbit_values(dim, [1 if j in ks else 0 for j in range(n)]))

    zero = at()
    assert (zero.dom_deg, zero.cod_deg) == (3, 3) and zero.is_zero()
    diag = [at(k) for k in range(n)]
    terms = {(k, k): d.entries for k, d in enumerate(diag) if not d.is_zero()}
    for k, l in itertools.combinations(range(n), 2):
        cross = at(k, l) - diag[k] - diag[l]
        if not cross.is_zero():
            terms[(k, l)] = cross.entries
    return terms


def table_value(products, r):
    """``sum coeff * P (r^left o r^right) P^-1`` evaluated on one map."""
    total = TensorMap.zero(r.dim, 3, 3)
    for coeff, left, right, perm in products:
        product = embed_components(r, left, 3).compose(embed_components(r, right, 3))
        total = total + product.conjugate_by_perm(perm).scale(coeff)
    return total


def assert_same_map(got, want):
    assert (got.dim, got.dom_deg, got.cod_deg) == (want.dim, want.dom_deg, want.cod_deg)
    assert got.entries == want.entries
    # the same canonical scalar types too, not only equal values
    assert sorted(map(repr, got.entries.items())) == sorted(map(repr, want.entries.items()))
    assert got.first_nonzero() == want.first_nonzero()


@st.composite
def rational_maps(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    positions = [(o, i) for o in words(dim, 2) for i in words(dim, 2)]
    chosen = draw(st.lists(st.sampled_from(positions), max_size=10, unique=True))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    r = TensorMap(dim, 2, 2, {pos: draw(value) for pos in chosen})
    return r - r.r21() if draw(st.booleans()) else r


@settings(max_examples=80, deadline=None)
@given(rational_maps(), st.sampled_from(sorted(RESIDUALS)))
def test_every_table_is_its_literal_residual(r, name):
    products, residual = RESIDUALS[name]
    literal = residual(r)
    assert_same_map(table_value(products, r), literal)
    # the evaluator, on its own and with all six tables in one call
    assert_same_map(table_residuals(r, products)[0], literal)
    every = table_residuals(r, *(table for table, _ in RESIDUALS.values()))
    assert_same_map(every[list(RESIDUALS).index(name)], literal)
    if name in NAMED:
        assert_same_map(NAMED[name](r), literal)


@settings(max_examples=80, deadline=None)
@given(rational_maps(), st.sampled_from(sorted(CHAINED)))
def test_every_chain_is_its_literal_residual(r, name):
    # a diagonal map would leave the chains' slot order untested
    assume(any(o != i for o, i in r.entries))
    residual, literal = CHAINED[name]
    assert_same_map(residual(r), literal(r))
    assert is_skew(r) == literal_skew(r).is_zero()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(RESIDUALS))
def test_table_build_equals_the_literal_build(name, dim):
    built = {(k, l): entries for k, l, entries in form(name, dim).terms}
    assert len(built) == len(form(name, dim).terms)
    assert built == literal_form(name, dim)
    for key, entries in built.items():
        assert sorted(map(repr, entries.items())) == sorted(
            map(repr, literal_form(name, dim)[key].items())
        )
    n = len(skew_entry_orbits(dim)[0])
    assert_same_map(form(name, dim)([0] * n), TensorMap.zero(dim, 3, 3))


@pytest.mark.parametrize("name", sorted(RESIDUALS))
def test_form_matches_the_literal_residual_on_the_dim2_grid(name):
    count = 0
    nonzero = 0
    for values in orbit_grid(2):
        r = skew_map_from_orbit_values(2, values)
        literal = RESIDUALS[name][1](r)
        assert_same_map(form(name, 2)(values), literal)
        # the echelon verdict against the built residual
        assert form(name, 2).vanishes(values) == form(name, 2)(values).is_zero()
        count += 1
        nonzero += not literal.is_zero()
    assert count == 729
    if name in ("cae", "transform-difference"):
        # both vanish on every skew map: the identities the suite checks
        assert nonzero == 0
    else:
        # the comparison is not vacuous: most grid maps leave a residual,
        # and the solutions are the grid searches' counts
        assert 729 - nonzero == {"cybe": 47}.get(name, 17)


def test_echelon_rows_are_primitive_integer_triples():
    sizes = {name: len(form(name, 2).echelon) for name in RESIDUALS}
    assert sizes == {
        "cybe": 4, "aybe": 10, "aybe-prime": 10, "cae": 0,
        "double-jacobi": 10, "transform-difference": 0,
    }
    for name in RESIDUALS:
        for dim in (1, 2, 3):
            pairs = {(k, l) for k, l, _ in form(name, dim).terms}
            for row in form(name, dim).echelon:
                assert row and all(type(c) is int and c for _, _, c in row)
                assert math.gcd(*(c for _, _, c in row)) == 1
                assert {(k, l) for k, l, _ in row} <= pairs


@st.composite
def rational_skew_maps(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    n = len(skew_entry_orbits(dim)[0])
    value = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    values = draw(st.lists(st.one_of(st.just(Fraction(0)), value), min_size=n, max_size=n))
    return skew_map_from_orbit_values(dim, values)


@st.composite
def scaled_grid_solutions(draw):
    """A grid solution of one residual times a fraction: still a solution."""
    name = draw(st.sampled_from(["cybe", "aybe"]))
    solutions, _ = search_skew_solutions(name, 2)
    r = draw(st.sampled_from(solutions))
    scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
    return r.scale(scale)


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_skew_maps(), scaled_grid_solutions()), st.sampled_from(sorted(RESIDUALS)))
def test_form_matches_the_literal_residual_on_rational_skew_maps(r, name):
    assert is_skew(r)
    values = orbit_values(r)
    assert skew_map_from_orbit_values(r.dim, values) == r
    assert_same_map(form(name, r.dim)(values), RESIDUALS[name][1](r))
    # the echelon verdict against the built residual
    assert form(name, r.dim).vanishes(values) == form(name, r.dim)(values).is_zero()


def test_grid_checks_never_build_a_residual(monkeypatch):
    def refuse(self, values):
        raise AssertionError("a grid check built a residual map")

    monkeypatch.setattr(SkewOrbitForm, "__call__", refuse)
    jobs = ("double-lie-iff-skew-aybe", "fixture-search")
    text = run_suite(JobSpec(tuple(Job(name) for name in jobs))).text()
    for name in jobs:
        assert f"verdict {name}: PASS" in text
    assert "classical solutions: 47" in text
    assert "associative solutions: 17" in text
    assert "skew grid, dim 2: 729 maps, 17 induce a double Lie bracket" in text


def test_identities_leave_empty_forms():
    # cae and the transform difference vanish on skew maps term by term
    for dim in (1, 2, 3):
        assert form("cae", dim).terms == []
        assert form("transform-difference", dim).terms == []
    assert form("cybe", 1).terms == []
    assert len(form("cybe", 2).terms) > 0


def test_a_cancelling_table_embeds_nothing(monkeypatch):
    # slot pairs fold into increasing order (each S_k is skew), so the cae
    # table's joins cancel before any S_k is embedded
    calls = []

    def counting(*args):
        calls.append(args)
        return embed_components(*args)

    monkeypatch.setattr(ybe, "embed_components", counting)
    for dim in (1, 2, 3):
        assert SkewOrbitForm(PRODUCTS["cae"], dim).terms == []
    assert calls == []
    SkewOrbitForm(PRODUCTS["cybe"], 2)
    assert calls


def test_each_slot_pair_is_embedded_once(monkeypatch):
    calls = []

    def counting(r, slots, n):
        # the skew check embeds r12 and r21 on squares; count the cubes
        if n == 3:
            calls.append(slots)
        return embed_components(r, slots, n)

    monkeypatch.setattr(ybe, "embed_components", counting)
    # AYBE and AYBE' share r12, r13 and r23
    assert double.almcybe_check(one_variable_lambda_bracket(4, 1)).passed
    assert sorted(calls) == [(1, 2), (1, 3), (2, 3)]
    calls.clear()
    # the double-Jacobi table adds r31 to the associative table's three
    r = skew_map_from_orbit_values(2, [1, 0, -1, 2, 0, 1])
    double.dbjac_to_aybe(r)
    assert sorted(calls) == [(1, 2), (1, 3), (2, 3), (3, 1)]


def test_building_a_form_calls_no_residual(monkeypatch):
    def refuse(*args):
        raise AssertionError("a form evaluated a literal residual")

    for module, names in (
        (ybe, (
            "cybe_residual", "aybe_residual", "aybe_prime_residual", "cae_defect",
            "table_residuals",
        )),
        (double, ("double_jacobi_residual_map",)),
    ):
        for attr in names:
            monkeypatch.setattr(module, attr, refuse)
    for kind in list(ybe.RESIDUALS):
        monkeypatch.setitem(ybe.RESIDUALS, kind, refuse)
    for products, _ in RESIDUALS.values():
        for dim in (1, 2, 3):
            SkewOrbitForm(products, dim)
    assert len(search_skew_solutions("cybe", 2)[0]) == 47
    jobs = ("cae-random", "double-lie-iff-skew-aybe", "fixture-search")
    text = run_suite(JobSpec(tuple(Job(name) for name in jobs))).text()
    for name in jobs:
        assert f"verdict {name}: PASS" in text


def test_search_counts_and_order_match_the_literal_split():
    for kind, expected in (("cybe", 47), ("aybe", 17)):
        solutions, non_solutions = search_skew_solutions(kind, 2)
        assert len(solutions) == expected
        assert len(solutions) + len(non_solutions) == 729
        grid = [skew_map_from_orbit_values(2, values) for values in orbit_grid(2)]
        literal = [r for r in grid if RESIDUALS[kind][1](r).is_zero()]
        assert solutions == literal


@pytest.mark.parametrize("kind", ["qybe", "unitarity", "skew"])
def test_search_refuses_residuals_that_are_not_quadratic(kind):
    with pytest.raises(ValueError, match="quadratic"):
        search_skew_solutions(kind, 2)


def test_orbits_are_cached_tuples():
    first = skew_entry_orbits(3)
    assert first is skew_entry_orbits(3)
    orbits, fixed = first
    assert isinstance(orbits, tuple) and isinstance(fixed, tuple)
    assert len(orbits) == 36 and len(fixed) == 9


@pytest.mark.parametrize("position, value", [(3, 2.5), (5, 0.0)])
def test_orbit_values_reject_a_float_after_exact_ones(position, value):
    values = [1, Fraction(1, 2), 0, -1, 0, 2]
    # a float zero too: it is rejected before zeros are skipped
    values[position] = value
    with pytest.raises(TypeError, match="not an exact scalar"):
        skew_map_from_orbit_values(2, values)


def test_orbit_map_is_built_in_orbit_order():
    orbits, _ = skew_entry_orbits(2)
    r = skew_map_from_orbit_values(2, [Fraction(2), 0, Fraction(-1, 2), 0, 0, 0])
    assert list(r.entries.items()) == [
        (orbits[0][0], 2), (orbits[0][1], -2),
        (orbits[2][0], Fraction(-1, 2)), (orbits[2][1], Fraction(1, 2)),
    ]
    assert type(r.entries[orbits[0][0]]) is int
    assert r == TensorMap(2, 2, 2, dict(r.entries))
