"""Residuals as quadratic forms on the skew-orbit basis, against the literal evaluators."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybalg.double import dbjac_transform_defect, double_jacobi_residual_map
from ybalg.fixtures import (
    SkewOrbitForm,
    orbit_grid,
    orbit_values,
    search_skew_solutions,
    skew_entry_orbits,
    skew_map_from_orbit_values,
)
from ybalg.ybe import aybe_residual, cae_defect, cybe_residual, is_skew

RESIDUALS = {
    "cybe": cybe_residual,
    "aybe": aybe_residual,
    "cae": cae_defect,
    "double-jacobi": double_jacobi_residual_map,
    "transform-difference": dbjac_transform_defect,
}


@functools.cache
def form(name, dim):
    return SkewOrbitForm(RESIDUALS[name], dim)


def assert_same_map(got, want):
    assert (got.dim, got.dom_deg, got.cod_deg) == (want.dim, want.dom_deg, want.cod_deg)
    assert got.entries == want.entries
    # the same canonical scalar types too, not only equal values
    assert sorted(map(repr, got.entries.items())) == sorted(map(repr, want.entries.items()))
    assert got.first_nonzero() == want.first_nonzero()


@pytest.mark.parametrize("name", sorted(RESIDUALS))
def test_form_matches_the_literal_residual_on_the_dim2_grid(name):
    count = 0
    nonzero = 0
    for values in orbit_grid(2):
        r = skew_map_from_orbit_values(2, values)
        literal = RESIDUALS[name](r)
        assert_same_map(form(name, 2)(values), literal)
        count += 1
        nonzero += not literal.is_zero()
    assert count == 729
    if name in ("cae", "transform-difference"):
        # both vanish on every skew map: the identities the suite checks
        assert nonzero == 0
    else:
        # the comparison is not vacuous: most grid maps leave a residual
        assert nonzero > 600


@st.composite
def rational_skew_maps(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    n = len(skew_entry_orbits(dim)[0])
    value = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    values = draw(st.lists(st.one_of(st.just(Fraction(0)), value), min_size=n, max_size=n))
    return skew_map_from_orbit_values(dim, values)


@settings(max_examples=60, deadline=None)
@given(rational_skew_maps(), st.sampled_from(["cybe", "cae"]))
def test_form_matches_the_literal_residual_on_rational_skew_maps(r, name):
    assert is_skew(r)
    assert skew_map_from_orbit_values(r.dim, orbit_values(r)) == r
    assert_same_map(form(name, r.dim)(orbit_values(r)), RESIDUALS[name](r))


def test_identities_leave_empty_forms():
    # cae and the transform difference vanish on skew maps term by term
    for dim in (1, 2, 3):
        assert form("cae", dim).terms == []
    assert form("transform-difference", 2).terms == []
    assert form("cybe", 1).terms == []
    assert len(form("cybe", 2).terms) > 0


def test_search_counts_and_order_match_the_literal_split():
    for kind, expected in (("cybe", 47), ("aybe", 17)):
        solutions, non_solutions = search_skew_solutions(kind, 2)
        assert len(solutions) == expected
        assert len(solutions) + len(non_solutions) == 729
        grid = [skew_map_from_orbit_values(2, values) for values in orbit_grid(2)]
        literal = [r for r in grid if RESIDUALS[kind](r).is_zero()]
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
