import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybalg.fixtures import (
    diagonal_unitary_qybe_solution,
    random_map,
    random_skew_map,
    skew_entry_orbits,
    skew_map_from_orbit_values,
)
from ybalg.io import dump_tensor_map
from ybalg.tensoralg import TensorMap, words
from ybalg.ybe import (
    RESIDUALS,
    aybe_prime_residual,
    aybe_residual,
    cae_defect,
    check,
    cybe_residual,
    evaluate,
    is_skew,
    qybe_residual,
    skew_defect,
    unitarity_defect,
    witness_str,
)


def seeded_skew(seed, dim=2):
    return random_skew_map(dim, random.Random(seed))


# ---------------------------------------------------------------------------
# skewness
# ---------------------------------------------------------------------------


def test_skew_orbit_count_dim2():
    orbits, fixed = skew_entry_orbits(2)
    assert len(orbits) == 6
    assert len(fixed) == 4
    # the fixed positions are exactly the doubled-letter diagonal ones
    assert set(fixed) == {
        ((0, 0), (0, 0)),
        ((0, 0), (1, 1)),
        ((1, 1), (0, 0)),
        ((1, 1), (1, 1)),
    }


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]))
def test_random_skew_maps_are_skew(seed, dim):
    r = seeded_skew(seed, dim)
    assert is_skew(r)
    assert skew_defect(r).is_zero()


def test_skewness_is_the_r21_condition():
    rng = random.Random(5)
    r = random_map(2, 2, rng)
    assert is_skew(r) == ((r + r.r21()).is_zero())


# ---------------------------------------------------------------------------
# classical / associative residuals
# ---------------------------------------------------------------------------


def test_zero_map_solves_everything():
    z = TensorMap.zero(2, 2)
    assert cybe_residual(z).is_zero()
    assert aybe_residual(z).is_zero()
    assert qybe_residual(z).is_zero()


def test_identity_solves_qybe_but_not_unitarily_trivial():
    ident = TensorMap.identity(2, 2)
    assert qybe_residual(ident).is_zero()
    assert unitarity_defect(ident).is_zero()


def test_known_cybe_solution_diagonal():
    # r acts diagonally on mixed words with opposite signs
    r = TensorMap(2, 2, 2, {((0, 1), (0, 1)): Fraction(1), ((1, 0), (1, 0)): Fraction(-1)})
    assert is_skew(r)
    assert cybe_residual(r).is_zero()


def test_cybe_detects_non_solution():
    # the letter-exchanging skew map is not a solution
    r = TensorMap(2, 2, 2, {((0, 1), (1, 0)): Fraction(1), ((1, 0), (0, 1)): Fraction(-1)})
    assert is_skew(r)
    assert not cybe_residual(r).is_zero()


# ---------------------------------------------------------------------------
# the expansion identity between classical and associative residuals
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]))
def test_cae_identity_for_skew(seed, dim):
    r = seeded_skew(seed, dim)
    assert cae_defect(r).is_zero()


@given(st.integers(0, 10_000))
def test_cybe_is_commutator_combination(seed):
    # cross-check the cae identity against an independent assembly of the
    # classical residual from the associative one and its slot-23 conjugate
    r = seeded_skew(seed)
    a = aybe_residual(r)
    assert cybe_residual(r) == a - a.conjugate_by_perm((0, 2, 1))


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]), st.booleans())
def test_cae_defect_matches_the_literal_residuals(seed, dim, skew):
    # cae_defect shares six products between both residuals; the literal
    # commutator form of cybe_residual is the reference, skew or not
    rng = random.Random(seed)
    r = random_skew_map(dim, rng) if skew else random_map(dim, 2, rng)
    a = aybe_residual(r)
    assert cae_defect(r) == cybe_residual(r) - (a - a.conjugate_by_perm((0, 2, 1)))


def test_aybe_prime_is_slot_reversal_of_aybe_for_skew():
    rng = random.Random(17)
    for _ in range(10):
        r = random_skew_map(2, rng)
        conj = aybe_residual(r).conjugate_by_perm((2, 1, 0))
        assert aybe_prime_residual(r) == conj


def test_cae_requires_skew_precondition():
    rng = random.Random(3)
    r = random_map(2, 2, rng)
    while is_skew(r):
        r = random_map(2, 2, rng)
    report = check("cae", r)
    assert not report.passed
    assert ("skew", False) in report.preconditions


# ---------------------------------------------------------------------------
# quantum equation and unitarity
# ---------------------------------------------------------------------------


def test_orbit_values_reject_floats():
    with pytest.raises(TypeError, match="not an exact scalar"):
        skew_map_from_orbit_values(2, [0.5, 0, 0, 0, 0, 0])


def test_diagonal_unitary_solution():
    big_r = diagonal_unitary_qybe_solution(2)
    assert not (big_r - TensorMap.identity(2, 2)).is_zero()
    assert qybe_residual(big_r).is_zero()
    assert unitarity_defect(big_r).is_zero()


def test_unitarity_defect_detects_failure():
    big_r = TensorMap(2, 2, 2, {(w, w): Fraction(2) for w in words(2, 2)})
    assert not unitarity_defect(big_r).is_zero()


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_carries_witness_and_conventions():
    r = TensorMap(2, 2, 2, {((0, 1), (1, 0)): Fraction(1), ((1, 0), (0, 1)): Fraction(-1)})
    report = check("cybe", r)
    assert not report.passed
    out_w, in_w, coeff = report.witness
    assert len(out_w) == 3 and len(in_w) == 3 and coeff != 0
    # the witness is the lexicographically first nonzero residual entry
    assert (out_w, in_w) == min(k for k in cybe_residual(r).entries)
    assert any(key == "cybe" for key, _ in report.conventions)
    text = "\n".join(report.lines())
    assert "FAIL" in text and "witness" in text


@pytest.mark.parametrize("kind", ["cybe", "aybe", "aybe-prime", "qybe"])
def test_check_reads_rows_only_up_to_its_witness(row_streams, kind):
    r = random_map(2, 2, random.Random(5), density=0.2)
    residual = RESIDUALS[kind](r)
    rows = sorted({o for o, _ in residual.entries})
    # the witness row is not the first word, and rows follow it
    assert rows[0] != (0, 0, 0) and len(rows) > 1
    row_streams.clear()
    report = check(kind, r)
    assert report.witness == residual.first_nonzero()
    # rows are pushed as they are read: none after the first nonzero one
    assert row_streams == [{"rows": rows[:1], "done": False}]
    row_streams.clear()
    # the map reads every row and yields the nonzero ones
    assert RESIDUALS[kind](r) == residual
    assert row_streams == [{"rows": rows, "done": True}]


def test_a_passing_check_reads_every_row(row_streams):
    r = TensorMap(2, 2, 2, {((0, 1), (0, 1)): Fraction(1), ((1, 0), (1, 0)): Fraction(-1)})
    assert check("cybe", r).passed
    assert row_streams == [{"rows": [], "done": True}]


def test_report_pass_line():
    z = TensorMap.zero(2, 2)
    report = check("aybe", z)
    assert report.passed and report.witness is None
    assert "result: PASS" in report.lines()


# ---------------------------------------------------------------------------
# fractional maps run on an integral multiple
# ---------------------------------------------------------------------------


@st.composite
def rational_maps(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    positions = [(o, i) for o in words(dim, 2) for i in words(dim, 2)]
    chosen = draw(st.lists(st.sampled_from(positions), max_size=8, unique=True))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    entries = {pos: draw(value) for pos in chosen}
    if draw(st.booleans()):
        # a skew map, so the cae precondition holds now and then
        r = TensorMap(dim, 2, 2, entries)
        return r - r.r21()
    return TensorMap(dim, 2, 2, entries)


@settings(max_examples=80, deadline=None)
@given(rational_maps(), st.sampled_from(["cybe", "aybe", "qybe", "cae", "unitarity"]))
def test_integral_multiple_matches_the_literal_residual(r, kind):
    literal = RESIDUALS[kind](r)
    emitted = evaluate(kind, r)
    assert emitted == literal
    assert dump_tensor_map(emitted) == dump_tensor_map(literal)
    report = check(kind, r)
    assert report.passed == (literal.is_zero() and (kind != "cae" or is_skew(r)))
    assert report.witness == literal.first_nonzero()
    assert report.lines() == check(kind, r).lines()
    if report.witness is not None:
        assert witness_str(report.witness) == witness_str(literal.first_nonzero())


def test_integral_multiple_on_a_fixed_fractional_map():
    # lam = 6: the residuals run on 6r and come back divided by 6^2 or 6^3
    r = TensorMap(2, 2, 2, {((0, 1), (1, 0)): Fraction(1, 2), ((1, 1), (0, 1)): Fraction(1, 3)})
    for kind in ("cybe", "aybe", "qybe", "unitarity"):
        got = evaluate(kind, r)
        assert got == RESIDUALS[kind](r)
        assert not got.is_zero()
