"""File formats: round trips, canonical output, and located parse errors."""

from fractions import Fraction

import pytest

from ybalg import io
from ybalg.algebras import (
    Quiver,
    TruncationOverflow,
    double_quiver,
    free_algebra,
    path_algebra,
    polynomial_quotient_algebra,
)
from ybalg.fixtures import diagonal_unitary_qybe_solution, random_skew_map
from ybalg.linfty import homotopy_fixture
from ybalg.tensoralg import TensorMap
from ybalg.ybe_infty import RnFamily, gl_lie, matrix_algebra

import random


class TestRoundTrips:
    def test_tensor_map(self):
        r = diagonal_unitary_qybe_solution(2)
        text = io.dump_tensor_map(r)
        assert io.parse_text(text) == r

    def test_tensor_map_random(self):
        rng = random.Random(7)
        for _ in range(20):
            r = random_skew_map(rng.choice((1, 2, 3)), rng)
            assert io.parse_text(io.dump_tensor_map(r)) == r

    def test_tensor_map_empty_words(self):
        unit = TensorMap(2, 0, 1, {((0,), ()): Fraction(1, 3)})
        text = io.dump_tensor_map(unit)
        assert "<- - :" in text
        assert io.parse_text(text) == unit

    def test_dump_is_canonical(self):
        r = diagonal_unitary_qybe_solution(2)
        text = io.dump_tensor_map(r)
        assert io.dump_tensor_map(io.parse_text(text)) == text

    def test_lie_structure(self):
        g = gl_lie(2)
        g2 = io.parse_text(io.dump_lie_structure(g))
        assert g2.labels == g.labels
        assert g2.degrees == g.degrees
        assert g2.table == g.table

    def test_associative_quotient(self):
        algebra = polynomial_quotient_algebra(5)
        back = io.parse_text(io.dump_associative_algebra(algebra))
        assert back.labels == algebra.labels
        assert back.mode == "quotient"
        assert back.unit == algebra.unit
        assert back.table == algebra.table

    def test_associative_window_with_overflow(self):
        algebra = free_algebra(2, cap=1, mode="window")
        text = io.dump_associative_algebra(algebra)
        assert "!overflow" in text
        back = io.parse_text(text)
        assert back.mode == "window"
        assert back.cap == 1
        assert io.dump_associative_algebra(back) == text

    def test_two_vertex_path_window(self):
        algebra = path_algebra(double_quiver(Quiver(("1", "2"), (("a", "1", "2"),))), 3)
        text = io.dump_associative_algebra(algebra)
        back = io.parse_text(text)
        assert io.dump_associative_algebra(back) == text
        for i in range(algebra.nbasis):
            for j in range(algebra.nbasis):
                try:
                    expected = algebra.mul_basis(i, j)
                except TruncationOverflow:
                    with pytest.raises(TruncationOverflow):
                        back.mul_basis(i, j)
                else:
                    assert back.mul_basis(i, j) == expected

    def test_matrix_algebra(self):
        algebra = matrix_algebra(2)
        back = io.parse_text(io.dump_associative_algebra(algebra))
        assert back.labels == algebra.labels
        assert back.table == algebra.table

    def test_rn_family(self):
        fam = RnFamily(2, {2: {(0, 1): Fraction(1), (1, 0): Fraction(-2, 3)}})
        back = io.parse_text(io.dump_rn_family(fam))
        assert back.dim == fam.dim
        assert back.elements == fam.elements
        assert back.degrees == fam.degrees

    def test_linfty_family(self):
        fam = homotopy_fixture()
        back = io.parse_text(io.dump_linfty_family(fam))
        assert back.basis == fam.basis
        assert back.ops == fam.ops

    def test_quiver(self):
        q = Quiver(("u", "v", "w"), (("a", "u", "v"), ("b", "v", "u"), ("c", "w", "w")))
        back = io.parse_text(io.dump_quiver(q))
        assert back == q and hash(back) == hash(q)
        assert io.dump_quiver(back) == io.dump_quiver(q)

    def test_relation_vectors(self):
        vectors = [[Fraction(1), Fraction(-1, 2)], [Fraction(0), Fraction(3)]]
        assert io.parse_text(io.dump_relation_vectors(vectors)) == vectors

    def test_parse_inputs_reads_files(self, tmp_path):
        path = tmp_path / "r.txt"
        r = diagonal_unitary_qybe_solution(2)
        path.write_text(io.dump_tensor_map(r))
        assert io.parse_inputs(path) == r
        assert io.load_tensor_map(path) == r


def parse_err(text):
    with pytest.raises(io.SchemaError) as info:
        io.parse_text(text, "f.txt")
    return str(info.value)


class TestParseErrors:
    def test_missing_header(self):
        assert "missing header" in parse_err("dim: 2\n")

    @pytest.mark.parametrize(
        "head",
        [
            "flavor: assoc\nlabels: 1 x\ndegrees: 0 1\nmode: quotient\ncap: 1\n",
            "flavor: assoc\nlabels: 1 x\ndegrees: 0 1\nmode: window\ncap: 2\n",
            "flavor: lie\nlabels: 1 x\ndegrees: 0 1\n",
        ],
        ids=["quotient", "inside-the-cap", "lie"],
    )
    def test_overflow_marker_off_a_window_past_the_cap(self, head):
        text = (
            "ybalg schema/1 structure-constants\n" + head
            + "table: 0 1 -> 1:1\ntable: 1 1 -> !overflow\n"
        )
        msg = parse_err(text)
        assert f"f.txt:{len(text.splitlines())}:" in msg
        assert "overflow marker" in msg

    def test_unknown_kind(self):
        assert "unknown schema kind" in parse_err("ybalg schema/1 widget\n")

    def test_empty_file(self):
        assert "empty file" in parse_err("# only a comment\n")

    def test_zero_denominator_is_located(self):
        msg = parse_err(
            "ybalg schema/1 tensor-map\ndim: 2\ndom: 2\ncod: 2\n"
            "entry: 0,1 <- 1,0 : 1/0\n"
        )
        assert "f.txt:5" in msg
        assert "1/0" in msg

    def test_non_rational_scalar(self):
        msg = parse_err(
            "ybalg schema/1 tensor-map\ndim: 2\ndom: 2\ncod: 2\n"
            "entry: 0,1 <- 1,0 : 0.5x\n"
        )
        assert "not a rational scalar" in msg

    def test_letter_out_of_range(self):
        msg = parse_err(
            "ybalg schema/1 tensor-map\ndim: 2\ndom: 2\ncod: 2\n"
            "entry: 0,5 <- 1,0 : 1\n"
        )
        assert "out of range" in msg
        assert "f.txt:5" in msg

    def test_word_degree_mismatch(self):
        msg = parse_err(
            "ybalg schema/1 tensor-map\ndim: 2\ndom: 2\ncod: 2\n"
            "entry: 0 <- 1,0 : 1\n"
        )
        assert "do not match" in msg

    def test_duplicate_entry(self):
        msg = parse_err(
            "ybalg schema/1 tensor-map\ndim: 2\ndom: 2\ncod: 2\n"
            "entry: 0,1 <- 1,0 : 1\nentry: 0,1 <- 1,0 : 2\n"
        )
        assert "duplicate entry" in msg
        assert "f.txt:6" in msg

    def test_missing_required_field(self):
        # located at the header, which names the schema that requires it
        assert "f.txt:2: missing required field 'dom'" in parse_err(
            "# a comment\nybalg schema/1 tensor-map\ndim: 2\ncod: 2\n"
        )

    def test_field_given_twice(self):
        msg = parse_err("ybalg schema/1 tensor-map\ndim: 2\ndim: 3\ndom: 2\ncod: 2\n")
        assert "given twice" in msg

    def test_bad_flavor(self):
        msg = parse_err(
            "ybalg schema/1 structure-constants\nflavor: ring\nlabels: x\n"
        )
        assert "f.txt:2: flavor" in msg

    def test_table_index_out_of_range(self):
        msg = parse_err(
            "ybalg schema/1 structure-constants\nflavor: lie\nlabels: x y\n"
            "table: 0 7 -> 1:1\n"
        )
        assert "out of range" in msg
        assert "f.txt:4" in msg

    def test_quiver_edge_needs_three_parts(self):
        msg = parse_err("ybalg schema/1 quiver\nvertex: v\nedge: a v\n")
        assert "label source target" in msg

    @pytest.mark.parametrize("line, message", [
        ("vertex: v", "f.txt:4: duplicate vertex 'v'"),
        ("edge: a v v", "f.txt:4: duplicate edge label 'a'"),
    ])
    def test_quiver_duplicate_line(self, line, message):
        # a repeated vertex would otherwise build a second idempotent e_v
        text = f"ybalg schema/1 quiver\nvertex: v\nedge: a v v\n{line}\n"
        assert message in parse_err(text)

    def test_quiver_dangling_edge(self):
        msg = parse_err("ybalg schema/1 quiver\nvertex: v\nedge: a v w\n")
        assert "f.txt:3: edge a has an endpoint off the vertex list" in msg

    def test_quiver_vertex_may_follow_its_edge(self):
        q = io.parse_text("ybalg schema/1 quiver\nvertex: u\nedge: a u w\nvertex: w\n", "f.txt")
        assert q.vertices == ("u", "w") and q.edges == (("a", "u", "w"),)
        msg = parse_err("ybalg schema/1 quiver\nedge: a u u\nedge: b u w\nvertex: u\n")
        assert "f.txt:3: edge b has an endpoint off the vertex list" in msg

    def test_rn_family_degree_violation(self):
        # an arity-2 component must sit in degree zero when letters do
        msg = parse_err(
            "ybalg schema/1 rn-family\ndim: 2\ndegrees: 1 1\n"
            "component 2: 0,1 : 1\n"
        )
        assert "degree" in msg

    @pytest.mark.parametrize(
        "text, key",
        [
            (
                "ybalg schema/1 structure-constants\nflavor: assoc\nlabels: 1 x\n"
                "degrees: 0 1\ntable: 0 0 -> 0:1\ntabel: 0 1 -> 1:1\n",
                "tabel",
            ),
            (
                "ybalg schema/1 rn-family\ndim: 2\ncomponent 2: 0,1 : 1\n"
                "compnent 2: 1,0 : 1\n",
                "compnent 2",
            ),
            (
                "ybalg schema/1 linfty-family\nlabels: a b\ndegrees: 0 0\n"
                "op 2: 0,1 -> 0:1\nopt 1: 0 -> 1:1\n",
                "opt 1",
            ),
        ],
        ids=["structure-constants", "rn-family", "linfty-family"],
    )
    def test_unknown_field_is_located(self, text, key):
        msg = parse_err(text)
        assert f"f.txt:{len(text.splitlines())}: unexpected field {key!r}" in msg

    @pytest.mark.parametrize(
        "line", ["mode: window", "cap: 9", "unit: 0:1"], ids=["mode", "cap", "unit"]
    )
    def test_lie_flavor_refuses_assoc_keys(self, line):
        text = (
            "ybalg schema/1 structure-constants\nflavor: lie\nlabels: a b\n"
            f"degrees: 0 0\n{line}\ntable: 0 1 -> 1:1\ntable: 1 0 -> 1:-1\n"
        )
        key = line.partition(":")[0]
        assert f"f.txt:5: unexpected field {key!r}" in parse_err(text)

    @pytest.mark.parametrize(
        "body, where",
        [
            ("dim: 2\ndegrees: 0\n", "f.txt:3: one degree per basis index"),
            ("dim: 1\ndegrees:\n", "f.txt:3: one degree per basis index"),
            ("dim: 1\ndegrees: 1\ncomponent 2: 0,0 : 1\n", "f.txt:4: component 2 entry"),
            ("dim: 1\ncomponent 2: 0,1 : 1\n", "f.txt:3: word letter out of range"),
        ],
        ids=["short-degrees", "empty-degrees", "wrong-degree", "letter"],
    )
    def test_rn_family_refusals_carry_their_line(self, body, where):
        assert where in parse_err("ybalg schema/1 rn-family\n" + body)

    @pytest.mark.parametrize(
        "body, where",
        [
            ("labels: a b\ndegrees: 0\n", "f.txt:3: labels and degrees must align"),
            ("labels: x y x\ndegrees: 0 1 0\n", "f.txt:2: duplicate label 'x'"),
            ("labels: a\ndegrees: 0\nop 2: 0,3 -> 0:1\n", "f.txt:4: generator index out of range"),
            ("labels: a\ndegrees: 0\nop 1: 0 -> 0:1\n", "f.txt:4: value of arity-1 bracket"),
        ],
        ids=["degrees", "duplicate-label", "index", "value-degree"],
    )
    def test_linfty_family_refusals_carry_their_line(self, body, where):
        assert where in parse_err("ybalg schema/1 linfty-family\n" + body)

    def test_empty_degrees_line_is_not_all_zero(self):
        text = "ybalg schema/1 structure-constants\nflavor: lie\nlabels: a\ndegrees:\n"
        assert "f.txt:4: one degree per label is required" in parse_err(text)

    def test_vector_length_mismatch(self):
        msg = parse_err(
            "ybalg schema/1 relation-coefficients\nvector: 1 2\nvector: 1\n"
        )
        assert "share one length" in msg

    def test_loader_kind_mismatch(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text(io.dump_quiver(Quiver(("v",), ())))
        with pytest.raises(io.SchemaError) as info:
            io.load_tensor_map(path)
        assert "expected a tensor-map file" in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(io.SchemaError) as info:
            io.parse_inputs(tmp_path / "nope.txt")
        assert "file not found" in str(info.value)

    def test_comments_and_blanks_ignored(self):
        text = (
            "# a comment\n\nybalg schema/1 tensor-map\n# another\ndim: 1\n"
            "dom: 2\n\ncod: 2\nentry: 0,0 <- 0,0 : 2/4\n"
        )
        r = io.parse_text(text)
        assert r.entries == {(((0, 0)), (0, 0)): Fraction(1, 2)}

    def test_words_parse_helper(self):
        assert io.parse_word("-", "--lhs", 1) == ()
        assert io.parse_word("0,2,1", "--lhs", 3) == (0, 2, 1)
        with pytest.raises(io.SchemaError):
            io.parse_word("0,x", "--lhs", 3)
        for text in ("0,3", "-1", "1,-2"):
            with pytest.raises(io.SchemaError, match="out of range 0..2"):
                io.parse_word(text, "--lhs", 3)
