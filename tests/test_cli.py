"""Job harness and command line: verdicts, exit codes, determinism."""

import argparse
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ybalg
from ybalg import cli, frt, harness, io, operad, ybe
from ybalg.algebras import Quiver, path_algebra, polynomial_quotient_algebra
from ybalg.cli import build_parser, main
from ybalg.double import one_variable_lambda_bracket
from ybalg.fixtures import (
    SkewOrbitForm,
    diagonal_unitary_qybe_solution,
    random_map,
    search_skew_solutions,
)
from ybalg.harness import Job, JobSpec, Report, default_suite, fixture_search, run_suite
from ybalg.linfty import homotopy_fixture
from ybalg.tensoralg import TensorMap
from ybalg.twisted import _families
from ybalg.ybe_infty import RnFamily, gl_lie, matrix_algebra


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def skew_files(tmp_path):
    solutions, non_solutions = search_skew_solutions("cybe", 2)
    good = next(r for r in solutions if not r.is_zero())
    bad = non_solutions[0]
    return (
        write(tmp_path, "good.txt", io.dump_tensor_map(good)),
        write(tmp_path, "bad.txt", io.dump_tensor_map(bad)),
    )


class TestHarness:
    def test_empty_suite_is_a_pass_report(self):
        report = run_suite(JobSpec(()))
        assert report.passed
        assert report.verdicts == ()
        text = report.text()
        assert "checks: 0" in text
        assert text.endswith("result: PASS\n")

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_suite(JobSpec((Job("no-such-check"),)))

    def test_job_missing_input_and_param(self):
        job = Job("ybe-check")
        with pytest.raises(ValueError, match="needs an input"):
            job.input("input")
        with pytest.raises(ValueError, match="needs a parameter"):
            job.param("kind")
        assert job.param("kind", "cybe") == "cybe"

    def test_undeclared_input_or_param_rejected(self):
        with pytest.raises(ValueError, match="declares no param named 'sede'"):
            run_suite(JobSpec((Job("cae-random", params=(("sede", "3"),)),)))
        with pytest.raises(ValueError, match="declares no input named 'seed'"):
            run_suite(JobSpec((Job("cae-random", inputs=(("seed", "3"),)),)))

    def test_default_suite_passes(self):
        report = run_suite(default_suite())
        assert report.passed
        assert len(report.verdicts) == len(harness.DEFAULT_CHECKS)
        assert all(v == "PASS" for _, v in report.verdicts)

    def test_default_checks_are_the_canned_rows_in_order(self):
        # the order fixes the bytes of the suite report
        assert harness.DEFAULT_CHECKS == (
            "cae-random",
            "fixture-search",
            "double-lie-iff-skew-aybe",
            "lambda-almcybe",
            "operad-classification",
            "linfty-extension",
            "ybe-infty-classical",
            "schurweyl-anchor",
            "double-commutant",
        )

    def test_default_suite_is_byte_deterministic(self):
        first = run_suite(default_suite()).text()
        second = run_suite(default_suite()).text()
        assert first == second

    def test_report_carries_version_and_flags(self):
        report = run_suite(JobSpec((), literal_shuffles=True, emit_witness=True))
        text = report.text()
        assert "version: " + harness.VERSION in text
        assert "convention shuffle reading: literal" in text
        assert "convention witness emission: on" in text

    def test_output_path_written(self, tmp_path):
        out = tmp_path / "report.txt"
        report = run_suite(JobSpec((), output_path=str(out)))
        assert out.read_text() == report.text()

    def test_suite_bytes_do_not_depend_on_the_hash_seed(self):
        # two fresh interpreters, run side by side, with different str hashing
        src = str(Path(ybalg.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "ybalg.cli", "suite"],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            )
            for seed in ("0", "1")
        ]
        outputs = [run.communicate(timeout=600) for run in runs]
        for run, (_, err) in zip(runs, outputs):
            assert run.returncode == 0, err.decode()
        assert b"result: PASS" in outputs[0][0]
        assert outputs[0][0] == outputs[1][0]


def test_cae_random_failure_line_prints_the_witness_plainly(monkeypatch):
    # cae-random reads each map's defect off a SkewOrbitForm
    def failing_value(form, values):
        return TensorMap(3, 3, 3, {((0, 1, 0), (1, 0, 0)): Fraction(-2)})

    monkeypatch.setattr(SkewOrbitForm, "__call__", failing_value)
    report = run_suite(JobSpec((Job("cae-random", params=(("count", "4"),)),)))
    text = report.text()
    assert "verdict cae-random: FAIL" in text
    assert "failures: 3" in text
    assert "failed at dim 1, witness out=(0,1,0) in=(1,0,0) value=-2" in text
    assert "Fraction(" not in text


class TestFixtureSearch:
    def test_classical_solutions_include_zero(self):
        solutions = fixture_search("cybe", 2)
        assert solutions
        assert TensorMap.zero(2, 2, 2) in solutions

    def test_associative_inside_classical(self):
        classical = set(fixture_search("cybe", 2))
        associative = fixture_search("aybe", 2)
        assert len(associative) == 17
        assert all(r in classical for r in associative)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="cybe.*aybe"):
            fixture_search("qybe", 2)

    def test_dim_bound_rejected_up_front(self):
        with pytest.raises(ValueError, match="exceeds the supported bound"):
            fixture_search("cybe", 5)

    def test_cost_limit_carries_estimate(self):
        with pytest.raises(ValueError, match="candidate maps"):
            fixture_search("cybe", 3)

    def test_wider_grid_still_within_limit(self):
        solutions = fixture_search("cybe", 1, entry_values=(-2, -1, 0, 1, 2))
        # dim 1: a single skew orbit forced to zero, so only the zero map
        assert solutions == [TensorMap.zero(1, 2, 2)]


class TestCliExitCodes:
    def test_pass_is_zero(self, skew_files, capsys):
        good, _ = skew_files
        assert main(["ybe", "check", "--kind", "cybe", "--input", good]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "verdict ybe-check: PASS" in out

    def test_fail_is_one(self, skew_files, capsys):
        _, bad = skew_files
        assert main(["ybe", "check", "--kind", "cybe", "--input", bad]) == 1
        out = capsys.readouterr().out
        assert "witness:" in out
        assert "verdict ybe-check: FAIL" in out

    def test_parse_error_is_two(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "broken.txt",
            "ybalg schema/1 tensor-map\ndim: 2\ndom: 2\ncod: 2\n"
            "entry: 0,1 <- 1,0 : 1/0\n",
        )
        assert main(["ybe", "check", "--kind", "cybe", "--input", path]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "broken.txt:5" in err

    @pytest.mark.parametrize("dim", [0, -1])
    def test_non_positive_dim_is_two(self, tmp_path, capsys, dim):
        path = write(
            tmp_path, "flat.txt", f"ybalg schema/1 tensor-map\ndim: {dim}\ndom: 2\ncod: 2\n"
        )
        assert main(["ybe", "check", "--kind", "qybe", "--input", path]) == 2
        captured = capsys.readouterr()
        assert "result: PASS" not in captured.out
        assert "flat.txt:2" in captured.err
        assert "dim must be at least 1" in captured.err

    @pytest.mark.parametrize("field", ["dom", "cod"])
    def test_negative_degree_is_two(self, tmp_path, capsys, field):
        degrees = {"dom": 2, "cod": 2, field: -1}
        path = write(
            tmp_path,
            "neg.txt",
            "ybalg schema/1 tensor-map\ndim: 2\n"
            f"dom: {degrees['dom']}\ncod: {degrees['cod']}\n",
        )
        assert main(["ybe", "check", "--kind", "qybe", "--input", path]) == 2
        captured = capsys.readouterr()
        assert "result: PASS" not in captured.out
        line = 3 if field == "dom" else 4
        assert f"neg.txt:{line}" in captured.err
        assert f"{field} must be at least 0" in captured.err

    @pytest.mark.parametrize(
        "verb",
        [
            ["ybe", "check", "--kind", "cybe", "--input"],
            ["ybe", "check", "--kind", "qybe", "--input"],
            ["ybe", "cae", "--input"],
            ["schurweyl", "decompose", "--m", "2", "--R"],
            ["schurweyl", "hrdim", "--m", "2", "--R"],
            ["poisson", "extend", "--lhs", "0", "--rhs", "1", "--r"],
            ["poisson", "verify", "--max-degree", "2", "--r"],
            ["double", "verify", "--algebra", "ALG", "--bracket"],
            ["double", "almcybe", "--algebra", "ALG", "--bracket"],
        ],
        ids=[
            "check-cybe", "check-qybe", "cae", "decompose", "hrdim",
            "poisson-extend", "poisson-verify", "double-verify", "double-almcybe",
        ],
    )
    @pytest.mark.parametrize(
        "dom, cod, field", [(3, 3, "dom"), (0, 0, "dom"), (2, 1, "cod"), (1, 2, "dom")]
    )
    def test_map_off_the_tensor_square_is_two(
        self, tmp_path, capsys, verb, dom, cod, field
    ):
        algebra_path = write(
            tmp_path, "alg.txt", io.dump_associative_algebra(polynomial_quotient_algebra(2))
        )
        path = write(
            tmp_path,
            "shape.txt",
            f"ybalg schema/1 tensor-map\n# a map of the wrong degree\ndim: 2\n"
            f"dom: {dom}\ncod: {cod}\n",
        )
        argv = [algebra_path if arg == "ALG" else arg for arg in verb]
        assert main(argv + [path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = 4 if field == "dom" else 5
        got = dom if field == "dom" else cod
        assert f"shape.txt:{line}: {field} must be 2" in captured.err
        assert f"got {got}" in captured.err

    @pytest.mark.parametrize("verb", ["verify", "almcybe"])
    def test_bracket_dim_off_the_algebra_basis_is_two(self, tmp_path, capsys, verb):
        algebra_path = write(
            tmp_path, "poly.txt", io.dump_associative_algebra(polynomial_quotient_algebra(8))
        )
        r = TensorMap(3, 2, 2, {((0, 1), (1, 0)): 1, ((1, 0), (0, 1)): -1})
        bracket_path = write(tmp_path, "skew3.txt", io.dump_tensor_map(r))
        dim_line = io.dump_tensor_map(r).splitlines().index("dim: 3") + 1
        argv = ["double", verb, "--algebra", algebra_path, "--bracket", bracket_path]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"skew3.txt:{dim_line}: dim must be 8, the algebra's basis size, got 3" in captured.err

    @pytest.mark.parametrize("dim", [0, -1])
    def test_non_positive_family_dim_is_two(self, tmp_path, capsys, dim):
        lie_path = write(tmp_path, "gl.txt", io.dump_lie_structure(gl_lie(2)))
        fam_path = write(tmp_path, "fam.txt", f"ybalg schema/1 rn-family\ndim: {dim}\n")
        code = main(
            [
                "ybe-infty", "check", "--kind", "cybe", "--algebra", lie_path,
                "--family", fam_path, "--n", "3",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "fam.txt:2" in err
        assert "dim must be at least 1" in err

    def test_misspelled_table_field_is_two(self, tmp_path, capsys):
        # the zero bracket passes on every algebra, so only the parse can fail
        text = io.dump_associative_algebra(polynomial_quotient_algebra(2))
        algebra_path = write(tmp_path, "alg.txt", text + "tabel: 0 1 -> 1:1\n")
        bracket_path = write(tmp_path, "zero.txt", io.dump_tensor_map(TensorMap.zero(2, 2)))
        argv = ["double", "verify", "--algebra", algebra_path, "--bracket", bracket_path]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = len(text.splitlines()) + 1
        assert f"alg.txt:{line}: unexpected field 'tabel'" in captured.err

    def test_misspelled_component_field_is_two(self, tmp_path, capsys):
        lie_path = write(tmp_path, "gl.txt", io.dump_lie_structure(gl_lie(2)))
        fam_path = write(
            tmp_path, "fam.txt", "ybalg schema/1 rn-family\ndim: 4\ncompnent 2: 1,1 : 1\n"
        )
        argv = ["ybe-infty", "check", "--kind", "cybe", "--algebra", lie_path,
                "--family", fam_path, "--n", "3"]
        assert main(argv) == 2
        assert "fam.txt:3: unexpected field 'compnent 2'" in capsys.readouterr().err

    def test_lie_file_with_cap_is_two(self, tmp_path, capsys):
        # the zero family passes on every Lie algebra, so only the parse can fail
        text = io.dump_lie_structure(gl_lie(2))
        lie_path = write(tmp_path, "gl.txt", text + "cap: 9\n")
        fam_path = write(tmp_path, "fam.txt", "ybalg schema/1 rn-family\ndim: 4\n")
        argv = ["ybe-infty", "check", "--kind", "cybe", "--algebra", lie_path,
                "--family", fam_path, "--n", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = len(text.splitlines()) + 1
        assert f"gl.txt:{line}: unexpected field 'cap'" in captured.err

    def test_duplicate_family_label_is_two(self, tmp_path, capsys):
        text = "ybalg schema/1 linfty-family\nlabels: x x\ndegrees: 0 1\n"
        fam_path = write(tmp_path, "fam.txt", text)
        assert main(["linfty", "check", "--family", fam_path, "--max-m", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fam.txt:2: duplicate label 'x'" in captured.err

    def test_missing_file_is_two(self, tmp_path, capsys):
        assert main(["ybe", "cae", "--input", str(tmp_path / "nope.txt")]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_bound_violation_is_two(self, tmp_path, capsys):
        path = write(
            tmp_path, "id.txt", io.dump_tensor_map(TensorMap.identity(2, 2))
        )
        assert main(["schurweyl", "decompose", "--R", path, "--m", "9"]) == 2
        err = capsys.readouterr().err
        assert "exceeds the supported bound" in err
        assert "estimated cost" in err

    def test_quiver_cap_past_the_bound_is_two(self, tmp_path, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("an algebra was built past the cap bound")

        for name in ("path_algebra", "preprojective_algebra", "deformed_preprojective_algebra"):
            monkeypatch.setattr(harness, name, no_build)
        q = Quiver(("v",), (("a", "v", "v"), ("b", "v", "v")))
        path = write(tmp_path, "q.txt", io.dump_quiver(q))
        code = main(["quiver", "build", "--quiver", path, "--type", "preprojective", "--cap", "6"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap=6 exceeds the supported bound 5" in captured.err
        assert "estimated cost: paths grow as 4^cap" in captured.err

    @pytest.mark.parametrize("verb", ["decompose", "hrdim"])
    def test_twist_dim_past_the_bound_is_two(self, tmp_path, capsys, verb):
        path = write(
            tmp_path,
            "id4.txt",
            "# the identity twist of a 4-dimensional space\n"
            + io.dump_tensor_map(TensorMap.identity(4, 2)),
        )
        assert main(["schurweyl", verb, "--R", path, "--m", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "id4.txt:3: dim=4 exceeds the supported bound 3" in captured.err
        assert "estimated cost" in captured.err

    def test_precondition_unmet_is_one(self, tmp_path, capsys):
        doubled = TensorMap.identity(2, 2).scale(Fraction(2))
        path = write(tmp_path, "two.txt", io.dump_tensor_map(doubled))
        assert main(["schurweyl", "decompose", "--R", path, "--m", "2"]) == 1
        out = capsys.readouterr().out
        assert "verdict schurweyl-decompose: precondition-unmet" in out
        assert "not unitary" in out

    def test_internal_fault_is_three(self, tmp_path, capsys, monkeypatch):
        def broken(gens):
            raise RuntimeError("internal: braid relation fails at 1")

        monkeypatch.setattr(frt, "_verify_braid_relations", broken)
        path = write(tmp_path, "id.txt", io.dump_tensor_map(TensorMap.identity(2, 2)))
        assert main(["schurweyl", "decompose", "--R", path, "--m", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: internal: braid relation fails at 1" in captured.err

    @pytest.mark.parametrize("count", ["comodule", "rho"])
    def test_duality_count_mismatch_is_three(self, tmp_path, capsys, monkeypatch, count):
        if count == "comodule":
            image_dimension = frt.image_dimension
            monkeypatch.setattr(frt, "image_dimension", lambda x: image_dimension(x) + 1)
            message = "comodule dimensions squared do not sum to the commutant dimension 10"
        else:
            # the hook-length check still agrees: both of its sides move together
            irrep_dimension = frt.YoungDiagram.irrep_dimension
            group_algebra_rank = frt.group_algebra_rank
            monkeypatch.setattr(
                frt.YoungDiagram, "irrep_dimension", lambda lam: irrep_dimension(lam) + 1
            )
            monkeypatch.setattr(frt, "group_algebra_rank", lambda x: group_algebra_rank(x) + 1)
            message = "irreducible dimensions squared do not sum to the span dimension 2"
        path = write(tmp_path, "id.txt", io.dump_tensor_map(TensorMap.identity(2, 2)))
        assert main(["schurweyl", "decompose", "--R", path, "--m", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"internal error: internal: the {message}" in captured.err

    def test_program_value_error_is_not_a_precondition(self, tmp_path, capsys, monkeypatch):
        def broken(big_r, m):
            raise ValueError("hrdim lost a relation row")

        monkeypatch.setattr(frt, "hr_dimension_oracles", broken)
        path = write(tmp_path, "id.txt", io.dump_tensor_map(TensorMap.identity(2, 2)))
        assert main(["schurweyl", "hrdim", "--R", path, "--m", "2"]) == 2
        captured = capsys.readouterr()
        assert "precondition-unmet" not in captured.out
        assert "error: hrdim lost a relation row" in captured.err

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["poisson", "verify", "--r", "MAP", "--max-degree"], "1"),
            (["poisson", "verify", "--r", "MAP", "--max-degree"], "0"),
            (["poisson", "verify", "--r", "MAP", "--max-degree"], "-1"),
            (["linfty", "check", "--family", "FAM", "--max-m"], "0"),
            (["linfty", "check", "--family", "FAM", "--max-m"], "-1"),
            (["ybe-infty", "check", "--kind", "cybe", "--algebra", "LIE",
              "--family", "RN", "--n"], "0"),
            (["ybe-infty", "check", "--kind", "cybe", "--algebra", "LIE",
              "--family", "RN", "--n"], "-1"),
            (["schurweyl", "decompose", "--R", "MAP", "--m"], "0"),
            (["schurweyl", "hrdim", "--R", "MAP", "--m"], "-1"),
            (["quiver", "build", "--quiver", "QUIVER", "--type", "path", "--cap"], "-1"),
        ],
    )
    def test_parameter_below_its_minimum_is_two(self, tmp_path, capsys, argv, value):
        # the non-skew identity passes the bracket axioms at degree 1, fails at 2
        files = {
            "MAP": write(tmp_path, "id.txt", io.dump_tensor_map(TensorMap.identity(2, 2))),
            "FAM": write(tmp_path, "fam.txt", io.dump_linfty_family(homotopy_fixture())),
            "LIE": write(tmp_path, "gl.txt", io.dump_lie_structure(gl_lie(2))),
            "RN": write(
                tmp_path, "rn.txt", io.dump_rn_family(RnFamily(4, {2: {(1, 1): Fraction(1)}}))
            ),
            "QUIVER": write(tmp_path, "q.txt", io.dump_quiver(Quiver(("u",), ()))),
        }
        argv = argv + [value]
        assert main([files.get(arg, arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "PASS" not in captured.err
        assert f"{argv[-2][2:]} must be at least" in captured.err
        # a harness job with the same parameter is refused the same way
        pairs = [(option[2:], arg) for option, arg in zip(argv[2::2], argv[3::2])]
        inputs = tuple((name, files[arg]) for name, arg in pairs if arg in files)
        params = tuple((name, arg) for name, arg in pairs if arg not in files)
        with pytest.raises(ValueError, match="must be at least"):
            run_suite(JobSpec((Job("-".join(argv[:2]), inputs, params),)))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ("zz:1", "unknown vertex 'zz' (u, v)"),
            ("u:1 u:2", "vertex 'u' twice"),
            ("u:1/0", "not a valid weight for vertex 'u': '1/0'"),
        ],
    )
    def test_quiver_weights_are_rational_on_distinct_known_vertices(
        self, tmp_path, capsys, weights, message
    ):
        q = Quiver(("u", "v"), (("a", "u", "v"),))
        path = write(tmp_path, "q.txt", io.dump_quiver(q))
        code = main(
            [
                "quiver", "build", "--quiver", path, "--type", "deformed",
                "--cap", "2", "--weights", weights,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "not in list" not in captured.err
        # the other types take no weights at all
        for type_ in ("path", "preprojective"):
            argv = ["quiver", "build", "--quiver", path, "--type", type_, "--cap", "2"]
            assert main(argv + ["--weights", weights]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"weights apply only to deformed, not to {type_}" in captured.err


class TestCliCommands:
    def test_cae(self, skew_files, capsys):
        good, _ = skew_files
        assert main(["ybe", "cae", "--input", good]) == 0
        assert "check: cae" in capsys.readouterr().out

    def test_emit_witness_dumps_residual(self, skew_files, capsys):
        _, bad = skew_files
        code = main(
            ["ybe", "check", "--kind", "cybe", "--input", bad, "--emit-witness"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "residual map:" in out
        assert "ybalg schema/1 tensor-map" in out

    @pytest.mark.parametrize("verb", [["check", "--kind", "cybe"], ["cae"]])
    def test_emit_witness_evaluates_the_residual_once(
        self, skew_files, monkeypatch, row_streams, verb
    ):
        kind = "cybe" if verb[0] == "check" else "cae"
        _, bad = skew_files
        calls = []
        residual = ybe.RESIDUALS[kind]

        def counted(r):
            calls.append(r)
            return residual(r)

        rows = sorted({o for o, _ in residual(io.load_square_map(bad)).entries})
        row_streams.clear()
        monkeypatch.setitem(ybe.RESIDUALS, kind, counted)
        code = main(["ybe", *verb, "--input", bad, "--emit-witness"])
        assert code == (1 if kind == "cybe" else 0)
        assert len(calls) == 1
        # one stream of the residual's rows, read once to its end, gives both
        # the map and its witness; cae's skew precondition reads one more
        assert row_streams[0] == {"rows": rows, "done": True}
        assert len(row_streams) == (1 if kind == "cybe" else 2)
        assert all(stream["done"] for stream in row_streams)

    def test_poisson_extend_prints_terms(self, skew_files, capsys):
        good, _ = skew_files
        assert main(["poisson", "extend", "--r", good, "--lhs", "0,1", "--rhs", "1"]) == 0
        out = capsys.readouterr().out
        assert "lhs: (0,1)" in out
        assert "term: (" in out or "value: 0" in out

    @pytest.mark.parametrize(
        "option,word", [("--lhs", "0,7"), ("--lhs", "-1"), ("--rhs", "2"), ("--rhs", "1,-3")]
    )
    def test_poisson_extend_letter_out_of_range_is_two(self, tmp_path, capsys, option, word):
        path = write(tmp_path, "swap.txt", io.dump_tensor_map(TensorMap.swap(2)))
        words = {"--lhs": "0", "--rhs": "1", option: word}
        argv = ["poisson", "extend", "--r", path]
        assert main(argv + [arg for pair in words.items() for arg in pair]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option}: letter index out of range 0..1" in captured.err
        assert "PASS" not in captured.err

    def test_poisson_verify(self, skew_files, capsys):
        good, _ = skew_files
        assert main(["poisson", "verify", "--r", good, "--max-degree", "3"]) == 0
        out = capsys.readouterr().out
        assert "antisymmetry" in out
        assert "jacobi" in out

    def test_poisson_verify_dense_map_that_is_not_skew(self, tmp_path, capsys):
        r = random_map(6, 2, random.Random(0), density=1.0)
        assert not ybe.is_skew(r)
        path = write(tmp_path, "dense6.txt", io.dump_tensor_map(r))
        assert main(["poisson", "verify", "--r", path, "--max-degree", "4"]) == 1
        captured = capsys.readouterr()
        assert "internal error:" not in captured.out + captured.err
        section = [
            "--- poisson-verify ---", *_families(r, 4).lines(), "verdict poisson-verify: FAIL"
        ]
        assert captured.out.endswith("\n".join(section) + "\nresult: FAIL\n")

    def test_quiver_build_path(self, tmp_path, capsys):
        q = Quiver(("u", "v"), (("a", "u", "v"), ("b", "v", "u")))
        path = write(tmp_path, "q.txt", io.dump_quiver(q))
        assert main(["quiver", "build", "--quiver", path, "--type", "path", "--cap", "2"]) == 0
        out = capsys.readouterr().out
        assert "basis dimension:" in out

    def test_quiver_build_deformed_with_weights(self, tmp_path, capsys):
        q = Quiver(("u", "v"), (("a", "u", "v"),))
        path = write(tmp_path, "q.txt", io.dump_quiver(q))
        code = main(
            [
                "quiver", "build", "--quiver", path, "--type", "deformed",
                "--cap", "2", "--weights", "u:1 v:-1",
            ]
        )
        assert code == 0
        assert "deformed algebra" in capsys.readouterr().out

    def test_double_verify_and_almcybe(self, tmp_path, capsys):
        algebra = polynomial_quotient_algebra(5)
        algebra_path = write(
            tmp_path, "alg.txt", io.dump_associative_algebra(algebra)
        )
        db = one_variable_lambda_bracket(5, Fraction(1))
        bracket_path = write(
            tmp_path, "br.txt", io.dump_tensor_map(db.as_tensor_map())
        )
        assert main(["double", "verify", "--algebra", algebra_path, "--bracket", bracket_path]) == 0
        assert "double bracket axioms" in capsys.readouterr().out
        assert main(["double", "almcybe", "--algebra", algebra_path, "--bracket", bracket_path]) == 0
        assert "one-sided multiplication" in capsys.readouterr().out

    def test_double_verify_refuses_a_marker_in_a_quotient(self, tmp_path, capsys):
        text = io.dump_associative_algebra(polynomial_quotient_algebra(2))
        algebra_path = write(tmp_path, "alg.txt", text + "table: 1 1 -> !overflow\n")
        db = one_variable_lambda_bracket(2, Fraction(1))
        bracket_path = write(tmp_path, "br.txt", io.dump_tensor_map(db.as_tensor_map()))
        assert main(["double", "verify", "--algebra", algebra_path, "--bracket", bracket_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alg.txt:11: an overflow marker needs a window pair past the cap" in captured.err

    def test_operad_classify_pass_and_fail(self, tmp_path, capsys):
        jac = write(
            tmp_path, "jac.txt", io.dump_relation_vectors([operad.jacobi_vector()])
        )
        assert main(["operad", "classify", "--sym", "skew", "--relation", jac]) == 0
        assert "operad of Lie algebras" in capsys.readouterr().out
        assoc = write(
            tmp_path,
            "assoc.txt",
            io.dump_relation_vectors([operad.associativity_vector()]),
        )
        assert main(["operad", "classify", "--sym", "none", "--relation", assoc]) == 1
        out = capsys.readouterr().out
        assert "not distributive" in out
        assert "violated:" in out

    def test_operad_classify_wrong_length(self, tmp_path, capsys):
        short = write(
            tmp_path, "short.txt", io.dump_relation_vectors([[Fraction(1)]])
        )
        assert main(["operad", "classify", "--sym", "skew", "--relation", short]) == 2
        assert "coordinates" in capsys.readouterr().err

    def test_operad_nullspace(self, capsys):
        assert main(["operad", "nullspace", "--sym", "skew"]) == 0
        out = capsys.readouterr().out
        assert "distributive nullspace dimension: 1" in out
        assert "basis vector:" in out

    def test_linfty_check(self, tmp_path, capsys):
        path = write(
            tmp_path, "fam.txt", io.dump_linfty_family(homotopy_fixture())
        )
        assert main(["linfty", "check", "--family", path, "--max-m", "3"]) == 0
        assert "all identities hold" in capsys.readouterr().out

    def test_ybe_infty_cybe_and_flag(self, tmp_path, capsys):
        lie_path = write(tmp_path, "gl.txt", io.dump_lie_structure(gl_lie(2)))
        fam = RnFamily(4, {2: {(1, 1): Fraction(1)}})
        fam_path = write(tmp_path, "fam.txt", io.dump_rn_family(fam))
        base = [
            "ybe-infty", "check", "--kind", "cybe", "--algebra", lie_path,
            "--family", fam_path, "--n", "3",
        ]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "governing reading: shuffle" in out
        assert "reading literal:" in out
        assert main(base + ["--literal-shuffles"]) == 0
        assert "governing reading: literal" in capsys.readouterr().out

    def test_ybe_infty_aybe(self, tmp_path, capsys):
        algebra_path = write(
            tmp_path, "mat.txt", io.dump_associative_algebra(matrix_algebra(2))
        )
        fam = RnFamily(4, {2: {(1, 1): Fraction(1)}})
        fam_path = write(tmp_path, "fam.txt", io.dump_rn_family(fam))
        code = main(
            [
                "ybe-infty", "check", "--kind", "aybe", "--algebra", algebra_path,
                "--family", fam_path, "--n", "3", "--emit-witness",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "check: aybe-infty" in out
        assert "full terms of reading cyclic:" in out

    def test_ybe_infty_aybe_past_the_window_is_an_input_error(self, tmp_path, capsys):
        # the residual multiplies a by aa on the two-loop path algebra at cap 2
        loops = Quiver(("v",), (("a", "v", "v"), ("b", "v", "v")))
        algebra_path = write(
            tmp_path, "loops.txt", io.dump_associative_algebra(path_algebra(loops, 2))
        )
        fam_path = write(
            tmp_path, "fam.txt", "ybalg schema/1 rn-family\ndim: 7\ncomponent 2: 1,3 : 1\n"
        )
        code = main(
            [
                "ybe-infty", "check", "--kind", "aybe", "--algebra", algebra_path,
                "--family", fam_path, "--n", "3",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "error: the residual needs a product outside the window:"
            " product a * aa leaves the window\n"
        )

    def test_ybe_infty_flavor_mismatch(self, tmp_path, capsys):
        lie_path = write(tmp_path, "gl.txt", io.dump_lie_structure(gl_lie(2)))
        fam_path = write(
            tmp_path,
            "fam.txt",
            io.dump_rn_family(RnFamily(4, {2: {(1, 1): Fraction(1)}})),
        )
        code = main(
            [
                "ybe-infty", "check", "--kind", "aybe", "--algebra", lie_path,
                "--family", fam_path, "--n", "3",
            ]
        )
        assert code == 2
        assert "flavor assoc" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "components, n, cyclic, verdict, code",
        [
            ("component 1: 1 : 1\ncomponent 2: 0,3 : 1\n", 2,
             ["reading cyclic: nonzero (2 terms)", "  witness: (1,3) -> 1"], "FAIL", 1),
            ("component 1: 1 : 1\ncomponent 2: 0,3 : 1\n", 3,
             ["reading cyclic: nonzero (3 terms)", "  witness: (0,3,3) -> 1"], "FAIL", 1),
            ("component 2: 1,2 : 1/2\ncomponent 3: 2,0,0 : 1\n", 2,
             ["reading cyclic: zero"], "PASS", 0),
            ("component 2: 1,2 : 1/2\ncomponent 3: 2,0,0 : 1\n", 3,
             ["reading cyclic: zero"], "PASS", 0),
        ],
    )
    def test_ybe_infty_aybe_graded_families(
        self, tmp_path, capsys, components, n, cyclic, verdict, code
    ):
        # the gl(1|1) grading of the matrix units; the expected lines are those
        # the residual gave when the same degrees were passed to it separately
        algebra_path = write(
            tmp_path, "mat.txt", io.dump_associative_algebra(matrix_algebra(2))
        )
        fam_path = write(
            tmp_path, "fam.txt",
            "ybalg schema/1 rn-family\ndim: 4\ndegrees: 0 1 -1 0\n" + components,
        )
        argv = [
            "ybe-infty", "check", "--kind", "aybe", "--algebra", algebra_path,
            "--family", fam_path, "--n", str(n),
        ]
        assert main(argv) == code
        arities = "1,2" if "component 1" in components else "2,3"
        expected = [
            "--- ybe-infty-check ---",
            "check: aybe-infty", f"n: {n}", "dim: 4", f"arities: {arities}", *cyclic,
            "governing reading: cyclic", f"result: {verdict}",
            "convention cyclic reading: sum over the n cyclic rotations of range(n)",
            "convention shared slot: both tensors of a split use the first selected slot;"
            " the overlap carries the supercommutator/product",
            "convention split sign: (-1)^i on the (i, n+1-i) split",
            f"verdict ybe-infty-check: {verdict}", f"result: {verdict}",
        ]
        assert capsys.readouterr().out.endswith("\n".join(expected) + "\n")

    @pytest.mark.parametrize(
        "kind, family, message",
        [
            (
                "aybe",
                "dim: 4\ndegrees: 1 -1 0 0\ncomponent 2: 0,1 : 1\n",
                "error: family degrees do not grade the products:"
                " e11 * e11 is not degree-homogeneous\n",
            ),
            (
                "aybe",
                "dim: 2\ncomponent 2: 0,1 : 1\n",
                "error: family dim 2 does not match the algebra's dim 4\n",
            ),
            (
                "cybe",
                "dim: 2\ncomponent 2: 0,1 : 1\n",
                "error: family dim 2 does not match the algebra's dim 4\n",
            ),
            (
                "cybe",
                "dim: 4\ndegrees: 0 1 -1 0\ncomponent 2: 1,2 : 1\n",
                "error: family degrees (0, 1, -1, 0) do not match"
                " the algebra's (0, 0, 0, 0)\n",
            ),
        ],
    )
    def test_ybe_infty_family_refusals_say_what_differs(
        self, tmp_path, capsys, kind, family, message
    ):
        structure = matrix_algebra(2) if kind == "aybe" else gl_lie(2)
        dump = io.dump_associative_algebra if kind == "aybe" else io.dump_lie_structure
        algebra_path = write(tmp_path, "algebra.txt", dump(structure))
        fam_path = write(tmp_path, "fam.txt", "ybalg schema/1 rn-family\n" + family)
        for n in ("2", "3"):
            code = main(
                [
                    "ybe-infty", "check", "--kind", kind, "--algebra", algebra_path,
                    "--family", fam_path, "--n", n,
                ]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.err == message
            assert captured.out == ""

    def test_schurweyl_decompose(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "diag.txt",
            io.dump_tensor_map(diagonal_unitary_qybe_solution(2)),
        )
        assert main(["schurweyl", "decompose", "--R", path, "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert "lambda (2,1): rho dim 2, comodule dim 2" in out
        assert "double commutant closure: PASS" in out

    def test_schurweyl_hrdim(self, tmp_path, capsys):
        path = write(tmp_path, "id.txt", io.dump_tensor_map(TensorMap.identity(2, 2)))
        assert main(["schurweyl", "hrdim", "--R", path, "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "oracle by relation span: 10" in out
        assert "oracle by commutant dimension: 10" in out

    def test_suite_writes_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        assert main(["suite", "--out", str(out_path)]) == 0
        stdout = capsys.readouterr().out
        assert out_path.read_text() == stdout
        assert "checks: %d" % len(harness.DEFAULT_CHECKS) in stdout


def _representative_argv(row, optional=True):
    """A command line for a row: every required field, its optional ones and flags."""
    _, words, _, fields, flags, _ = row
    argv = list(words)
    for name, type_, choices, _, _, required, _ in fields:
        if required or optional:
            value = choices[0] if choices else {None: f"{name}.txt", int: "2"}.get(type_, "x")
            argv += ["--" + name, value]
    if optional:
        argv += ["--" + name for name, _ in flags]
    return argv


VERB_ROWS = [row for row in (*harness.CHECKS, cli._SUITE) if row[1]]


class TestCliParseParity:
    """``main`` parses one verb alone; the full tree is the reference."""

    @pytest.mark.parametrize("optional", [True, False])
    @pytest.mark.parametrize("row", VERB_ROWS, ids=lambda row: " ".join(row[1]))
    def test_one_verb_parse_gives_the_trees_job(self, row, optional, monkeypatch):
        argv = _representative_argv(row, optional)
        expected = cli._spec_from_args(build_parser().parse_args(argv))
        specs = []

        def record(spec):
            specs.append(spec)
            return Report(harness.VERSION, (), ())

        def refuse():
            raise AssertionError("a well-formed command line built the full tree")

        monkeypatch.setattr(cli, "run_suite", record)
        monkeypatch.setattr(cli, "build_parser", refuse)
        assert main(argv) == 0
        assert specs == [expected]

    @pytest.mark.parametrize("argv", [
        [],
        ["--help"],
        ["ybe"],
        ["ybe", "--help"],
        ["ybe", "chek"],
        ["ybe", "check", "--help"],
        ["ybe", "check"],
        ["ybe", "check", "--kind", "nope", "--input", "x"],
        ["ybe", "check", "--kind", "cybe", "--input", "x", "--bogus"],
    ])
    def test_help_and_errors_match_the_tree(self, argv, capsys):
        outcomes = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exit_info:
                parse(list(argv))
            outcomes.append((exit_info.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] in (0, 2)

    def test_a_call_builds_one_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["operad", "nullspace", "--sym", "sym"]) == 0
        assert built == ["ybalg operad nullspace"]
        built.clear()
        build_parser()
        assert len(built) == 23


#: every command line, in help order, with (option, required, choices, default)
CLI_SURFACE = [
    ("ybe check", [
        ("--kind", True, ("cybe", "aybe", "qybe"), None),
        ("--input", True, None, None),
        ("--emit-witness", False, None, False),
    ]),
    ("ybe cae", [("--input", True, None, None), ("--emit-witness", False, None, False)]),
    ("poisson extend", [
        ("--r", True, None, None),
        ("--lhs", True, None, None),
        ("--rhs", True, None, None),
    ]),
    ("poisson verify", [("--r", True, None, None), ("--max-degree", True, None, None)]),
    ("quiver build", [
        ("--quiver", True, None, None),
        ("--type", True, ("path", "preprojective", "deformed"), None),
        ("--cap", True, None, None),
        ("--weights", False, None, ""),
    ]),
    ("double verify", [("--algebra", True, None, None), ("--bracket", True, None, None)]),
    ("double almcybe", [("--algebra", True, None, None), ("--bracket", True, None, None)]),
    ("operad classify", [
        ("--sym", True, ("none", "sym", "skew"), None),
        ("--relation", True, None, None),
    ]),
    ("operad nullspace", [("--sym", True, ("none", "sym", "skew"), None)]),
    ("linfty check", [("--family", True, None, None), ("--max-m", True, None, None)]),
    ("ybe-infty check", [
        ("--kind", True, ("cybe", "aybe"), None),
        ("--algebra", True, None, None),
        ("--family", True, None, None),
        ("--n", True, None, None),
        ("--literal-shuffles", False, None, False),
        ("--emit-witness", False, None, False),
    ]),
    ("schurweyl decompose", [("--R", True, None, None), ("--m", True, None, None)]),
    ("schurweyl hrdim", [("--R", True, None, None), ("--m", True, None, None)]),
    ("suite", [
        ("--out", False, None, None),
        ("--literal-shuffles", False, None, False),
        ("--emit-witness", False, None, False),
    ]),
]


def test_cli_surface_is_pinned():
    def subcommands(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices
        return {}

    def options(parser):
        return [
            (action.option_strings[0], action.required,
             action.choices and tuple(action.choices), action.default)
            for action in parser._actions
            if action.option_strings and action.dest != "help"
        ]

    surface = []
    for command, command_parser in subcommands(build_parser()).items():
        verbs = subcommands(command_parser)
        if not verbs:
            surface.append((command, options(command_parser)))
        for verb, verb_parser in verbs.items():
            surface.append((f"{command} {verb}", options(verb_parser)))
    assert surface == CLI_SURFACE
