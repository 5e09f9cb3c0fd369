"""The three benchmark workloads: input files, jobs, and expected verdicts.

A workload is a list of :class:`BenchJob`.  Each job runs one user-visible
unit of work through the program's public entry points and returns its exit
code and report text; its verdict is fixed in advance by a theorem (noted
beside each job) or by a dual oracle that the program reports.

- ``suite``: the nine canned checks through ``harness.run_suite``, the seed
  passed as ``cae-random``'s ``seed`` param.
- ``schurweyl``: ``schurweyl-decompose`` and ``schurweyl-hrdim`` at the
  dim-2 edge of ``harness.BOUNDS`` (m=4) on a +-1 and a rational unitary
  diagonal twist, plus dim 3 at m=2.  Dim 3 at m=3 and m=4 is admitted by
  ``BOUNDS`` but takes minutes, so it is not run.
- ``verbs``: every file-driven command-line verb through ``ybalg.cli.main``.
"""

from __future__ import annotations

import contextlib
import io as stdio
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs

WORKLOADS = ("suite", "schurweyl", "verbs")


@dataclass(frozen=True)
class BenchJob:
    """One timed unit of work with its expected outcome."""

    name: str
    run: Callable[[], tuple[int, str]]
    expect_code: int
    check: Callable[[str], bool] = lambda text: True


def _report_value(text: str, prefix: str) -> str:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise ValueError(f"report has no line starting with {prefix!r}")


def _decomposition_adds_up(text: str) -> bool:
    """The partition blocks account for the whole tensor power (dimV^m)."""
    total = int(_report_value(text, "total:"))
    expected = int(_report_value(text, "expected: dimV^m ="))
    dim_v = int(_report_value(text, "dimV:"))
    m = int(_report_value(text, "m:"))
    return total == expected == dim_v**m


def _oracles_agree(text: str) -> bool:
    """Relation-span and commutant dimensions coincide."""
    by_relations = _report_value(text, "oracle by relation span:")
    by_commutant = _report_value(text, "oracle by commutant dimension:")
    return by_relations == by_commutant


class _Context:
    """Writes one workload's input files and binds jobs to the program."""

    def __init__(self, ybalg_modules, root: Path, workdir: Path, seed: int):
        self.ybalg = ybalg_modules
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.seed = seed

    def write(self, name: str, text: str) -> str:
        """Write one input file; return its path relative to the checkout root."""
        path = self.workdir / name
        path.write_text(text)
        return str(path.relative_to(self.root))

    # -- writers through ybalg.io ------------------------------------------

    def tensor_map(self, name: str, dim: int, entries: dict) -> str:
        yb = self.ybalg
        return self.write(name, yb.io.dump_tensor_map(yb.tensoralg.TensorMap(dim, 2, 2, entries)))

    def assoc(self, name: str, spec: dict) -> str:
        yb = self.ybalg
        algebra = yb.algebras.TruncatedAlgebra(
            spec["labels"], spec["degrees"], spec["table"], spec["unit"],
            mode="quotient", cap=spec["cap"],
        )
        return self.write(name, yb.io.dump_associative_algebra(algebra))

    def lie(self, name: str, spec: dict) -> str:
        yb = self.ybalg
        g = yb.ybe_infty.LieStructure(spec["labels"], spec["table"], spec["degrees"])
        return self.write(name, yb.io.dump_lie_structure(g))

    # -- job runners --------------------------------------------------------

    def harness_job(self, check: str, inputs_=(), params=()) -> Callable[[], tuple[int, str]]:
        harness = self.ybalg.harness
        spec = harness.JobSpec((harness.Job(check, tuple(inputs_), tuple(params)),))

        def run() -> tuple[int, str]:
            report = harness.run_suite(spec)
            return (0 if report.passed else 1), report.text()

        return run

    def cli_job(self, argv: list[str]) -> Callable[[], tuple[int, str]]:
        cli = self.ybalg.cli

        def run() -> tuple[int, str]:
            out, err = stdio.StringIO(), stdio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue() + err.getvalue()

        return run


def _suite(ctx: _Context) -> list[BenchJob]:
    jobs = []
    for check in ctx.ybalg.harness.DEFAULT_CHECKS:
        params = (("seed", str(ctx.seed)),) if check == "cae-random" else ()
        jobs.append(BenchJob(check, ctx.harness_job(check, params=params), 0))
    return jobs


def _schurweyl(ctx: _Context) -> list[BenchJob]:
    rng = ctx.rng
    twists = (
        ("sign", 2, 4, inputs.sign_twist_eps(rng)),
        ("rational", 2, 4, inputs.rational_twist_eps(2, rng)),
        ("dim3", 3, 2, inputs.rational_twist_eps(3, rng)),
    )
    jobs = []
    for label, dim, m, eps in twists:
        path = ctx.tensor_map(f"twist-{label}.txt", dim, inputs.diagonal_twist(dim, eps))
        for check, verify in (
            ("schurweyl-decompose", _decomposition_adds_up),
            ("schurweyl-hrdim", _oracles_agree),
        ):
            run = ctx.harness_job(check, (("R", path),), (("m", str(m)),))
            jobs.append(BenchJob(f"{check}:{label}:m{m}", run, 0, verify))
    return jobs


def _verbs(ctx: _Context) -> list[BenchJob]:
    yb, rng = ctx.ybalg, ctx.rng
    skew2 = ctx.tensor_map("skew2.txt", 2, inputs.skew_map(2, rng))
    skew3 = ctx.tensor_map("skew3.txt", 3, inputs.skew_map(3, rng))
    pair = ctx.tensor_map("pair.txt", 3, inputs.unit_pair_map(3, rng))
    skew_diag = ctx.tensor_map("skewdiag.txt", 3, inputs.skew_diagonal_map(3, rng))
    twist = ctx.tensor_map(
        "twist.txt", 2, inputs.diagonal_twist(2, inputs.rational_twist_eps(2, rng))
    )
    twist3 = ctx.tensor_map(
        "twist3.txt", 3, inputs.diagonal_twist(3, inputs.rational_twist_eps(3, rng))
    )
    power = 8
    poly = ctx.assoc("poly.txt", inputs.polynomial_quotient(power))
    bracket = ctx.tensor_map(
        "bracket.txt", power, inputs.lambda_double_bracket(power, inputs.nonzero(rng))
    )
    vertices, edges = inputs.two_loop_quiver(rng)
    quiver = ctx.write("quiver.txt", yb.io.dump_quiver(yb.algebras.Quiver(vertices, edges)))
    weights = f"{vertices[0]}:{inputs.nonzero(rng)}"
    c = inputs.nonzero(rng)
    jacobi = ctx.write("jacobi.txt", yb.io.dump_relation_vectors([[c, c, c]]))
    off_line = ctx.write("offline.txt", yb.io.dump_relation_vectors([[c, -c, Fraction(0)]]))
    cone = inputs.sl2_cone(rng)
    family = ctx.write(
        "cone.txt",
        yb.io.dump_linfty_family(
            yb.linfty.MultiBracketFamily(
                yb.linfty.GradedBasis(tuple(cone["labels"]), tuple(cone["degrees"])),
                cone["ops"],
            )
        ),
    )
    size = 3
    scale = [inputs.nonzero(rng) for _ in range(size * size)]
    gl = ctx.lie("gl.txt", inputs.gl_structure(size, scale))
    matrices = ctx.assoc("matrices.txt", inputs.matrix_units(size))
    r2 = inputs.nilpotent_square(size, rng)
    rn = ctx.write("rn.txt", yb.io.dump_rn_family(yb.ybe_infty.RnFamily(size * size, {2: r2})))

    def job(name, argv, code, marker=None):
        check = (lambda text: marker in text) if marker else (lambda text: True)
        return BenchJob(name, ctx.cli_job(argv), code, check)

    return [
        # classical residual of c E_ii (x) E_ij is -c^2 E_ii (x) E_ij (x) E_ij
        job("ybe-check:cybe", ["ybe", "check", "--kind", "cybe", "--input", pair,
                               "--emit-witness"], 1, "result: FAIL"),
        job("ybe-check:aybe", ["ybe", "check", "--kind", "aybe", "--input", pair,
                               "--emit-witness"], 0, "result: PASS"),
        # diagonal maps solve the quantum equation
        job("ybe-check:qybe", ["ybe", "check", "--kind", "qybe", "--input", twist3],
            0, "result: PASS"),
        # the combination identity holds for every skew map
        job("ybe-cae:dim2", ["ybe", "cae", "--input", skew2, "--emit-witness"], 0),
        job("ybe-cae:dim3", ["ybe", "cae", "--input", skew3, "--emit-witness"], 0),
        job("poisson-extend", ["poisson", "extend", "--r", skew3, "--lhs", "0,1,2",
                               "--rhs", "2,1,0,1"], 0),
        # skew diagonal maps solve the classical equation, so the extension passes
        job("poisson-verify", ["poisson", "verify", "--r", skew_diag,
                               "--max-degree", "4"], 0),
        job("quiver-build:preprojective", ["quiver", "build", "--quiver", quiver,
                                           "--type", "preprojective", "--cap", "4"], 0),
        job("quiver-build:deformed", ["quiver", "build", "--quiver", quiver, "--type",
                                      "deformed", "--cap", "4", "--weights", weights], 0),
        # the lambda bracket on k[x]/(x^n) satisfies every axiom for every lambda
        job("double-verify", ["double", "verify", "--algebra", poly,
                              "--bracket", bracket], 0),
        job("double-almcybe", ["double", "almcybe", "--algebra", poly,
                               "--bracket", bracket], 0),
        # the skew admissible space is exactly the Jacobi line
        job("operad-classify:jacobi", ["operad", "classify", "--sym", "skew",
                                       "--relation", jacobi], 0, "operad of Lie algebras"),
        job("operad-classify:off-line", ["operad", "classify", "--sym", "skew",
                                         "--relation", off_line], 1, "not distributive"),
        job("operad-nullspace", ["operad", "nullspace", "--sym", "none"], 0),
        # a rescaled dg Lie algebra satisfies the homotopy identities
        job("linfty-check", ["linfty", "check", "--family", family, "--max-m", "4"], 0),
        # y (x) y with y^2 = 0 solves both classical equations
        job("ybe-infty-check:cybe", ["ybe-infty", "check", "--kind", "cybe", "--algebra",
                                     gl, "--family", rn, "--n", "3", "--literal-shuffles",
                                     "--emit-witness"], 0),
        job("ybe-infty-check:aybe", ["ybe-infty", "check", "--kind", "aybe", "--algebra",
                                     matrices, "--family", rn, "--n", "3"], 0),
        job("schurweyl-decompose", ["schurweyl", "decompose", "--R", twist, "--m", "3"],
            0, "double commutant closure: PASS"),
        job("schurweyl-hrdim", ["schurweyl", "hrdim", "--R", twist, "--m", "3"],
            0, "oracles agree: True"),
    ]


_JOB_LISTS = {"suite": _suite, "schurweyl": _schurweyl, "verbs": _verbs}


def build(workload: str, ybalg_modules, root: Path, seed: int) -> list[BenchJob]:
    """Write the workload's input files under ``root`` and return its jobs."""
    workdir = root / ".perfbench" / "inputs" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return _JOB_LISTS[workload](_Context(ybalg_modules, root, workdir, seed))
