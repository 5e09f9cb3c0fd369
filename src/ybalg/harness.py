"""Job specifications, deterministic reports, and the canned check suite.

A :class:`JobSpec` names checks to run, the files they read, their
truncation/degree parameters, and the convention flags in force.  Running it
yields a :class:`Report` whose text is byte-for-byte reproducible: every
check is exact arithmetic, every collection is iterated in sorted order, and
the one randomized check draws from an explicitly seeded generator.

Verdicts are three-valued: ``PASS``, ``FAIL`` (with a witness in the section
body), or ``precondition-unmet`` when a check's mathematical hypothesis
fails before the check proper can run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import double, frt, io, linfty, operad, twisted, ybe, ybe_infty
from .algebras import (
    deformed_preprojective_algebra,
    path_algebra,
    preprojective_algebra,
    structural_primeness_report,
)
from .fixtures import (
    SkewOrbitForm,
    diagonal_unitary_qybe_solution,
    orbit_grid,
    orbit_values,
    random_skew_map,
    search_skew_solutions,
    skew_entry_orbits,
)
from .tensoralg import TensorMap

VERSION = "0.1.0"

#: hard ceilings on the brute-force parameters; everything past them is
#: rejected up front with a cost estimate instead of hanging.
BOUNDS = {"dim": 3, "degree": 4, "m": 4, "cap": 5}

SEARCH_LIMIT = 2_000_000


def require_bound(name: str, value: int, cost: str, path: str | None = None) -> None:
    """Refuse ``value`` past ``BOUNDS[name]``; with ``path``, at its ``name`` line."""
    bound = BOUNDS[name]
    if value > bound:
        message = (
            f"{name}={value} exceeds the supported bound {bound}"
            f" (estimated cost: {cost})"
        )
        if path is not None:
            raise io.field_error(path, name, message)
        raise ValueError(message)


def fixture_search(kind: str, dim: int = 2, entry_values=(-1, 0, 1)):
    """Exact solutions of one residual among skew maps with grid entries.

    The search enumerates every skew map whose free entries take values in
    ``entry_values`` and keeps those with an identically zero residual.  The
    candidate count is checked against :data:`SEARCH_LIMIT` before any work
    happens.
    """
    if kind not in ("cybe", "aybe"):
        raise ValueError(f"fixture search supports 'cybe' or 'aybe', not {kind!r}")
    require_bound("dim", dim, f"{len(entry_values)} ** (free skew entries of dim {dim})")
    orbits, _ = skew_entry_orbits(dim)
    count = len(entry_values) ** len(orbits)
    if count > SEARCH_LIMIT:
        raise ValueError(
            f"search space holds {count} candidate maps ({len(entry_values)} values"
            f" on {len(orbits)} free entries), above the limit {SEARCH_LIMIT}"
        )
    solutions, _ = search_skew_solutions(kind, dim, entry_values)
    return solutions


# ---------------------------------------------------------------------------
# job plumbing


@dataclass(frozen=True)
class Job:
    """One check: its id, named input files, and string parameters."""

    check: str
    inputs: tuple[tuple[str, str], ...] = ()
    params: tuple[tuple[str, str], ...] = ()

    def input(self, name: str) -> str:
        for key, value in self.inputs:
            if key == name:
                return value
        raise ValueError(f"check {self.check!r} needs an input named {name!r}")

    def param(self, name: str, default: str | None = None) -> str:
        for key, value in self.params:
            if key == name:
                return value
        if default is None:
            raise ValueError(f"check {self.check!r} needs a parameter named {name!r}")
        return default


@dataclass(frozen=True)
class JobSpec:
    """Checks to run plus the convention flags and output destination."""

    jobs: tuple[Job, ...]
    literal_shuffles: bool = False
    emit_witness: bool = False
    output_path: str | None = None


@dataclass(frozen=True)
class Report:
    """Per-check verdicts and section bodies, rendered deterministically."""

    version: str
    verdicts: tuple[tuple[str, str], ...]
    sections: tuple[tuple[str, tuple[str, ...]], ...]
    conventions: tuple[tuple[str, str], ...] = ()

    @property
    def passed(self) -> bool:
        return all(verdict == "PASS" for _, verdict in self.verdicts)

    def lines(self) -> list[str]:
        out = [
            "ybalg suite report",
            f"version: {self.version}",
            f"checks: {len(self.verdicts)}",
        ]
        for key, value in self.conventions:
            out.append(f"convention {key}: {value}")
        for (name, body), (_, verdict) in zip(self.sections, self.verdicts):
            out.append(f"--- {name} ---")
            out.extend(body)
            out.append(f"verdict {name}: {verdict}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def run_suite(spec: JobSpec) -> Report:
    """Run every job in order and assemble the report."""
    verdicts: list[tuple[str, str]] = []
    sections: list[tuple[str, tuple[str, ...]]] = []
    for job in spec.jobs:
        runner = _RUNNERS.get(job.check)
        if runner is None:
            known = ", ".join(sorted(_RUNNERS))
            raise ValueError(f"unknown check {job.check!r} (known: {known})")
        verdict, body = runner(job, spec)
        verdicts.append((job.check, verdict))
        sections.append((job.check, tuple(body)))
    flags = (
        ("shuffle reading", "literal" if spec.literal_shuffles else "shuffle"),
        ("witness emission", "on" if spec.emit_witness else "off"),
    )
    report = Report(VERSION, tuple(verdicts), tuple(sections), flags)
    if spec.output_path:
        Path(spec.output_path).write_text(report.text())
    return report


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _residual_verdict(report: ybe.ResidualReport) -> str:
    if any(not ok for _, ok in report.preconditions):
        return "precondition-unmet"
    return _verdict(report.passed)


def _witness_map(lines: list[str], title: str, tmap: TensorMap) -> None:
    lines.append(f"{title}:")
    lines.extend("  " + text for text in io.dump_tensor_map(tmap).splitlines())


# ---------------------------------------------------------------------------
# file-driven checks (one per command-line verb)


def _run_ybe_check(job: Job, spec: JobSpec):
    kind = job.param("kind")
    if kind not in ("cybe", "aybe", "qybe"):
        raise ValueError(f"kind must be cybe, aybe, or qybe, not {kind!r}")
    r = io.load_square_map(job.input("input"))
    report = ybe.check(kind, r)
    lines = report.lines()
    if spec.emit_witness:
        _witness_map(lines, "residual map", report.residual)
    return _residual_verdict(report), lines


def _run_ybe_cae(job: Job, spec: JobSpec):
    r = io.load_square_map(job.input("input"))
    report = ybe.check("cae", r)
    lines = report.lines()
    if spec.emit_witness:
        _witness_map(lines, "residual map", report.residual)
    return _residual_verdict(report), lines


def _run_poisson_extend(job: Job, spec: JobSpec):
    r = io.load_square_map(job.input("r"))
    lhs = io.parse_word(job.param("lhs"), "--lhs")
    rhs = io.parse_word(job.param("rhs"), "--rhs")
    bracket = twisted.TensorWordBracket(r)
    value = bracket.extend(lhs, rhs)
    lines = [
        f"extended bracket on words, dim {r.dim}",
        f"lhs: ({io.word_str(lhs)})",
        f"rhs: ({io.word_str(rhs)})",
    ]
    if value.is_zero():
        lines.append("value: 0")
    else:
        for word, coeff in sorted(value.terms.items()):
            lines.append(f"term: ({io.word_str(word)}) -> {coeff}")
    return "PASS", lines


def _run_poisson_verify(job: Job, spec: JobSpec):
    r = io.load_square_map(job.input("r"))
    max_degree = int(job.param("max-degree"))
    require_bound("degree", max_degree, f"word tuples grow as {r.dim}^degree")
    report = twisted.check_bracket_extension(r, max_degree)
    return _verdict(report.passed), report.lines()


def _run_quiver_build(job: Job, spec: JobSpec):
    q = io.load_quiver(job.input("quiver"))
    kind = job.param("type")
    cap = int(job.param("cap"))
    # the preprojective constructions run on the doubled quiver
    arrows = len(q.edges) * (1 if kind == "path" else 2)
    require_bound("cap", cap, f"paths grow as {arrows}^cap, the product table as their square")
    if kind == "path":
        algebra = path_algebra(q, cap)
    elif kind == "preprojective":
        algebra = preprojective_algebra(q, cap)
    elif kind == "deformed":
        weights: dict[str, Fraction] = {}
        for token in job.param("weights", "").split():
            name, sep, value = token.partition(":")
            if not sep:
                raise ValueError(f"weights want 'vertex:value' tokens, got {token!r}")
            weights[name] = Fraction(value)
        algebra = deformed_preprojective_algebra(q, weights, cap)
    else:
        raise ValueError(f"type must be path, preprojective, or deformed, not {kind!r}")
    lines = [
        f"{kind} algebra on {len(q.vertices)} vertices, {len(q.edges)} arrows,"
        f" cap {cap}",
        f"truncation mode: {algebra.mode}",
        f"basis dimension: {algebra.nbasis}",
    ]
    shown = ", ".join(algebra.labels[:12])
    suffix = ", ..." if algebra.nbasis > 12 else ""
    lines.append(f"basis: {shown}{suffix}")
    lines.extend(structural_primeness_report(q))
    return "PASS", lines


def _load_double_bracket(job: Job):
    algebra = io.load_associative_algebra(job.input("algebra"))
    r = io.load_square_map(job.input("bracket"))
    return algebra, double.DoubleBracket.from_tensor_map(algebra, r)


def _run_double_verify(job: Job, spec: JobSpec):
    algebra, db = _load_double_bracket(job)
    report = double.check_double_axioms(db)
    return _verdict(report.passed), report.lines(algebra)


def _run_double_almcybe(job: Job, spec: JobSpec):
    _, db = _load_double_bracket(job)
    report = double.almcybe_check(db)
    if not (report.leibniz_precondition and report.cybe_precondition):
        return "precondition-unmet", report.lines()
    return _verdict(report.passed), report.lines()


_SYM_NAMES = {"none": "none", "sym": "symmetric", "skew": "skew"}


def _run_operad_classify(job: Job, spec: JobSpec):
    sym = _SYM_NAMES.get(job.param("sym"))
    if sym is None:
        raise ValueError("sym must be none, sym, or skew")
    vectors = io.load_relation_vectors(job.input("relation"))
    basis = operad.relation_basis(sym)
    for vec in vectors:
        if len(vec) != len(basis):
            raise ValueError(
                f"relation vectors need {len(basis)} coordinates for symmetry"
                f" {sym!r}, got {len(vec)}"
            )
    result = operad.classify(sym, vectors)
    return _verdict(result.verdict != "not distributive"), result.lines(basis)


def _run_operad_nullspace(job: Job, spec: JobSpec):
    sym = _SYM_NAMES.get(job.param("sym"))
    if sym is None:
        raise ValueError("sym must be none, sym, or skew")
    system = operad.full_constraint_system(sym)
    lines = [
        f"symmetry: {sym}",
        f"relation coordinates: {len(operad.relation_basis(sym))}",
        f"distributive nullspace dimension: {system.nullspace_dim}",
    ]
    for vec in system.nullspace_basis:
        lines.append("basis vector: " + " ".join(str(c) for c in vec))
    return "PASS", lines


def _run_linfty_check(job: Job, spec: JobSpec):
    fam = io.load_linfty_family(job.input("family"))
    max_m = int(job.param("max-m"))
    require_bound("m", max_m, "argument tuples grow as (basis size)^m * m!")
    ok, witness = linfty.family_is_linfty(fam, max_m)
    lines = [
        f"homotopy identities through arity {max_m}"
        f" on {len(fam.basis.labels)} generators",
        f"operations present: {fam.arities() or 'none'}",
    ]
    if ok:
        lines.append("all identities hold")
    else:
        m, args = witness
        labels = ", ".join(fam.basis.labels[a] for a in args)
        lines.append(f"first failing identity: m={m} on ({labels})")
    return _verdict(ok), lines


def _run_ybe_infty_check(job: Job, spec: JobSpec):
    kind = job.param("kind")
    n = int(job.param("n"))
    require_bound("degree", n, "selections grow as n! and words as dim^n")
    fam = io.load_rn_family(job.input("family"))
    if kind == "cybe":
        g = io.load_lie_structure(job.input("algebra"))
        report = ybe_infty.cybe_infty_residual(
            g, fam, n, literal_shuffles=spec.literal_shuffles
        )
    elif kind == "aybe":
        algebra = io.load_associative_algebra(job.input("algebra"))
        report = ybe_infty.aybe_infty_residual(algebra, fam, n)
    else:
        raise ValueError(f"kind must be cybe or aybe, not {kind!r}")
    lines = report.lines()
    if spec.emit_witness:
        for reading in report.readings:
            lines.append(f"full terms of reading {reading.name}:")
            if not reading.terms:
                lines.append("  (zero)")
            for word, coeff in reading.terms:
                lines.append(f"  ({io.word_str(word)}) -> {coeff}")
    return _verdict(report.passed), lines


def _run_schurweyl_decompose(job: Job, spec: JobSpec):
    path = job.input("R")
    r = io.load_square_map(path)
    m = int(job.param("m"))
    require_bound("m", m, f"the commutant solve has {r.dim}^(2m) unknowns")
    require_bound("dim", r.dim, f"the commutant solve has {r.dim ** (2 * m)} unknowns", path)
    try:
        report = frt.schur_weyl_decompose(r, m, r.dim)
    except ValueError as err:
        return "precondition-unmet", [f"precondition: {err}"]
    return _verdict(report.passed), report.lines()


def _run_schurweyl_hrdim(job: Job, spec: JobSpec):
    path = job.input("R")
    r = io.load_square_map(path)
    m = int(job.param("m"))
    require_bound("m", m, f"the relation span has {r.dim}^(2m) columns")
    require_bound("dim", r.dim, f"the relation span has {r.dim ** (2 * m)} columns", path)
    try:
        by_relations, by_commutant = frt.hr_dimension_oracles(r, m)
    except ValueError as err:
        return "precondition-unmet", [f"precondition: {err}"]
    lines = [
        f"coefficient-algebra component dimension in degree {m}, dimV {r.dim}",
        f"free dimension (dimV^2)^m: {(r.dim ** 2) ** m}",
        f"oracle by relation span: {by_relations}",
        f"oracle by commutant dimension: {by_commutant}",
        f"oracles agree: {by_relations == by_commutant}",
    ]
    return _verdict(by_relations == by_commutant), lines


# ---------------------------------------------------------------------------
# canned checks for the default suite (no file inputs, fully deterministic)


def _run_cae_random(job: Job, spec: JobSpec):
    count = int(job.param("count", "102"))
    seed = int(job.param("seed", "20260814"))
    rng = random.Random(seed)
    # every map drawn is skew, so the form gives its cae defect exactly
    forms = {dim: SkewOrbitForm(ybe.PRODUCTS["cae"], dim) for dim in (1, 2, 3)}
    failures = []
    per_dim = {1: 0, 2: 0, 3: 0}
    for index in range(count):
        dim = index % 3 + 1
        per_dim[dim] += 1
        r = random_skew_map(dim, rng)
        witness = forms[dim](orbit_values(r)).first_nonzero()
        if witness is not None and len(failures) < 3:
            failures.append((dim, witness))
    lines = [
        f"combination identity on {count} seeded random skew maps"
        f" (seed {seed}; dims 1-3: {per_dim[1]}/{per_dim[2]}/{per_dim[3]})",
        f"failures: {len(failures)}",
    ]
    for dim, witness in failures:
        lines.append(f"failed at dim {dim}, witness {ybe.witness_str(witness)}")
    return _verdict(not failures), lines


def _run_fixture_search(job: Job, spec: JobSpec):
    cybe_solutions = fixture_search("cybe", 2)
    aybe_solutions = fixture_search("aybe", 2)
    zero = TensorMap.zero(2, 2, 2)
    has_zero = zero in cybe_solutions
    cybe_set = set(cybe_solutions)
    subset = all(r in cybe_set for r in aybe_solutions)
    lines = [
        "skew grid search, dim 2, entries {-1, 0, 1}",
        f"classical solutions: {len(cybe_solutions)}",
        f"associative solutions: {len(aybe_solutions)}",
        f"zero map among classical solutions: {has_zero}",
        f"associative solutions contained in classical solutions: {subset}",
    ]
    ok = has_zero and subset and bool(cybe_solutions)
    return _verdict(ok), lines


def _run_double_lie_iff(job: Job, spec: JobSpec):
    # every grid map is skew, so each verdict of dbjac_to_aybe reduces to
    # one of these residuals vanishing
    jacobi = SkewOrbitForm(double.JACOBI_PRODUCTS, 2)
    aybe = SkewOrbitForm(ybe.PRODUCTS["aybe"], 2)
    transform = SkewOrbitForm(double.TRANSFORM_PRODUCTS, 2)
    mismatches = 0
    transform_failures = 0
    solutions = 0
    total = 0
    for values in orbit_grid(2, (-1, 0, 1)):
        total += 1
        double_lie = jacobi(values).is_zero()
        if double_lie != aybe(values).is_zero():
            mismatches += 1
        if double_lie:
            solutions += 1
        if not transform(values).is_zero():
            transform_failures += 1
    lines = [
        f"skew grid, dim 2: {total} maps, {solutions} induce a double Lie bracket",
        f"double-Lie <=> (skew and zero associative residual) mismatches: {mismatches}",
        f"residual-transform equalities failing: {transform_failures}",
    ]
    return _verdict(mismatches == 0 and transform_failures == 0), lines


def _run_lambda_almcybe(job: Job, spec: JobSpec):
    power = int(job.param("power", "5"))
    lam = Fraction(job.param("lam", "1"))
    db = double.one_variable_lambda_bracket(power, lam)
    axioms = double.check_double_axioms(db)
    comparison = double.almcybe_check(db)
    lines = [f"one-variable bracket with parameter {lam} on a degree-{power} quotient"]
    lines.extend(axioms.lines(db.algebra))
    lines.extend(comparison.lines())
    return _verdict(axioms.passed and comparison.passed), lines


def _run_operad_classification(job: Job, spec: JobSpec):
    cases = (
        ("skew", [operad.jacobi_vector()], "Lie algebras"),
        ("skew", [], "skew magmas"),
        ("none", [operad.lie_admissible_vector()], "Lie-admissible algebras"),
        ("none", [operad.associativity_vector()], "not distributive"),
        ("symmetric", [], "symmetric magmas"),
    )
    lines = []
    ok = True
    for sym, vectors, expected in cases:
        result = operad.classify(sym, vectors)
        agree = result.verdict == expected
        ok = ok and agree
        label = "jacobi" if vectors and sym == "skew" else (
            "admissible" if expected.startswith("Lie-adm") else (
                "associativity" if expected == "not distributive" else "empty"))
        lines.append(
            f"{sym} + {label} relation -> {result.verdict}"
            f" (expected {expected}): {'ok' if agree else 'MISMATCH'}"
        )
    for sym, expected_dim in (("none", 1), ("symmetric", 0), ("skew", 1)):
        dim = operad.full_constraint_system(sym).nullspace_dim
        agree = dim == expected_dim
        ok = ok and agree
        lines.append(
            f"distributive nullspace dimension for {sym}: {dim}"
            f" (expected {expected_dim}): {'ok' if agree else 'MISMATCH'}"
        )
    return _verdict(ok), lines


def _run_linfty_extension(job: Job, spec: JobSpec):
    fam = linfty.homotopy_fixture()
    ok, _ = linfty.family_is_linfty(fam, 3)
    report = linfty.product_extension_check(fam, max_m=3, cap=3)
    lines = [f"homotopy fixture satisfies the identities through arity 3: {ok}"]
    lines.extend(report.lines())
    return _verdict(ok and report.passed), lines


def _run_ybe_infty_classical(job: Job, spec: JobSpec):
    g = ybe_infty.gl_lie(2)
    r2 = {(1, 1): Fraction(1)}  # the nilpotent generator paired with itself
    fam = ybe_infty.RnFamily(4, {2: dict(r2)})
    classical_report = ybe_infty.cybe_infty_residual(
        g, fam, 3, literal_shuffles=spec.literal_shuffles
    )
    algebra = ybe_infty.matrix_algebra(2)
    associative_report = ybe_infty.aybe_infty_residual(algebra, fam, 3)
    agree_c = (
        dict(classical_report.readings[0].terms)
        == ybe_infty.classical_cybe_element(g, r2)
    )
    agree_a = (
        dict(associative_report.readings[0].terms)
        == ybe_infty.classical_aybe_element(algebra, r2)
    )
    lines = ["[classical flavor]"]
    lines.extend(classical_report.lines())
    lines.append("[associative flavor]")
    lines.extend(associative_report.lines())
    lines.append(f"shuffle reading equals the classical bracket sum: {agree_c}")
    lines.append(f"cyclic reading equals the classical product sum: {agree_a}")
    ok = (
        agree_c
        and agree_a
        and classical_report.passed
        and associative_report.passed
    )
    return _verdict(ok), lines


def _run_schurweyl_anchor(job: Job, spec: JobSpec):
    identity = TensorMap.identity(2, 2)
    report = frt.schur_weyl_decompose(identity, 3, 2)
    dims = [frt.hr_graded_dimension(identity, m) for m in (1, 2, 3)]
    lines = report.lines()
    lines.append(
        f"coefficient-algebra dimensions m=1..3: {dims} (expected [4, 10, 20])"
    )
    return _verdict(report.passed and dims == [4, 10, 20]), lines


def _run_double_commutant(job: Job, spec: JobSpec):
    twists = (
        ("identity", TensorMap.identity(2, 2)),
        ("diagonal", diagonal_unitary_qybe_solution(2)),
    )
    lines = []
    ok = True
    for name, twist in twists:
        for m in (1, 2, 3):
            report = frt.schur_weyl_decompose(twist, m, 2)
            ok = ok and report.passed and report.double_commutant_ok
            lines.append(
                f"{name} twist, m={m}: span {report.sr_span_dim},"
                f" double commutant closure"
                f" {'holds' if report.double_commutant_ok else 'FAILS'},"
                f" dimension count {'PASS' if report.passed else 'FAIL'}"
            )
    return _verdict(ok), lines


_RUNNERS = {
    "ybe-check": _run_ybe_check,
    "ybe-cae": _run_ybe_cae,
    "poisson-extend": _run_poisson_extend,
    "poisson-verify": _run_poisson_verify,
    "quiver-build": _run_quiver_build,
    "double-verify": _run_double_verify,
    "double-almcybe": _run_double_almcybe,
    "operad-classify": _run_operad_classify,
    "operad-nullspace": _run_operad_nullspace,
    "linfty-check": _run_linfty_check,
    "ybe-infty-check": _run_ybe_infty_check,
    "schurweyl-decompose": _run_schurweyl_decompose,
    "schurweyl-hrdim": _run_schurweyl_hrdim,
    "cae-random": _run_cae_random,
    "fixture-search": _run_fixture_search,
    "double-lie-iff-skew-aybe": _run_double_lie_iff,
    "lambda-almcybe": _run_lambda_almcybe,
    "operad-classification": _run_operad_classification,
    "linfty-extension": _run_linfty_extension,
    "ybe-infty-classical": _run_ybe_infty_classical,
    "schurweyl-anchor": _run_schurweyl_anchor,
    "double-commutant": _run_double_commutant,
}


DEFAULT_CHECKS = (
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


def default_suite(
    literal_shuffles: bool = False,
    emit_witness: bool = False,
    output_path: str | None = None,
) -> JobSpec:
    """The canned end-to-end suite run by the ``suite`` command."""
    jobs = tuple(Job(name) for name in DEFAULT_CHECKS)
    return JobSpec(jobs, literal_shuffles, emit_witness, output_path)
