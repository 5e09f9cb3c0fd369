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
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import NamedTuple

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


class Job(NamedTuple):
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


class JobSpec(NamedTuple):
    """Checks to run plus the convention flags and output destination."""

    jobs: tuple[Job, ...]
    literal_shuffles: bool = False
    emit_witness: bool = False
    output_path: str | None = None


class Report(NamedTuple):
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
        row = next((row for row in CHECKS if row[0] == job.check), None)
        if row is None:
            known = ", ".join(sorted(row[0] for row in CHECKS))
            raise ValueError(f"unknown check {job.check!r} (known: {known})")
        *_, fields, _, runner = row
        verdict, body = runner(spec, **_arguments(fields, job))
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


def _typed(name: str, type_, text: str):
    try:
        return type_(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a valid {name}: {text!r}") from None


def _arguments(fields, job: Job) -> dict:
    """The job's inputs and string params as its runner's typed, checked arguments."""
    kinds = {name: "input" if type_ is None else "param" for name, type_, *_ in fields}
    for kind, given in (("input", job.inputs), ("param", job.params)):
        for name, _ in given:
            if kinds.get(name) != kind:
                raise ValueError(f"check {job.check!r} declares no {kind} named {name!r}")
    args = {}
    for name, type_, choices, default, minimum, _, _ in fields:
        if type_ is None:
            value = job.input(name)
        else:
            value = _typed(name, type_, job.param(name, default))
            if choices and value not in choices:
                raise ValueError(f"{name} must be one of {', '.join(choices)}, not {value!r}")
            if minimum is not None and value < minimum:
                raise ValueError(f"{name} must be at least {minimum}, got {value}")
        args[name.replace("-", "_")] = value
    return args


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


# ---------------------------------------------------------------------------
# file-driven checks (one per command-line verb)


def _run_ybe_check(spec: JobSpec, kind: str, input: str):
    r = io.load_square_map(input)
    # the printed map, evaluated once, gives the witness too
    residual = ybe.evaluate(kind, r) if spec.emit_witness else None
    report = ybe.check(kind, r, residual)
    lines = report.lines()
    if residual is not None:
        lines.append("residual map:")
        lines.extend("  " + text for text in io.dump_tensor_map(residual).splitlines())
    if not all(ok for _, ok in report.preconditions):
        return "precondition-unmet", lines
    return _verdict(report.passed), lines


def _run_poisson_extend(spec: JobSpec, r: str, lhs: str, rhs: str):
    r = io.load_square_map(r)
    lhs = io.parse_word(lhs, "--lhs", r.dim)
    rhs = io.parse_word(rhs, "--rhs", r.dim)
    value = twisted.TensorWordBracket(r).extend(lhs, rhs)
    lines = [
        f"extended bracket on words, dim {r.dim}",
        f"lhs: ({io.word_str(lhs)})",
        f"rhs: ({io.word_str(rhs)})",
    ]
    if not value:
        lines.append("value: 0")
    else:
        for word, coeff in sorted(value.items()):
            lines.append(f"term: ({io.word_str(word)}) -> {coeff}")
    return "PASS", lines


def _run_poisson_verify(spec: JobSpec, r: str, max_degree: int):
    r = io.load_square_map(r)
    require_bound("degree", max_degree, f"word tuples grow as {r.dim}^degree")
    report = twisted.check_bracket_extension(r, max_degree)
    return _verdict(report.passed), report.lines()


def _vertex_weights(text: str, vertices) -> dict[str, Fraction]:
    """``--weights`` tokens ``vertex:value``, each naming a known vertex once."""
    weights: dict[str, Fraction] = {}
    for token in text.split():
        name, sep, value = token.partition(":")
        if not sep:
            raise ValueError(f"weights want 'vertex:value' tokens, got {token!r}")
        if name not in vertices:
            raise ValueError(f"weights name an unknown vertex {name!r} ({', '.join(vertices)})")
        if name in weights:
            raise ValueError(f"weights name vertex {name!r} twice")
        weights[name] = _typed(f"weight for vertex {name!r}", Fraction, value)
    return weights


def _run_quiver_build(spec: JobSpec, quiver: str, type: str, cap: int, weights: str):
    if weights.split() and type != "deformed":
        raise ValueError(f"weights apply only to deformed, not to {type}")
    q = io.load_quiver(quiver)
    # the preprojective constructions run on the doubled quiver
    arrows = len(q.edges) * (1 if type == "path" else 2)
    require_bound("cap", cap, f"paths grow as {arrows}^cap")
    if type == "path":
        algebra = path_algebra(q, cap)
    elif type == "preprojective":
        algebra = preprojective_algebra(q, cap)
    else:
        algebra = deformed_preprojective_algebra(q, _vertex_weights(weights, q.vertices), cap)
    lines = [
        f"{type} algebra on {len(q.vertices)} vertices, {len(q.edges)} arrows,"
        f" cap {cap}",
        f"truncation mode: {algebra.mode}",
        f"basis dimension: {algebra.nbasis}",
    ]
    shown = ", ".join(algebra.labels[:12])
    suffix = ", ..." if algebra.nbasis > 12 else ""
    lines.append(f"basis: {shown}{suffix}")
    lines.extend(structural_primeness_report(q))
    return "PASS", lines


def _load_double_bracket(algebra: str, bracket: str):
    algebra = io.load_associative_algebra(algebra)
    r = io.load_square_map(bracket)
    if r.dim != algebra.nbasis:
        raise io.field_error(
            bracket, "dim", f"dim must be {algebra.nbasis}, the algebra's basis size, got {r.dim}"
        )
    return algebra, double.DoubleBracket.from_tensor_map(algebra, r)


def _run_double_verify(spec: JobSpec, algebra: str, bracket: str):
    algebra, db = _load_double_bracket(algebra, bracket)
    report = double.check_double_axioms(db)
    return _verdict(report.passed), report.lines(algebra)


def _run_double_almcybe(spec: JobSpec, algebra: str, bracket: str):
    _, db = _load_double_bracket(algebra, bracket)
    report = double.almcybe_check(db)
    if not (report.leibniz_precondition and report.cybe_precondition):
        return "precondition-unmet", report.lines()
    return _verdict(report.passed), report.lines()


_SYM_NAMES = {"none": "none", "sym": "symmetric", "skew": "skew"}


def _run_operad_classify(spec: JobSpec, sym: str, relation: str):
    sym = _SYM_NAMES[sym]
    vectors = io.load_relation_vectors(relation)
    basis = operad.relation_basis(sym)
    for vec in vectors:
        if len(vec) != len(basis):
            raise ValueError(
                f"relation vectors need {len(basis)} coordinates for symmetry"
                f" {sym!r}, got {len(vec)}"
            )
    result = operad.classify(operad.full_constraint_system(sym), vectors)
    return _verdict(result.verdict != "not distributive"), result.lines(basis)


def _run_operad_nullspace(spec: JobSpec, sym: str):
    sym = _SYM_NAMES[sym]
    system = operad.full_constraint_system(sym)
    lines = [
        f"symmetry: {sym}",
        f"relation coordinates: {len(operad.relation_basis(sym))}",
        f"distributive nullspace dimension: {system.nullspace_dim}",
    ]
    for vec in system.nullspace_basis:
        lines.append("basis vector: " + " ".join(str(c) for c in vec))
    return "PASS", lines


def _run_linfty_check(spec: JobSpec, family: str, max_m: int):
    fam = io.load_linfty_family(family)
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


def _run_ybe_infty_check(spec: JobSpec, kind: str, algebra: str, family: str, n: int):
    require_bound("degree", n, "selections grow as n! and words as dim^n")
    fam = io.load_rn_family(family)
    if kind == "cybe":
        g = io.load_lie_structure(algebra)
        report = ybe_infty.cybe_infty_residual(
            g, fam, n, literal_shuffles=spec.literal_shuffles
        )
    else:
        report = ybe_infty.aybe_infty_residual(io.load_associative_algebra(algebra), fam, n)
    lines = report.lines()
    if spec.emit_witness:
        for reading in report.readings:
            lines.append(f"full terms of reading {reading.name}:")
            if not reading.terms:
                lines.append("  (zero)")
            for word, coeff in reading.terms:
                lines.append(f"  ({io.word_str(word)}) -> {coeff}")
    return _verdict(report.passed), lines


def _run_schurweyl_decompose(spec: JobSpec, R: str, m: int):
    r = io.load_square_map(R)
    require_bound("m", m, f"the commutant solve has {r.dim}^(2m) unknowns")
    require_bound("dim", r.dim, f"the commutant solve has {r.dim ** (2 * m)} unknowns", R)
    try:
        report = frt.schur_weyl_decompose(r, m)
    except frt.PreconditionError as err:
        return "precondition-unmet", [f"precondition: {err}"]
    return _verdict(report.passed), report.lines()


def _run_schurweyl_hrdim(spec: JobSpec, R: str, m: int):
    r = io.load_square_map(R)
    require_bound("m", m, f"the relation span has {r.dim}^(2m) columns")
    require_bound("dim", r.dim, f"the relation span has {r.dim ** (2 * m)} columns", R)
    try:
        by_relations, by_commutant = frt.hr_dimension_oracles(r, m)
    except frt.PreconditionError as err:
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


def _run_cae_random(spec: JobSpec, count: int, seed: int):
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


def _run_fixture_search(spec: JobSpec):
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


def _run_double_lie_iff(spec: JobSpec):
    # every grid map is skew, so each verdict of dbjac_to_aybe reduces to
    # one of these residuals vanishing; a form decides that from its echelon
    # rows (E w = 0 exactly when A w = 0) and no residual map is built
    jacobi = SkewOrbitForm(double.JACOBI_PRODUCTS, 2)
    aybe = SkewOrbitForm(ybe.PRODUCTS["aybe"], 2)
    transform = SkewOrbitForm(double.TRANSFORM_PRODUCTS, 2)
    mismatches = 0
    transform_failures = 0
    solutions = 0
    total = 0
    for values in orbit_grid(2, (-1, 0, 1)):
        total += 1
        double_lie = jacobi.vanishes(values)
        if double_lie != aybe.vanishes(values):
            mismatches += 1
        if double_lie:
            solutions += 1
        if not transform.vanishes(values):
            transform_failures += 1
    lines = [
        f"skew grid, dim 2: {total} maps, {solutions} induce a double Lie bracket",
        f"double-Lie <=> (skew and zero associative residual) mismatches: {mismatches}",
        f"residual-transform equalities failing: {transform_failures}",
    ]
    return _verdict(mismatches == 0 and transform_failures == 0), lines


def _run_lambda_almcybe(spec: JobSpec, power: int, lam: Fraction):
    db = double.one_variable_lambda_bracket(power, lam)
    axioms = double.check_double_axioms(db)
    comparison = double.almcybe_check(db)
    lines = [f"one-variable bracket with parameter {lam} on a degree-{power} quotient"]
    lines.extend(axioms.lines(db.algebra))
    lines.extend(comparison.lines())
    return _verdict(axioms.passed and comparison.passed), lines


def _run_operad_classification(spec: JobSpec):
    cases = (
        ("skew", [operad.jacobi_vector()], "Lie algebras"),
        ("skew", [], "skew magmas"),
        ("none", [operad.lie_admissible_vector()], "Lie-admissible algebras"),
        ("none", [operad.associativity_vector()], "not distributive"),
        ("symmetric", [], "symmetric magmas"),
    )
    # one system per symmetry, shared by its cases and its nullspace line
    systems = {sym: operad.full_constraint_system(sym) for sym in ("skew", "none", "symmetric")}
    lines = []
    ok = True
    for sym, vectors, expected in cases:
        result = operad.classify(systems[sym], vectors)
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
        dim = systems[sym].nullspace_dim
        agree = dim == expected_dim
        ok = ok and agree
        lines.append(
            f"distributive nullspace dimension for {sym}: {dim}"
            f" (expected {expected_dim}): {'ok' if agree else 'MISMATCH'}"
        )
    return _verdict(ok), lines


def _run_linfty_extension(spec: JobSpec):
    report = linfty.product_extension_check(linfty.homotopy_fixture(), max_m=3, cap=3)
    ok = report.checks[0].passed
    lines = [f"homotopy fixture satisfies the identities through arity 3: {ok}"]
    lines.extend(report.lines())
    return _verdict(ok and report.passed), lines


def _run_ybe_infty_classical(spec: JobSpec):
    # the nilpotent generator paired with itself
    fam = ybe_infty.RnFamily(4, {2: {(1, 1): Fraction(1)}})
    reports = (
        ybe_infty.cybe_infty_residual(
            ybe_infty.gl_lie(2), fam, 3, literal_shuffles=spec.literal_shuffles
        ),
        ybe_infty.aybe_infty_residual(ybe_infty.matrix_algebra(2), fam, 3),
    )
    lines = []
    for flavor, report in zip(("classical", "associative"), reports):
        lines.append(f"[{flavor} flavor]")
        lines.extend(report.lines())
    lines.append(f"shuffle reading equals the classical bracket sum: {reports[0].classical_equal}")
    lines.append(f"cyclic reading equals the classical product sum: {reports[1].classical_equal}")
    return _verdict(all(r.classical_equal and r.passed for r in reports)), lines


def _run_schurweyl_anchor(spec: JobSpec):
    identity = TensorMap.identity(2, 2)
    report = frt.schur_weyl_decompose(identity, 3)
    dims = [frt.hr_graded_dimension(identity, m) for m in (1, 2, 3)]
    lines = report.lines()
    lines.append(
        f"coefficient-algebra dimensions m=1..3: {dims} (expected [4, 10, 20])"
    )
    return _verdict(report.passed and dims == [4, 10, 20]), lines


def _run_double_commutant(spec: JobSpec):
    twists = (
        ("identity", TensorMap.identity(2, 2)),
        ("diagonal", diagonal_unitary_qybe_solution(2)),
    )
    lines = []
    ok = True
    for name, twist in twists:
        for m in (1, 2, 3):
            report = frt.schur_weyl_decompose(twist, m)
            ok = ok and report.passed and report.double_commutant_ok
            lines.append(
                f"{name} twist, m={m}: span {report.sr_span_dim},"
                f" double commutant closure"
                f" {'holds' if report.double_commutant_ok else 'FAILS'},"
                f" dimension count {'PASS' if report.passed else 'FAIL'}"
            )
    return _verdict(ok), lines


# ---------------------------------------------------------------------------
# the check table: the harness runs it and ``cli.build_parser`` is built from it


def _field(name: str, type_=None, choices=None, default=None, minimum=None, help=None):
    """An input file (``type_`` None) or a typed parameter; required without a default."""
    return (name, type_, choices, default, minimum, default is None, help)


_MAP = "tensor-map file"
_INPUT = (_field("input", help=_MAP),)
_DOUBLE = (_field("algebra", help="structure-constants file"), _field("bracket", help=_MAP))
_SYM = _field("sym", str, choices=tuple(_SYM_NAMES))
_TWIST = (_field("R", help="tensor-map file (the twist)"), _field("m", int, minimum=1))
_WORD = "word, e.g. 0,1 or -"
_EMIT = (("emit-witness", None),)

#: one row per check: its id, its command-line words (none for the canned
#: checks), help, fields ``(name, type, choices, default, minimum, required,
#: help)`` in command-line order, command-line flags ``(name, help)``, and the
#: runner, called as ``runner(spec, **typed_fields)``
CHECKS = (
    ("ybe-check", ("ybe", "check"), "one residual equation",
     (_field("kind", str, choices=("cybe", "aybe", "qybe")), *_INPUT), _EMIT, _run_ybe_check),
    ("ybe-cae", ("ybe", "cae"), "the combined residual identity",
     _INPUT, _EMIT, partial(_run_ybe_check, kind="cae")),
    ("poisson-extend", ("poisson", "extend"), "bracket of two words",
     (_field("r", help=_MAP), _field("lhs", str, help=_WORD), _field("rhs", str, help=_WORD)),
     (), _run_poisson_extend),
    # the axioms are checked on word pairs of total length 2 and up
    ("poisson-verify", ("poisson", "verify"), "bracket axioms to a degree",
     (_field("r", help=_MAP), _field("max-degree", int, minimum=2)), (), _run_poisson_verify),
    ("quiver-build", ("quiver", "build"), "build one truncated algebra",
     (_field("quiver", help="quiver file"),
      _field("type", str, choices=("path", "preprojective", "deformed")),
      _field("cap", int, minimum=0),
      _field("weights", str, default="",
             help="vertex weights 'v:1 w:-1/2' for the deformed relation")),
     (), _run_quiver_build),
    ("double-verify", ("double", "verify"), "double bracket axioms",
     _DOUBLE, (), _run_double_verify),
    ("double-almcybe", ("double", "almcybe"), "one-sided multiplication comparison",
     _DOUBLE, (), _run_double_almcybe),
    ("operad-classify", ("operad", "classify"), "name the presented operad",
     (_SYM, _field("relation", help="relation-coefficients file")), (), _run_operad_classify),
    ("operad-nullspace", ("operad", "nullspace"), "admissible relation vectors",
     (_SYM,), (), _run_operad_nullspace),
    ("linfty-check", ("linfty", "check"), "homotopy identities to an arity",
     (_field("family", help="linfty-family file"), _field("max-m", int, minimum=1)),
     (), _run_linfty_check),
    ("ybe-infty-check", ("ybe-infty", "check"), "the n-th residual of a family",
     (_field("kind", str, choices=("cybe", "aybe")),
      _field("algebra", help="structure-constants file (lie or assoc)"),
      _field("family", help="rn-family file"), _field("n", int, minimum=1)),
     (("literal-shuffles", "let the all-permutations reading govern the verdict"), *_EMIT),
     _run_ybe_infty_check),
    ("schurweyl-decompose", ("schurweyl", "decompose"), "decompose the tensor power",
     _TWIST, (), _run_schurweyl_decompose),
    ("schurweyl-hrdim", ("schurweyl", "hrdim"), "coefficient-algebra dimension oracles",
     _TWIST, (), _run_schurweyl_hrdim),
    ("cae-random", None, None,
     (_field("count", int, default="102"), _field("seed", int, default="20260814")),
     (), _run_cae_random),
    ("fixture-search", None, None, (), (), _run_fixture_search),
    ("double-lie-iff-skew-aybe", None, None, (), (), _run_double_lie_iff),
    ("lambda-almcybe", None, None,
     (_field("power", int, default="5"), _field("lam", Fraction, default="1")),
     (), _run_lambda_almcybe),
    ("operad-classification", None, None, (), (), _run_operad_classification),
    ("linfty-extension", None, None, (), (), _run_linfty_extension),
    ("ybe-infty-classical", None, None, (), (), _run_ybe_infty_classical),
    ("schurweyl-anchor", None, None, (), (), _run_schurweyl_anchor),
    ("double-commutant", None, None, (), (), _run_double_commutant),
)


#: the canned checks, the rows with no command words, in table order
DEFAULT_CHECKS = tuple(row[0] for row in CHECKS if row[1] is None)


def default_suite(
    literal_shuffles: bool = False,
    emit_witness: bool = False,
    output_path: str | None = None,
) -> JobSpec:
    """The canned end-to-end suite run by the ``suite`` command."""
    jobs = tuple(Job(name) for name in DEFAULT_CHECKS)
    return JobSpec(jobs, literal_shuffles, emit_witness, output_path)
