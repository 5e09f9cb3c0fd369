"""Spans around the program's layer boundaries, installed from outside.

:class:`Tracer` replaces chosen functions and methods of the ``ybalg``
modules with timing wrappers at every binding site (module globals,
module-level dispatch dicts, class attributes) and puts the originals back
on :meth:`Tracer.uninstall`.  Each call becomes a span ``[name, layer,
start, end, parent, job]`` kept in memory; a layer's self time is the
span's duration minus the time its child spans cover.  Counts are taken
from arguments and results at the same boundary.

Named spans (``tensoralg.compose``, ``linalg.rref``, ...) are recorded on
every call.  The other entries only mark where control enters a layer: a
call made from inside the same layer runs unwrapped, so recursion and
intra-module helpers add no spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

NAME, LAYER, START, END, PARENT, JOB = range(6)

#: layers whose self time is reported, in report order
LAYERS = (
    "tensoralg", "linalg", "ybe", "fixtures", "double", "algebras", "frt",
    "twisted", "operad", "linfty", "ybe_infty", "io", "harness", "cli",
)


def _count_compose(counts, args, kwargs, result):
    counts["tensoralg.compose.terms_out"] += len(result.entries)


def _count_parse(counts, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counts["io.parse.bytes"] += len(text.encode())


def _count_dump(counts, args, kwargs, result):
    counts["io.dump.bytes"] += len(result.encode())


def _count_search(counts, args, kwargs, result):
    solutions, non_solutions = result
    counts["fixtures.candidates"] += len(solutions) + len(non_solutions)
    counts["fixtures.solutions"] += len(solutions)


def _count_nbasis(counts, args, kwargs, result):
    counts["algebras.nbasis"] += result.nbasis


def _count_commutant(counts, args, kwargs, result):
    counts["frt.commutant.nullity"] += len(result)


def _count_report(counts, args, kwargs, result):
    counts["harness.report_bytes"] += len(result.text().encode())


def _count_rref(counts, args, kwargs, result, parent_name):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    nrows = len(rows)
    counts["linalg.rref.rows"] += nrows
    counts["linalg.rref.cols"] += ncols
    counts["linalg.rref.cells"] += nrows * ncols
    counts["linalg.rref.rank"] += result.rank
    bits = 0
    for row in result.rows:
        for c in row:
            if c:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    key = "linalg.rref.max_coeff_bits"
    counts[key] = max(counts[key], bits)
    if parent_name == "frt.commutant":
        counts["frt.commutant.unknowns"] += ncols
        counts["frt.commutant.eq_rows"] += nrows


_ALGEBRA_CONSTRUCTORS = (
    "path_algebra", "preprojective_algebra", "deformed_preprojective_algebra",
    "quotient_algebra", "free_algebra", "polynomial_quotient_algebra",
)
#: (module, attribute, span name or None for a plain layer entry, counter)
TARGETS = (
    ("tensoralg", "TensorMap.compose", "tensoralg.compose", _count_compose),
    ("tensoralg", "TensorMap.__add__", "tensoralg.add", None),
    ("tensoralg", "embed_components", "tensoralg.embed", None),
    ("linalg", "rref", "linalg.rref", _count_rref),
    ("linalg", "ExactRREF.reduce", "linalg.reduce", None),
    ("linalg", "ExactRREF.nullspace", None, None),
    ("linalg", "rank", None, None),
    ("linalg", "nullspace", None, None),
    ("linalg", "row_space_equal", None, None),
    *(("ybe", name, None, None) for name in (
        "check", "is_skew", "skew_defect", "cybe_residual", "aybe_residual",
        "aybe_prime_residual", "qybe_residual", "unitarity_defect", "cae_defect")),
    ("fixtures", "search_skew_solutions", "fixtures.search", _count_search),
    *(("fixtures", name, None, None) for name in (
        "skew_entry_orbits", "skew_map_from_orbit_values", "enumerate_skew_maps",
        "random_skew_map", "random_map", "diagonal_unitary_qybe_solution",
        "sl2_poisson_bracket")),
    *(("double", name, None, None) for name in (
        "DoubleBracket.from_tensor_map", "extend_by_derivations",
        "extension_consistency_check", "check_double_axioms", "double_jacobi_residual_map",
        "dbjac_to_aybe", "double_lie_iff_skew_aybe", "almcybe_check",
        "commutative_remark_checks", "one_variable_lambda_bracket",
        "two_cycle_symplectic_bracket")),
    *(("algebras", name, None, _count_nbasis) for name in _ALGEBRA_CONSTRUCTORS),
    *(("algebras", name, None, None) for name in (
        "structural_primeness_report", "double_quiver", "preprojective_relation",
        "TruncatedAlgebra.check_associativity")),
    ("frt", "commutant", "frt.commutant", _count_commutant),
    *(("frt", name, None, None) for name in (
        "schur_weyl_decompose", "hr_dimension_oracles", "hr_graded_dimension",
        "hr_relation_rank", "hr_component_dual_basis", "r_permutation_action",
        "braid_generators", "action_table", "evaluate_in_action", "image_dimension",
        "group_algebra_rank", "young_symmetrizer", "permutation_operator", "partitions")),
    *(("twisted", name, None, None) for name in (
        "TensorWordBracket.__init__", "TensorWordBracket.extend",
        "check_bracket_extension", "bracket_roundtrip", "degree111_jacobi_map")),
    *(("operad", name, None, None) for name in (
        "classify", "full_constraint_system", "relation_basis", "leibniz_obstruction",
        "symbolic_expand_oracle", "oracle_agreement_trial", "jacobi_vector",
        "lie_admissible_vector", "associativity_vector")),
    *(("linfty", name, None, None) for name in (
        "family_is_linfty", "linfty_residual", "product_extension_check",
        "audit_cancellation", "solve_homotopy_bracket", "homotopy_fixture",
        "cone_fixture", "three_generator_fixture", "MultiBracketFamily.__init__")),
    *(("ybe_infty", name, None, None) for name in (
        "cybe_infty_residual", "aybe_infty_residual", "jacobi_infty_check",
        "classical_cybe_element", "classical_aybe_element", "gl_lie", "matrix_algebra",
        "RnFamily.__init__", "LieStructure.__init__")),
    ("io", "parse_text", "io.parse", _count_parse),
    *(("io", f"dump_{kind}", "io.dump", _count_dump) for kind in (
        "tensor_map", "lie_structure", "associative_algebra", "rn_family",
        "linfty_family", "quiver", "relation_vectors")),
    ("harness", "run_suite", "harness.run_suite", _count_report),
    ("cli", "main", "cli.main", None),
)

#: counters whose cost is worth keeping out of the parent's self time
_HEAVY = {_count_rref, _count_report}


class Tracer:
    """Span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.job = ""
        self.missing: list[str] = []
        self._restore: list = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, layer, counter):
        spans, stack, counts = self.spans, self.stack, self.counts
        span_name = name or layer
        always = name is not None
        heavy = counter in _HEAVY
        with_parent = counter is _count_rref
        clock = time.perf_counter

        def open_span():
            if stack:
                parent = stack[-1]
                if not always and spans[parent][LAYER] == layer:
                    return None
            else:
                parent = -1
            record = [span_name, layer, clock(), 0.0, parent, self.job]
            stack.append(len(spans))
            spans.append(record)
            return record

        def close_span(record, args, kwargs, result):
            stack.pop()
            if counter is None:
                return
            start = clock()
            if with_parent:
                parent = record[PARENT]
                counter(counts, args, kwargs, result,
                        spans[parent][NAME] if parent >= 0 else "")
            else:
                counter(counts, args, kwargs, result)
            if heavy:
                spans.append(["trace.count", "trace", start, clock(), record[PARENT], self.job])

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    record = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if record is not None:
                            record[END] = clock()
                            stack.pop()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = open_span()
            if record is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[END] = clock()
                stack.pop()
                raise
            record[END] = clock()
            close_span(record, args, kwargs, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site in the loaded ybalg modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ybalg" or n.startswith("ybalg.")) and m is not None]
        for module_name, attr, name, counter in TARGETS:
            home = sys.modules.get(f"ybalg.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            if owner is None or (method not in vars(owner) if owner_name else not hasattr(owner, method)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if owner_name:
                raw = vars(owner)[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, module_name, counter))
                else:
                    wrapped = self._wrap(raw, name, module_name, counter)
                self._restore.append((setattr, owner, method, raw))
                setattr(owner, method, wrapped)
                continue
            original = getattr(owner, method)
            wrapped = self._wrap(original, name, module_name, counter)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._restore.append((setattr, module, key, original))
                        setattr(module, key, wrapped)
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._restore.append((dict.__setitem__, value, dkey, original))
                                value[dkey] = wrapped

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._restore:
            setter, owner, key, original = self._restore.pop()
            setter(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the union of child intervals.

        Children of one span run one after another on a single thread, so
        their union is the sum of their durations.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for record in spans:
            parent = record[PARENT]
            if parent >= 0:
                covered[parent] += record[END] - record[START]
        return [r[END] - r[START] - c for r, c in zip(spans, covered)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Counts, calls and self times, keyed by per-layer metric name."""
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    entries: dict[str, int] = defaultdict(int)
    for record, own in zip(spans, selfs):
        name, layer, parent = record[NAME], record[LAYER], record[PARENT]
        by_name[name] += own
        by_layer[layer] += own
        calls[name] += 1
        if parent < 0 or spans[parent][LAYER] != layer:
            entries[layer] += 1
    out: dict[str, float] = dict(tracer.counts)
    for name in ("tensoralg.compose", "tensoralg.add", "tensoralg.embed", "linalg.rref",
                 "linalg.reduce", "frt.commutant", "io.parse", "io.dump"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = by_name[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer[layer]
    for layer in ("ybe", "double"):
        out[f"{layer}.calls"] = entries[layer]
    candidates = out.get("fixtures.candidates", 0)
    out["fixtures.hit_ratio"] = out.get("fixtures.solutions", 0) / candidates if candidates else 0.0
    rows = out.get("linalg.rref.rows", 0)
    out["linalg.rref.pivot_ratio"] = out.get("linalg.rref.rank", 0) / rows if rows else 0.0
    total = sum(by_layer[layer] for layer in LAYERS)
    for layer in ("tensoralg", "linalg"):
        out[f"{layer}.share"] = by_layer[layer] / total if total else 0.0
    out["trace.count_s"] = by_layer["trace"]
    out["trace.spans"] = len(spans)
    return out


def job_share(tracer: Tracer, job_prefix: str, name: str) -> float:
    """Share of the named span's self time in the root spans of matching jobs."""
    spans = tracer.spans
    selfs = tracer.self_times()
    own = sum(s for r, s in zip(spans, selfs)
              if r[NAME] == name and r[JOB].startswith(job_prefix))
    total = sum(r[END] - r[START] for r in spans
                if r[PARENT] < 0 and r[JOB].startswith(job_prefix))
    return own / total if total else 0.0
