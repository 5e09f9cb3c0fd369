"""Exact-arithmetic verification toolkit for Yang-Baxter-type identities.

Everything is computed over the rationals with sparse word-indexed tensors;
checks report exact zero/nonzero residuals, never approximations.

The submodules group by subject:

- :mod:`ybalg.sparse` — the sparse exact-vector kernel: the one place that
  builds, adds, scales, multiplies and purges coefficient dicts.
- :mod:`ybalg.tensoralg` — words, permutations and tensor maps; a tensor
  is a plain :mod:`ybalg.sparse` vector keyed by words.
- :mod:`ybalg.linalg` — sparse fraction-free row reduction on integer
  dict-rows into the canonical reduced echelon form; ranks, nullspaces.
- :mod:`ybalg.ybe` — classical/associative/quantum residuals and the
  combination identity.
- :mod:`ybalg.twisted` — the bracket extension to tensor words and its
  axiom checks.
- :mod:`ybalg.algebras` — quiver path algebras, preprojective quotients,
  truncated polynomial rings.
- :mod:`ybalg.double` — double brackets, their axioms, and the one-sided
  multiplication comparison.
- :mod:`ybalg.operad` — quadratic relation classification under a
  distributivity constraint.
- :mod:`ybalg.linfty` — homotopy bracket families, their identities, and
  the product extension.
- :mod:`ybalg.ybe_infty` — arity-indexed families and their higher
  residual sums.
- :mod:`ybalg.frt` — twisted symmetric-group actions, Young symmetrizers,
  commutants, and the tensor-power decomposition.
- :mod:`ybalg.fixtures` — exhaustive skew grid searches, residuals as
  quadratic forms on the skew-orbit basis, and named example maps.
- :mod:`ybalg.io` / :mod:`ybalg.harness` / :mod:`ybalg.cli` — file
  formats, the job runner, and the command line.
"""

__version__ = "0.1.0"

from .fixtures import (
    diagonal_unitary_qybe_solution,
    random_skew_map,
    search_skew_solutions,
)
from .harness import Job, JobSpec, Report, default_suite, fixture_search, run_suite
from .io import SchemaError, parse_inputs
from .sparse import frac
from .tensoralg import TensorMap, embed_components
from .ybe import (
    ResidualReport,
    aybe_residual,
    cae_defect,
    check,
    cybe_residual,
    qybe_residual,
    skew_defect,
    unitarity_defect,
)

__all__ = [
    "Job",
    "JobSpec",
    "Report",
    "ResidualReport",
    "SchemaError",
    "TensorMap",
    "aybe_residual",
    "cae_defect",
    "check",
    "cybe_residual",
    "default_suite",
    "diagonal_unitary_qybe_solution",
    "embed_components",
    "fixture_search",
    "frac",
    "parse_inputs",
    "qybe_residual",
    "random_skew_map",
    "run_suite",
    "search_skew_solutions",
    "skew_defect",
    "unitarity_defect",
    "__version__",
]
