"""Result records: immutable, compared and hashed by their fields, and
built at import without ``dataclasses`` (so a start-up loads neither it
nor the ``inspect`` module it pulls in)."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ybalg
from ybalg.algebras import Quiver
from ybalg.frt import RPermutationAction, permutation_operator
from ybalg.harness import Job
from ybalg.linfty import GradedBasis

NAMED_TUPLES = [
    ("twisted", "BracketCheck"),
    ("twisted", "BracketReport"),
    ("twisted", "RoundtripReport"),
    ("ybe_infty", "ReadingResult"),
    ("ybe_infty", "InftyReport"),
    ("ybe_infty", "DoubleInftyReport"),
    ("harness", "Job"),
    ("harness", "JobSpec"),
    ("harness", "Report"),
    ("ybe", "ResidualReport"),
    ("frt", "PartitionBlock"),
    ("frt", "DecompositionReport"),
    ("linfty", "ExtensionCheck"),
    ("linfty", "ExtensionReport"),
    ("operad", "RelationTerm"),
    ("operad", "Constraint"),
    ("operad", "ObstructionSystem"),
    ("operad", "ClassificationResult"),
    ("double", "AxiomCheck"),
    ("double", "DoubleAxiomReport"),
    ("double", "JacobiToAybeReport"),
    ("double", "MultCompareReport"),
    ("double", "CommutativeRemarkReport"),
]


def named_tuple_factory(module, name):
    cls = getattr(importlib.import_module(f"ybalg.{module}"), name)

    def make(differ=False):
        # fresh field values on every call, so equality is not identity
        last = (name, "other" if differ else "value")
        return cls(*((name, field) for field in cls._fields[:-1]), last)

    return make


def quiver(differ=False):
    last = "x" if differ else "w"
    return Quiver(("u", "v", last), (("a", "u", "v"), ("b", "v", last)))


def graded_basis(differ=False):
    return GradedBasis(("a", "y" if differ else "z"), (0, 1))


def permutation_action(differ=False):
    swaps = ((0, 2, 1), (1, 0, 2)) if differ else ((1, 0, 2), (0, 2, 1))
    return RPermutationAction(2, 3, tuple(permutation_operator(p, 2) for p in swaps))


FACTORIES = [
    *(pytest.param(named_tuple_factory(m, n), id=n) for m, n in NAMED_TUPLES),
    pytest.param(quiver, id="Quiver"),
    pytest.param(graded_basis, id="GradedBasis"),
    pytest.param(permutation_action, id="RPermutationAction"),
]


@pytest.mark.parametrize("make", FACTORIES)
def test_record_is_immutable_and_compared_by_fields(make):
    record = make()
    field = (getattr(type(record), "_fields", None) or type(record).__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = make()
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert make(differ=True) != record
    assert repr(twin) == repr(record)


def test_named_tuple_record_reads_like_a_tuple():
    job = Job("cae-random", params=(("seed", "3"),))
    check, inputs, params = job
    assert (check, inputs, params) == ("cae-random", (), (("seed", "3"),))
    assert job == ("cae-random", (), (("seed", "3"),))
    assert job._replace(check="suite")._asdict()["check"] == "suite"


def test_start_up_imports_neither_dataclasses_nor_inspect():
    src = Path(ybalg.__file__).resolve().parents[1]
    code = (
        "import sys, ybalg.cli; "
        "loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules)); "
        "assert not loaded, loaded"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
