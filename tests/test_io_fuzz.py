"""Fuzzed file formats: every generated object round-trips through its writer,
and a file with one line dropped, duplicated or garbled, or one token dropped
from a list-valued line, is refused as an input error (exit 2) located at a
line of the file, never given a verdict."""

import itertools
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ybalg import io
from ybalg.algebras import Quiver, TruncatedAlgebra
from ybalg.cli import main
from ybalg.linfty import GradedBasis, MultiBracketFamily
from ybalg.operad import relation_basis
from ybalg.tensoralg import TensorMap, words
from ybalg.ybe_infty import LieStructure, RnFamily

scalars = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
label = st.from_regex(r"[a-z][a-z0-9*]{0,2}", fullmatch=True)
labels = st.lists(label, min_size=1, max_size=4, unique=True)


@st.composite
def tensor_maps(draw, square=False):
    dim = draw(st.integers(1, 3))
    dom, cod = (2, 2) if square else (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    positions = [(o, i) for o in words(dim, cod) for i in words(dim, dom)]
    chosen = draw(st.lists(st.sampled_from(positions), max_size=6, unique=True))
    return TensorMap(dim, dom, cod, {pos: draw(scalars) for pos in chosen})


def elements(n):
    return st.dictionaries(st.integers(0, n - 1), scalars, min_size=1, max_size=3)


@st.composite
def lie_structures(draw):
    names = draw(labels)
    n = len(names)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    table = draw(st.dictionaries(pairs, elements(n), max_size=5))
    degrees = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    return LieStructure(names, table, degrees)


@st.composite
def lie_algebras(draw):
    """Structures that the checks accept as Lie algebras: abelian ones of any
    degrees, and Heisenberg algebras ``[x, y] = c z``."""
    names = draw(labels)
    n = len(names)
    if n < 3 or draw(st.booleans()):
        return LieStructure(names, {}, draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)))
    c = draw(scalars)
    return LieStructure(names, {(0, 1): {2: c}, (1, 0): {2: -c}}, [0] * n)


@st.composite
def associative_algebras(draw):
    names = draw(labels)
    n = len(names)
    degrees = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    mode = draw(st.sampled_from(["quotient", "window"]))
    cap = draw(st.integers(0, 3))
    pairs = [(i, j) for i in range(n) for j in range(n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    table = {pair: draw(elements(n)) for pair in chosen}
    unit = draw(st.one_of(st.just({}), elements(n)))
    # a window pair past the cap and outside the table is unknown or zero
    unknown = frozenset(draw(st.lists(st.sampled_from(pairs)))) - set(table)
    return TruncatedAlgebra(
        names, degrees, table, unit, mode=mode, cap=cap, unknown=lambda i, j: (i, j) in unknown
    )


@st.composite
def quivers(draw):
    vertices = draw(labels)
    arrows = draw(st.lists(label, max_size=4, unique=True))
    ends = st.sampled_from(vertices)
    return Quiver(tuple(vertices), tuple((name, draw(ends), draw(ends)) for name in arrows))


@st.composite
def rn_families(draw):
    """Families whose every word has degree ``2 - n`` in its component ``n``."""
    dim = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(-1, 2), min_size=dim, max_size=dim))
    fitting = [
        (n, w) for n in (1, 2, 3) for w in words(dim, n)
        if sum(degrees[k] for k in w) == 2 - n
    ]
    chosen = draw(st.lists(st.sampled_from(fitting), max_size=5, unique=True)) if fitting else []
    elements = {}
    for n, w in chosen:
        elements.setdefault(n, {})[w] = draw(scalars)
    return RnFamily(dim, elements, degrees)


@st.composite
def linfty_families(draw):
    """Families of n-ary operations of degree ``2 - n`` on sorted arguments
    that skewness does not force to vanish."""
    names = draw(labels)
    k = len(names)
    degrees = draw(st.lists(st.integers(-1, 2), min_size=k, max_size=k))
    basis = GradedBasis(tuple(names), tuple(degrees))
    ops = {}
    for n in (1, 2, 3):
        for args in itertools.combinations_with_replacement(range(k), n):
            if any(a == b and basis.anticommutes(a) for a, b in zip(args, args[1:])):
                continue
            want = sum(degrees[a] for a in args) + 2 - n
            targets = [t for t in range(k) if degrees[t] == want]
            if targets and draw(st.booleans()):
                chosen = draw(st.lists(st.sampled_from(targets), min_size=1, unique=True))
                ops.setdefault(n, {})[args] = {t: draw(scalars) for t in chosen}
    return MultiBracketFamily(basis, ops)


def relation_vectors(width):
    return st.lists(st.lists(scalars, min_size=width, max_size=width), min_size=1, max_size=3)


def overflow_pairs(algebra):
    n = algebra.nbasis
    return {(i, j) for i in range(n) for j in range(n) if algebra.overflows(i, j)}


@settings(max_examples=60, deadline=None)
@given(tensor_maps())
def test_tensor_maps_round_trip(r):
    text = io.dump_tensor_map(r)
    back = io.parse_text(text)
    assert back == r
    assert io.dump_tensor_map(back) == text


@settings(max_examples=60, deadline=None)
@given(lie_structures())
def test_lie_structures_round_trip(g):
    text = io.dump_lie_structure(g)
    back = io.parse_text(text)
    assert (back.labels, back.degrees, back.table) == (g.labels, g.degrees, g.table)
    assert io.dump_lie_structure(back) == text


@settings(max_examples=60, deadline=None)
@given(associative_algebras())
def test_associative_algebras_round_trip(algebra):
    text = io.dump_associative_algebra(algebra)
    back = io.parse_text(text)
    for attr in ("labels", "degrees", "mode", "cap", "unit", "table"):
        assert getattr(back, attr) == getattr(algebra, attr)
    assert overflow_pairs(back) == overflow_pairs(algebra)
    assert io.dump_associative_algebra(back) == text


@settings(max_examples=60, deadline=None)
@given(quivers())
def test_quivers_round_trip(q):
    text = io.dump_quiver(q)
    assert io.parse_text(text) == q
    assert io.dump_quiver(io.parse_text(text)) == text


@settings(max_examples=60, deadline=None)
@given(rn_families())
def test_rn_families_round_trip(fam):
    text = io.dump_rn_family(fam)
    back = io.parse_text(text)
    assert (back.dim, back.degrees, back.elements) == (fam.dim, fam.degrees, fam.elements)
    assert io.dump_rn_family(back) == text


@settings(max_examples=60, deadline=None)
@given(linfty_families())
def test_linfty_families_round_trip(fam):
    text = io.dump_linfty_family(fam)
    back = io.parse_text(text)
    assert (back.basis, back.ops) == (fam.basis, fam.ops)
    assert io.dump_linfty_family(back) == text


@settings(max_examples=60, deadline=None)
@given(relation_vectors(4))
def test_relation_vectors_round_trip(vectors):
    text = io.dump_relation_vectors(vectors)
    back = io.parse_text(text)
    assert back == vectors
    assert io.dump_relation_vectors(back) == text


#: the fields without which a file of each kind is malformed
REQUIRED = {
    "tensor-map": ("dim", "dom", "cod"),
    "structure-constants": ("flavor", "labels"),
    "rn-family": ("dim",),
    "linfty-family": ("labels", "degrees"),
    "relation-coefficients": (),
    "quiver": (),
}
#: the list-valued lines, each of which must hold one token per basis element
LISTS = ("labels", "degrees")
#: tokens that no field accepts as one more token of its value
JUNK = ("?", "x", ":", "->", "<-", "1/0", "#")


@st.composite
def mutations(draw, text, hows=("drop", "duplicate", "append", "misspell", "shorten")):
    """``text`` with one line dropped (the header or a required field),
    duplicated, or garbled (a stray token appended, or its key misspelt), or
    with one token dropped from a list-valued line."""
    lines = text.splitlines()
    kind = lines[0].split()[-1]
    lists = [
        k for k, line in enumerate(lines)
        if line.partition(":")[0] in LISTS and line.partition(":")[2].split()
    ]
    how = draw(st.sampled_from([h for h in hows if h != "shorten" or lists]))
    if how == "shorten":
        k = draw(st.sampled_from(lists))
        key, _, value = lines[k].partition(":")
        tokens = value.split()
        del tokens[draw(st.integers(0, len(tokens) - 1))]
        lines[k] = f"{key}: {' '.join(tokens)}"
        return "\n".join(lines) + "\n"
    if how == "drop":
        required = [0] + [k for k, line in enumerate(lines) if line.split(":")[0] in REQUIRED[kind]]
        del lines[draw(st.sampled_from(required))]
        return "\n".join(lines) + "\n"
    k = draw(st.integers(0, len(lines) - 1))
    if how == "duplicate":
        lines.insert(k, lines[k])
    elif how == "append":
        lines[k] += " " + draw(st.sampled_from(JUNK))
    else:
        key, sep, value = lines[k].partition(":")
        lines[k] = key + "x" + sep + value
    return "\n".join(lines) + "\n"


#: capsys is read afresh by each example
mutation_settings = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _write(tmp, name, text):
    path = str(Path(tmp) / name)
    Path(path).write_text(text)
    return path


def assert_refused(capsys, original, text, argv_for):
    """The mutated ``text`` is an input error located at one of its lines,
    from the parser and from the command line, and ``original`` is not."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "input.txt", original)
        assert main(argv_for(path, tmp)) != 2
        _write(tmp, "input.txt", text)
        try:
            io.parse_text(text, path)
        except io.SchemaError as err:
            assert err.path == path
            line = err.line
            assert line is not None and 1 <= line <= len(text.splitlines())
        else:
            raise AssertionError(f"a mutated file parsed:\n{text}")
        capsys.readouterr()
        code = main(argv_for(path, tmp))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}:{line}: "), captured.err
    assert "PASS" not in captured.err


@mutation_settings
@given(st.data(), tensor_maps(square=True))
def test_mutated_tensor_maps_are_refused(capsys, data, r):
    original = io.dump_tensor_map(r)
    text = data.draw(mutations(original))

    def argv(path, tmp):
        return ["ybe", "check", "--kind", "cybe", "--input", path]

    assert_refused(capsys, original, text, argv)


@mutation_settings
@given(st.data(), lie_algebras())
def test_mutated_lie_structures_are_refused(capsys, data, g):
    original = io.dump_lie_structure(g)
    text = data.draw(mutations(original))

    def argv(path, tmp):
        degrees = " ".join(map(str, g.degrees))
        family = f"ybalg schema/1 rn-family\ndim: {g.nbasis}\ndegrees: {degrees}\n"
        family = _write(tmp, "family.txt", family)
        return ["ybe-infty", "check", "--kind", "cybe", "--algebra", path,
                "--family", family, "--n", "2"]

    assert_refused(capsys, original, text, argv)


@mutation_settings
@given(st.data(), associative_algebras())
def test_mutated_associative_algebras_are_refused(capsys, data, algebra):
    original = io.dump_associative_algebra(algebra)
    text = data.draw(mutations(original))

    def argv(path, tmp):
        n = algebra.nbasis
        bracket = f"ybalg schema/1 tensor-map\ndim: {n}\ndom: 2\ncod: 2\n"
        bracket = _write(tmp, "bracket.txt", bracket)
        return ["double", "verify", "--algebra", path, "--bracket", bracket]

    assert_refused(capsys, original, text, argv)


@mutation_settings
@given(st.data(), quivers())
def test_mutated_quivers_are_refused(capsys, data, q):
    original = io.dump_quiver(q)
    text = data.draw(mutations(original))

    def argv(path, tmp):
        return ["quiver", "build", "--quiver", path, "--type", "path", "--cap", "2"]

    assert_refused(capsys, original, text, argv)


@mutation_settings
@given(st.data(), rn_families())
def test_mutated_rn_families_are_refused(capsys, data, fam):
    original = io.dump_rn_family(fam)
    text = data.draw(mutations(original))

    def argv(path, tmp):
        names = [f"g{k}" for k in range(fam.dim)]
        lie = _write(tmp, "lie.txt", io.dump_lie_structure(LieStructure(names, {}, fam.degrees)))
        return ["ybe-infty", "check", "--kind", "cybe", "--algebra", lie,
                "--family", path, "--n", "3"]

    assert_refused(capsys, original, text, argv)


@mutation_settings
@given(st.data(), linfty_families())
def test_mutated_linfty_families_are_refused(capsys, data, fam):
    original = io.dump_linfty_family(fam)
    text = data.draw(mutations(original))

    def argv(path, tmp):
        return ["linfty", "check", "--family", path, "--max-m", "3"]

    assert_refused(capsys, original, text, argv)


@mutation_settings
@given(st.data(), relation_vectors(len(relation_basis("none"))))
def test_mutated_relation_vectors_are_refused(capsys, data, vectors):
    # a duplicated vector line is well formed, so only garbling and a dropped
    # header are refused
    original = io.dump_relation_vectors(vectors)
    text = data.draw(mutations(original, hows=("drop", "append", "misspell")))

    def argv(path, tmp):
        return ["operad", "classify", "--sym", "none", "--relation", path]

    assert_refused(capsys, original, text, argv)
