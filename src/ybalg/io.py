"""Line-based text formats for every object the command line touches.

Each file starts with the header ``ybalg schema/1 <kind>``; the rest is
``key: value`` lines in a fixed order.  Scalars are exact rationals written
as ``p/q`` (or a bare integer); words are comma-separated letter indices
with ``-`` for the empty word; sparse elements are space-separated
``index:coefficient`` tokens.  Blank lines and lines starting with ``#``
are ignored.  Writers emit entries in sorted order so that serialization
is canonical: parse(dump(x)) == x and dump(parse(t)) is byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .algebras import TruncatedAlgebra
from .linfty import GradedBasis, MultiBracketFamily
from .sparse import Scalar, frac
from .tensoralg import TensorMap, Word
from .ybe_infty import LieStructure, RnFamily

HEADER_PREFIX = "ybalg schema/1"

KINDS = (
    "tensor-map",
    "structure-constants",
    "rn-family",
    "linfty-family",
    "quiver",
    "relation-coefficients",
)


class SchemaError(ValueError):
    """A parse failure with its location."""

    def __init__(self, message: str, path: str = "<text>", line: int | None = None):
        self.message = message
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"{where}: {message}")


def _scalar(token: str, path: str, line: int) -> Scalar:
    token = token.strip()
    try:
        return frac(token)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"not a rational scalar: {token!r}", path, line) from None


def _int(token: str, path: str, line: int) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        raise SchemaError(f"not an integer: {token!r}", path, line) from None


def _dim(token: str, path: str, line: int) -> int:
    dim = _int(token, path, line)
    if dim < 1:
        raise SchemaError(f"dim must be at least 1, got {dim}", path, line)
    return dim


def _degree(token: str, name: str, path: str, line: int) -> int:
    deg = _int(token, path, line)
    if deg < 0:
        raise SchemaError(f"{name} must be at least 0, got {deg}", path, line)
    return deg


def _word(token: str, path: str, line: int) -> Word:
    token = token.strip()
    if token == "-":
        return ()
    return tuple(_int(part.strip(), path, line) for part in token.split(","))


def parse_word(text: str, where: str, dim: int) -> Word:
    """Parse a word argument: comma-separated letter indices in ``0..dim-1``,
    ``-`` for empty."""
    word = _word(text, where, None)
    if any(k < 0 or k >= dim for k in word):
        raise SchemaError(f"letter index out of range 0..{dim - 1}: {text.strip()!r}", where)
    return word


def word_str(w: Word) -> str:
    """Render a word the way the file formats do."""
    return ",".join(map(str, w)) if w else "-"


def _element(tokens: list[str], path: str, line: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for token in tokens:
        head, sep, tail = token.partition(":")
        if not sep:
            raise SchemaError(f"expected index:coefficient, got {token!r}", path, line)
        idx = _int(head, path, line)
        if idx in out:
            raise SchemaError(f"duplicate index {idx} in element", path, line)
        out[idx] = _scalar(tail, path, line)
    return out


def _element_str(value: dict[int, Fraction]) -> str:
    return " ".join(f"{k}:{c}" for k, c in sorted(value.items()))


class _Lines:
    """The significant lines of one file, with location bookkeeping."""

    def __init__(self, text: str, path: str):
        self.path = path
        self.items: list[tuple[int, str]] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                self.items.append((number, stripped))
        if not self.items:
            raise SchemaError("empty file", path)
        number, header = self.items.pop(0)
        self.header_line = number
        if not header.startswith(HEADER_PREFIX):
            raise SchemaError(
                f"missing header {HEADER_PREFIX!r} <kind>", path, number
            )
        self.kind = header[len(HEADER_PREFIX) :].strip()
        if self.kind not in KINDS:
            raise SchemaError(f"unknown schema kind {self.kind!r}", path, number)

    def fields(self) -> list[tuple[int, str, str]]:
        out = []
        for number, text in self.items:
            key, sep, value = text.partition(":")
            if not sep:
                raise SchemaError("expected 'key: value'", self.path, number)
            out.append((number, key.strip(), value.strip()))
        return out


def _located(line: int | None, path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ``ValueError`` it raises refused
    at ``line`` of the file."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise SchemaError(str(err), path, line) from None


def _single(lines: _Lines, fields, key, default=None, required=True):
    """A field's ``(line, value)``; a missing one is located at the header,
    which names the schema."""
    hits = [(n, v) for n, k, v in fields if k == key]
    if not hits:
        if required and default is None:
            raise SchemaError(f"missing required field {key!r}", lines.path, lines.header_line)
        return None, default
    if len(hits) > 1:
        raise SchemaError(f"field {key!r} given twice", lines.path, hits[1][0])
    return hits[0]


# ---------------------------------------------------------------------------
# tensor maps


def _parse_tensor_map(lines: _Lines) -> TensorMap:
    fields = lines.fields()
    path = lines.path
    n_dim, dim_text = _single(lines, fields, "dim")
    n_dom, dom_text = _single(lines, fields, "dom")
    n_cod, cod_text = _single(lines, fields, "cod")
    dim = _dim(dim_text, path, n_dim)
    dom = _degree(dom_text, "dom", path, n_dom)
    cod = _degree(cod_text, "cod", path, n_cod)
    entries: dict[tuple[Word, Word], Fraction] = {}
    for number, key, value in fields:
        if key in ("dim", "dom", "cod"):
            continue
        if key != "entry":
            raise SchemaError(f"unexpected field {key!r}", path, number)
        body, sep, coeff_text = value.rpartition(":")
        if not sep:
            raise SchemaError("entry needs a trailing ': coefficient'", path, number)
        out_text, arrow, in_text = body.partition("<-")
        if not arrow:
            raise SchemaError("entry needs 'out <- in'", path, number)
        out_w = _word(out_text, path, number)
        in_w = _word(in_text, path, number)
        if len(out_w) != cod or len(in_w) != dom:
            raise SchemaError(
                f"entry degrees ({len(out_w)},{len(in_w)}) do not match"
                f" cod={cod}, dom={dom}",
                path,
                number,
            )
        if any(k < 0 or k >= dim for k in out_w + in_w):
            raise SchemaError("letter index out of range", path, number)
        if (out_w, in_w) in entries:
            raise SchemaError("duplicate entry", path, number)
        entries[(out_w, in_w)] = _scalar(coeff_text, path, number)
    return TensorMap(dim, dom, cod, entries)


def dump_tensor_map(tmap: TensorMap) -> str:
    out = [
        f"{HEADER_PREFIX} tensor-map",
        f"dim: {tmap.dim}",
        f"dom: {tmap.dom_deg}",
        f"cod: {tmap.cod_deg}",
    ]
    for (out_w, in_w), coeff in sorted(tmap.entries.items()):
        out.append(f"entry: {word_str(out_w)} <- {word_str(in_w)} : {coeff}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# structure constants (Lie or associative flavor)


def _parse_structure_constants(lines: _Lines):
    fields = lines.fields()
    path = lines.path
    n_flavor, flavor = _single(lines, fields, "flavor")
    if flavor not in ("lie", "assoc"):
        raise SchemaError(f"flavor must be 'lie' or 'assoc', got {flavor!r}", path, n_flavor)
    n_labels, labels_text = _single(lines, fields, "labels")
    labels = labels_text.split()
    if not labels:
        raise SchemaError("labels must be nonempty", path, n_labels)
    n_deg, degrees_text = _single(lines, fields, "degrees", required=False)
    if n_deg is None:
        degrees = [0] * len(labels)
    else:
        # a degrees line, even an empty one, states every degree
        degrees = [_int(t, path, n_deg) for t in degrees_text.split()]
        if len(degrees) != len(labels):
            raise SchemaError("one degree per label is required", path, n_deg)
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    marked: dict[tuple[int, int], int] = {}  # overflow marker -> its line
    # a Lie structure has no window and no unit
    known = ("flavor", "labels", "degrees")
    if flavor == "assoc":
        known += ("mode", "cap", "unit")
    for number, key, value in fields:
        if key in known:
            continue
        if key != "table":
            raise SchemaError(f"unexpected field {key!r}", path, number)
        pair_text, arrow, element_text = value.partition("->")
        if not arrow:
            raise SchemaError("table line needs 'i j -> element'", path, number)
        parts = pair_text.split()
        if len(parts) != 2:
            raise SchemaError("table key must be two indices", path, number)
        i = _int(parts[0], path, number)
        j = _int(parts[1], path, number)
        if not (0 <= i < len(labels) and 0 <= j < len(labels)):
            raise SchemaError("table index out of range", path, number)
        if (i, j) in table or (i, j) in marked:
            raise SchemaError(f"duplicate table pair ({i}, {j})", path, number)
        element_text = element_text.strip()
        if element_text == "!overflow":
            marked[(i, j)] = number
        else:
            element = _element(element_text.split(), path, number)
            if any(k < 0 or k >= len(labels) for k in element):
                raise SchemaError("element index out of range", path, number)
            table[(i, j)] = element
    if flavor == "lie":
        if marked:
            raise SchemaError("a Lie table cannot hold overflow markers", path, min(marked.values()))
        return LieStructure(tuple(labels), table, degrees=tuple(degrees))
    n_mode, mode = _single(lines, fields, "mode", default="quotient", required=False)
    if mode not in ("quotient", "window"):
        raise SchemaError(f"mode must be 'quotient' or 'window', got {mode!r}", path, n_mode)
    n_cap, cap_text = _single(lines, fields, "cap", default="0", required=False)
    cap = _int(cap_text, path, n_cap or 0)
    for (i, j), number in marked.items():
        if mode != "window" or degrees[i] + degrees[j] <= cap:
            raise SchemaError("an overflow marker needs a window pair past the cap", path, number)
    n_unit, unit_text = _single(lines, fields, "unit", default="", required=False)
    unit = _element(unit_text.split(), path, n_unit or 0) if unit_text else {}
    if any(k < 0 or k >= len(labels) for k in unit):
        raise SchemaError("unit index out of range", path, n_unit)
    return TruncatedAlgebra(
        labels, degrees, table, unit, mode=mode, cap=cap, unknown=lambda i, j: (i, j) in marked
    )


def dump_lie_structure(g: LieStructure) -> str:
    out = [
        f"{HEADER_PREFIX} structure-constants",
        "flavor: lie",
        f"labels: {' '.join(g.labels)}",
        f"degrees: {' '.join(map(str, g.degrees))}",
    ]
    for (i, j), value in sorted(g.table.items()):
        out.append(f"table: {i} {j} -> {_element_str(value)}")
    return "\n".join(out) + "\n"


def dump_associative_algebra(algebra: TruncatedAlgebra) -> str:
    out = [
        f"{HEADER_PREFIX} structure-constants",
        "flavor: assoc",
        f"labels: {' '.join(algebra.labels)}",
        f"degrees: {' '.join(map(str, algebra.degrees))}",
        f"mode: {algebra.mode}",
        f"cap: {algebra.cap}",
    ]
    if algebra.unit:
        out.append(f"unit: {_element_str(algebra.unit)}")
    for i in range(algebra.nbasis):
        for j in range(algebra.nbasis):
            value = algebra.table.get((i, j))
            if value:
                out.append(f"table: {i} {j} -> {_element_str(value)}")
            elif value is None and algebra.overflows(i, j):
                out.append(f"table: {i} {j} -> !overflow")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# bracket families


def _parse_rn_family(lines: _Lines) -> RnFamily:
    fields = lines.fields()
    path = lines.path
    n_dim, dim_text = _single(lines, fields, "dim")
    dim = _dim(dim_text, path, n_dim)
    n_deg, degrees_text = _single(lines, fields, "degrees", required=False)
    # a degrees line, even an empty one, states every degree
    degrees = None if n_deg is None else [_int(t, path, n_deg) for t in degrees_text.split()]
    fam = _located(n_deg, path, RnFamily, dim, {}, degrees=degrees)
    seen: set[tuple[int, Word]] = set()
    for number, key, value in fields:
        if key in ("dim", "degrees"):
            continue
        name, _, arity_text = key.partition(" ")
        if name != "component":
            raise SchemaError(f"unexpected field {key!r}", path, number)
        arity = _int(arity_text, path, number)
        word_text, sep, coeff_text = value.rpartition(":")
        if not sep:
            raise SchemaError("component line needs 'word : coefficient'", path, number)
        word = _word(word_text, path, number)
        if (arity, word) in seen:
            raise SchemaError(f"duplicate word {word}", path, number)
        seen.add((arity, word))
        _located(number, path, fam.add, arity, word, _scalar(coeff_text, path, number))
    return fam


def dump_rn_family(fam: RnFamily) -> str:
    out = [
        f"{HEADER_PREFIX} rn-family",
        f"dim: {fam.dim}",
        f"degrees: {' '.join(map(str, fam.degrees))}",
    ]
    for arity in fam.arities:
        for word, coeff in sorted(fam.component(arity).items()):
            out.append(f"component {arity}: {word_str(word)} : {coeff}")
    return "\n".join(out) + "\n"


def _parse_linfty_family(lines: _Lines) -> MultiBracketFamily:
    fields = lines.fields()
    path = lines.path
    n_labels, labels_text = _single(lines, fields, "labels")
    labels = tuple(labels_text.split())
    for k, label in enumerate(labels):
        if label in labels[:k]:
            raise SchemaError(f"duplicate label {label!r}", path, n_labels)
    n_deg, degrees_text = _single(lines, fields, "degrees")
    degrees = tuple(_int(t, path, n_deg) for t in degrees_text.split())
    basis = _located(n_deg, path, GradedBasis, labels, degrees)
    fam = MultiBracketFamily(basis, {})
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for number, key, value in fields:
        if key in ("labels", "degrees"):
            continue
        name, _, arity_text = key.partition(" ")
        if name != "op":
            raise SchemaError(f"unexpected field {key!r}", path, number)
        arity = _int(arity_text, path, number)
        args_text, arrow, element_text = value.partition("->")
        if not arrow:
            raise SchemaError("op line needs 'args -> element'", path, number)
        args = _word(args_text, path, number)
        if (arity, args) in seen:
            raise SchemaError(f"duplicate argument tuple {args}", path, number)
        seen.add((arity, args))
        _located(number, path, fam.add, arity, args, _element(element_text.split(), path, number))
    return fam


def dump_linfty_family(fam: MultiBracketFamily) -> str:
    out = [
        f"{HEADER_PREFIX} linfty-family",
        f"labels: {' '.join(fam.basis.labels)}",
        f"degrees: {' '.join(map(str, fam.basis.degrees))}",
    ]
    for arity in fam.arities():
        for args, value in sorted(fam.ops[arity].items()):
            out.append(f"op {arity}: {word_str(args)} -> {_element_str(value)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# quivers and relation coefficient vectors


def _parse_quiver(lines: _Lines):
    from .algebras import Quiver

    path = lines.path
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    edge_lines: dict[str, int] = {}
    for number, key, value in lines.fields():
        if key == "vertex":
            if not value or len(value.split()) != 1:
                raise SchemaError("vertex line needs one name", path, number)
            if value in vertices:
                raise SchemaError(f"duplicate vertex {value!r}", path, number)
            vertices.append(value)
        elif key == "edge":
            parts = value.split()
            if len(parts) != 3:
                raise SchemaError("edge line needs 'label source target'", path, number)
            if parts[0] in edge_lines:
                raise SchemaError(f"duplicate edge label {parts[0]!r}", path, number)
            edges.append((parts[0], parts[1], parts[2]))
            edge_lines[parts[0]] = number
        else:
            raise SchemaError(f"unexpected field {key!r}", path, number)
    # vertex lines may follow edge lines, so endpoints are checked at the end
    for label, src, tgt in edges:
        if src not in vertices or tgt not in vertices:
            message = f"edge {label} has an endpoint off the vertex list"
            raise SchemaError(message, path, edge_lines[label])
    return Quiver(tuple(vertices), tuple(edges))


def dump_quiver(q) -> str:
    out = [f"{HEADER_PREFIX} quiver"]
    out.extend(f"vertex: {v}" for v in q.vertices)
    out.extend(f"edge: {label} {src} {tgt}" for label, src, tgt in q.edges)
    return "\n".join(out) + "\n"


def _parse_relation_vectors(lines: _Lines) -> list[list[Fraction]]:
    path = lines.path
    vectors: list[list[Fraction]] = []
    for number, key, value in lines.fields():
        if key != "vector":
            raise SchemaError(f"unexpected field {key!r}", path, number)
        vec = [_scalar(t, path, number) for t in value.split()]
        if not vec:
            raise SchemaError("empty vector", path, number)
        if vectors and len(vec) != len(vectors[0]):
            raise SchemaError("vectors must share one length", path, number)
        vectors.append(vec)
    return vectors


def dump_relation_vectors(vectors) -> str:
    out = [f"{HEADER_PREFIX} relation-coefficients"]
    for vec in vectors:
        out.append("vector: " + " ".join(str(Fraction(c)) for c in vec))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# dispatch


_PARSERS = {
    "tensor-map": _parse_tensor_map,
    "structure-constants": _parse_structure_constants,
    "rn-family": _parse_rn_family,
    "linfty-family": _parse_linfty_family,
    "quiver": _parse_quiver,
    "relation-coefficients": _parse_relation_vectors,
}


def parse_text(text: str, path: str = "<text>"):
    """Parse one schema document; the header decides the kind."""
    lines = _Lines(text, path)
    return _PARSERS[lines.kind](lines)


def parse_inputs(path) -> object:
    """Read and parse one input file into its typed object."""
    p = Path(path)
    if not p.is_file():
        raise SchemaError("file not found", str(path))
    return parse_text(p.read_text(), str(path))


def _expect(path, kinds: tuple[type, ...], what: str):
    obj = parse_inputs(path)
    if not isinstance(obj, kinds):
        raise SchemaError(f"expected a {what} file", str(path))
    return obj


def load_tensor_map(path) -> TensorMap:
    return _expect(path, (TensorMap,), "tensor-map")


def load_square_map(path) -> TensorMap:
    """A tensor-map file whose map acts on the tensor square (dom and cod 2).

    A map of any other degree is an input error located at the line of its
    ``dom`` or ``cod`` field.
    """
    tmap = load_tensor_map(path)
    for key, deg in (("dom", tmap.dom_deg), ("cod", tmap.cod_deg)):
        if deg != 2:
            raise field_error(
                path, key, f"{key} must be 2 for a map on the tensor square, got {deg}"
            )
    return tmap


def field_error(path, key: str, message: str) -> SchemaError:
    """An input error located at the line of the ``key`` field of a parsed file."""
    lines = _Lines(Path(path).read_text(), str(path))
    number, _ = _single(lines, lines.fields(), key)
    return SchemaError(message, str(path), number)


def load_lie_structure(path) -> LieStructure:
    return _expect(path, (LieStructure,), "structure-constants (flavor lie)")


def load_associative_algebra(path) -> TruncatedAlgebra:
    return _expect(path, (TruncatedAlgebra,), "structure-constants (flavor assoc)")


def load_rn_family(path) -> RnFamily:
    return _expect(path, (RnFamily,), "rn-family")


def load_linfty_family(path) -> MultiBracketFamily:
    return _expect(path, (MultiBracketFamily,), "linfty-family")


def load_quiver(path):
    from .algebras import Quiver

    return _expect(path, (Quiver,), "quiver")


def load_relation_vectors(path) -> list[list[Fraction]]:
    return _expect(path, (list,), "relation-coefficients")
