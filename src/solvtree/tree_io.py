"""Line-oriented text format for tree models plus an indented human rendering.

Both walk a model's pre-order nodes in order; ``parse`` links node lines in one reverse pass.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .dataset import N_CLASSES, _check_schema, _plain_float, _plain_int
from .tree import LearnerParams, TreeModel, _check_node, _leaf_class, _link

FORMAT_LINE = "solvtree-tree 1"


class ModelFormatError(ValueError):
    """Malformed model text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"{message} (line {line})")


def serialize(model: TreeModel) -> str:
    """Render a model as text: header lines, then pre-order node lines."""
    p = model.params
    lines = [
        FORMAT_LINE,
        f"confidence_factor {p.confidence_factor!r}",
        f"min_leaf {p.min_leaf}",
        f"max_depth {'none' if p.max_depth is None else p.max_depth}",
        "schema " + ",".join(model.schema),
        f"trained {model.training_fingerprint[0]} " + ",".join(str(c) for c in model.training_fingerprint[1]),
    ]
    tree = model._tree
    # 17 significant digits round-trip any float64 exactly
    lines += (f"split {a} {t:.17g}" if a else "leaf " + " ".join(str(c) for c in leaf_counts)
              for a, t, leaf_counts in zip(tree.attribute, tree.threshold, tree.counts))
    return "\n".join(lines) + "\n"


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.replace("\r\n", "\n").removesuffix("\n").split("\n") if text else []
        self.pos = 0  # lines read so far, which is also the 1-based number of the last one

    def next(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"unexpected end of model text, expected {what}", self.pos + 1)
        line = self.lines[self.pos]
        self.pos += 1
        return line


def _header_value(reader: _LineReader, key: str, convert=str, error: str = ""):
    """``convert`` of the next line's text after ``key``; its ValueError raises ``error.format(text)``."""
    line = reader.next(f"'{key}' header")
    prefix = key + " "
    if not line.startswith(prefix):
        raise ModelFormatError(f"expected '{key}' header, found {line!r}", reader.pos)
    try:
        return convert(line[len(prefix):])
    except ValueError:
        raise ModelFormatError(error.format(line[len(prefix):]), reader.pos) from None


_LEARNER_HEADERS = (  # (key, convert, message for a text that convert refuses)
    ("confidence_factor", _plain_float, "non-numeric confidence_factor"),
    ("min_leaf", _plain_int, "non-integer min_leaf"),
    ("max_depth", lambda v: None if v == "none" else _plain_int(v), "bad max_depth {!r}"),
)


def _read_node_line(reader: _LineReader, schema: tuple[str, ...]) -> tuple[str, float, tuple[int, ...]]:
    """One pre-order node line as an (attribute, threshold, counts) triple; "" is a leaf's attribute."""
    at = reader.pos + 1
    line = reader.next("a node line")
    parts = line.split()
    if parts and parts[0] == "leaf":
        if len(parts) != 1 + N_CLASSES:
            raise ModelFormatError(f"leaf line needs {N_CLASSES} counts", at)
        try:
            counts = tuple(_plain_int(p) for p in parts[1:])
        except ValueError:
            raise ModelFormatError(f"non-integer leaf count in {line!r}", at) from None
        node = "", 0.0, counts
    elif parts and parts[0] == "split":
        if len(parts) != 3:
            raise ModelFormatError(f"split line must be 'split <attr> <threshold>', found {line!r}", at)
        try:
            node = parts[1], _plain_float(parts[2]), ()
        except ValueError:
            raise ModelFormatError(f"non-numeric threshold {parts[2]!r}", at) from None
    else:
        raise ModelFormatError(f"expected a 'split' or 'leaf' line, found {line!r}", at)
    _check_node(schema, *node, error=lambda message: ModelFormatError(message, at))
    return node


def parse(text: str) -> TreeModel:
    """Inverse of :func:`serialize`, whose text alone loads, its lines ended by ``\\n`` or ``\\r\\n`` only (the
    last one optionally); raises ModelFormatError with the line number."""
    reader = _LineReader(text)
    first = reader.next("format line")
    if first != FORMAT_LINE:
        raise ModelFormatError(f"unsupported format line {first!r}", 1)
    learner = {}
    for key, convert, error in _LEARNER_HEADERS:
        learner[key] = _header_value(reader, key, convert, error)
        try:  # the values before this one passed, so an error here is this line's
            params = LearnerParams(**learner)
        except ValueError as exc:
            raise ModelFormatError(str(exc), reader.pos) from None
    schema = tuple(_header_value(reader, "schema").split(","))
    try:
        _check_schema(schema)
    except ValueError as exc:
        raise ModelFormatError(str(exc), reader.pos) from None
    _header_value(reader, "trained")  # checked with every other line once the root's counts are known
    # node lines are read until the tree is complete; the reader raises at the end of the text
    nodes, unread = [], 1  # subtrees whose first line is still to come
    while unread:
        nodes.append(_read_node_line(reader, schema))
        unread += 1 if nodes[-1][0] else -1
    if reader.pos != len(reader.lines):
        raise ModelFormatError("trailing content after the tree", reader.pos + 1)
    tree = _link(nodes)
    model = TreeModel(tree, params, schema)
    for at, (line, expected) in enumerate(zip(reader.lines, serialize(model).splitlines()), 1):
        if line != expected:  # each model has one text: serialize's
            key, _, value = expected.partition(" ")
            kind = "line" if key in ("split", "leaf") else "header"
            raise ModelFormatError(f"'{key}' {kind} must read {value!r}", at)
    return model


def _leaf_text(counts: tuple[int, ...]) -> str:
    return f"{_leaf_class(counts).csv_name} [{' '.join(str(c) for c in counts)}]"


def render_lines(model: TreeModel) -> Iterator[str]:
    """Human-readable indented rendering, one branch per line, yielded as it goes.

    Each line ends in a newline. Indentation grows with depth, so the text
    of a deep chain grows with the square of its depth; yielding lines
    keeps memory at one line.
    """
    tree = model._tree
    up = [(0, 0, "")] * len(tree.end)  # each node's depth, and the parent and test of the branch to it
    for i, attribute in enumerate(tree.attribute):
        depth, parent, op = up[i]
        if attribute:  # both children come later in pre-order
            up[i + 1], up[tree.end[i + 1]] = (depth + 1, i, "<="), (depth + 1, i, ">")
        if i:
            head = f"{'|   ' * (depth - 1)}{tree.attribute[parent]} {op} {tree.threshold[parent]:.6g}"
            yield f"{head}:\n" if attribute else f"{head}: {_leaf_text(tree.counts[i])}\n"
        elif not attribute:  # a one-leaf tree
            yield _leaf_text(tree.counts[0]) + "\n"


def render_text(model: TreeModel) -> str:
    """The whole of :func:`render_lines` as one string."""
    return "".join(render_lines(model))


def write_model(model: TreeModel, path) -> None:
    Path(path).write_text(serialize(model), encoding="utf-8")


def read_model(path) -> TreeModel:
    return parse(Path(path).read_bytes().decode("utf-8"))  # no newline translation: a lone \r stays
