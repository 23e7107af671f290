"""Line-oriented text format for tree models plus an indented human rendering."""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import Iterator

from .dataset import N_CLASSES, _check_schema
from .tree import Leaf, LearnerParams, Split, TreeModel, TreeNode, _assemble, _leaf_from_counts

FORMAT_LINE = "solvtree-tree 1"


class ModelFormatError(ValueError):
    """Malformed model text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"{message} (line {line})")


def _node_lines(root: TreeNode, out: list[str]) -> None:
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append("leaf " + " ".join(str(c) for c in node.class_counts))
        else:
            # 17 significant digits round-trip any float64 exactly
            out.append(f"split {node.attribute} {node.threshold:.17g}")
            stack += (node.right, node.left)


def serialize(model: TreeModel) -> str:
    """Render a model as text: header lines, then pre-order node lines."""
    p = model.params
    n, counts = model.training_fingerprint
    lines = [
        FORMAT_LINE,
        f"confidence_factor {p.confidence_factor!r}",
        f"min_leaf {p.min_leaf}",
        f"max_depth {'none' if p.max_depth is None else p.max_depth}",
        "schema " + ",".join(model.schema),
        f"trained {n} " + ",".join(str(c) for c in counts),
    ]
    _node_lines(model.root, lines)
    return "\n".join(lines) + "\n"


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0  # lines read so far, which is also the 1-based number of the last one

    def next(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"unexpected end of model text, expected {what}", self.pos + 1)
        line = self.lines[self.pos]
        self.pos += 1
        return line


def _header_value(reader: _LineReader, key: str) -> str:
    line = reader.next(f"'{key}' header")
    prefix = key + " "
    if not line.startswith(prefix):
        raise ModelFormatError(f"expected '{key}' header, found {line!r}", reader.pos)
    return line[len(prefix):]


def _read_node_line(reader: _LineReader, schema: tuple[str, ...]) -> Leaf | tuple[str, float]:
    """One pre-order node line: a Leaf, or a split's (attribute, threshold)."""
    at = reader.pos + 1
    line = reader.next("a node line")
    parts = line.split()
    if parts and parts[0] == "leaf":
        if len(parts) != 1 + N_CLASSES:
            raise ModelFormatError(f"leaf line needs {N_CLASSES} counts", at)
        try:
            counts = tuple(int(p) for p in parts[1:])
        except ValueError:
            raise ModelFormatError(f"non-integer leaf count in {line!r}", at) from None
        if any(c < 0 for c in counts) or sum(counts) < 1:
            raise ModelFormatError("leaf counts must be non-negative with a positive total", at)
        return _leaf_from_counts(counts)
    if parts and parts[0] == "split":
        if len(parts) != 3:
            raise ModelFormatError(f"split line must be 'split <attr> <threshold>', found {line!r}", at)
        attribute = parts[1]
        if attribute not in schema:
            raise ModelFormatError(f"split attribute {attribute!r} not in schema", at)
        try:
            return attribute, float(parts[2])
        except ValueError:
            raise ModelFormatError(f"non-numeric threshold {parts[2]!r}", at) from None
    raise ModelFormatError(f"expected a 'split' or 'leaf' line, found {line!r}", at)


def parse(text: str) -> TreeModel:
    """Inverse of :func:`serialize`; raises ModelFormatError with the line number."""
    reader = _LineReader(text)
    first = reader.next("format line")
    if first != FORMAT_LINE:
        raise ModelFormatError(f"unsupported format line {first!r}", 1)
    try:
        cf = float(_header_value(reader, "confidence_factor"))
    except ValueError:
        raise ModelFormatError("non-numeric confidence_factor", reader.pos) from None
    try:
        min_leaf = int(_header_value(reader, "min_leaf"))
    except ValueError:
        raise ModelFormatError("non-integer min_leaf", reader.pos) from None
    raw_depth = _header_value(reader, "max_depth")
    if raw_depth == "none":
        max_depth = None
    else:
        try:
            max_depth = int(raw_depth)
        except ValueError:
            raise ModelFormatError(f"bad max_depth {raw_depth!r}", reader.pos) from None
    schema = tuple(_header_value(reader, "schema").split(","))
    try:
        _check_schema(schema)
    except ValueError as exc:
        raise ModelFormatError(str(exc), reader.pos) from None
    trained = _header_value(reader, "trained").split()
    if len(trained) != 2:
        raise ModelFormatError("'trained' header must be '<n> <c,c,c,c>'", reader.pos)
    try:
        n_trained = int(trained[0])
        counts = tuple(int(c) for c in trained[1].split(","))
    except ValueError:
        raise ModelFormatError("non-integer training fingerprint", reader.pos) from None
    if len(counts) != N_CLASSES:
        raise ModelFormatError(f"training fingerprint needs {N_CLASSES} counts", reader.pos)
    try:
        params = LearnerParams(cf, min_leaf, max_depth)
    except ValueError as exc:
        raise ModelFormatError(str(exc), reader.pos) from None
    # node lines are read until the tree is complete; the reader raises at the end of the text
    root = _assemble(_read_node_line(reader, schema) for _ in repeat(None))
    if reader.pos != len(reader.lines):
        raise ModelFormatError("trailing content after the tree", reader.pos + 1)
    return TreeModel(root, params, schema, (n_trained, counts))


def _leaf_text(leaf: Leaf) -> str:
    return f"{leaf.predicted.csv_name} [{' '.join(str(c) for c in leaf.class_counts)}]"


def render_lines(model: TreeModel) -> Iterator[str]:
    """Human-readable indented rendering, one branch per line, yielded as it goes.

    Each line ends in a newline. Indentation grows with depth, so the text
    of a deep chain grows with the square of its depth; yielding lines
    keeps memory at one line.
    """
    if isinstance(model.root, Leaf):
        yield _leaf_text(model.root) + "\n"
        return

    def branches(node: Split, depth: int) -> list[tuple[Split, str, TreeNode, int]]:
        return [(node, ">", node.right, depth), (node, "<=", node.left, depth)]  # left pops first

    stack = branches(model.root, 0)
    while stack:
        node, op, child, depth = stack.pop()
        head = f"{'|   ' * depth}{node.attribute} {op} {node.threshold:.6g}"
        if isinstance(child, Leaf):
            yield f"{head}: {_leaf_text(child)}\n"
        else:
            yield f"{head}:\n"
            stack += branches(child, depth + 1)


def render_text(model: TreeModel) -> str:
    """The whole of :func:`render_lines` as one string."""
    return "".join(render_lines(model))


def write_model(model: TreeModel, path) -> None:
    Path(path).write_text(serialize(model), encoding="utf-8")


def read_model(path) -> TreeModel:
    return parse(Path(path).read_text(encoding="utf-8"))
