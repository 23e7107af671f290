import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solvtree import (
    Leaf,
    LearnerParams,
    ModelFormatError,
    Split,
    TreeModel,
    grow,
    parse,
    read_model,
    render_text,
    serialize,
    write_model,
)
from solvtree.cli import main

from oracles import make_dataset

_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _chain_text(depth: int) -> str:
    """Model text of a right-leaning chain of ``depth`` splits on V1."""
    nodes = "".join(f"split V1 {i}\nleaf 1 0 0 0\n" for i in range(depth))
    header = "solvtree-tree 1\nconfidence_factor 0.25\nmin_leaf 2\nmax_depth none\nschema V1\n"
    return f"{header}trained {depth + 1} {depth},0,0,1\n{nodes}leaf 0 0 0 1\n"


def _random_model(rng):
    n = int(rng.integers(4, 30))
    rows = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(n)]
    labels = [int(v) for v in rng.integers(0, 4, size=n)]
    return grow(make_dataset(rows, labels))


class TestRoundTrip:
    def test_random_corpus(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            model = _random_model(rng)
            assert parse(serialize(model)) == model

    def test_awkward_threshold_round_trips(self):
        model = TreeModel(
            Split("V3", 1.0 / 3.0,
                  Leaf((2, 0, 0, 0)),
                  Leaf((0, 0, 0, 2))),
            LearnerParams(confidence_factor=0.1, min_leaf=3, max_depth=7),
            ("V3", "V5"),
        )
        again = parse(serialize(model))
        assert again == model
        assert again.root.threshold == 1.0 / 3.0

    @given(
        st.integers(1, 40).flatmap(lambda n: st.tuples(
            st.lists(st.tuples(_FINITE, st.sampled_from([0.0, 1.0, 2.0]), _FINITE), min_size=n, max_size=n),
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
        )),
        st.sampled_from([1, 2, 3]),
    )
    def test_trees_grown_on_generated_data(self, rows_labels, min_leaf):
        rows, labels = rows_labels
        model = grow(make_dataset(rows, labels), LearnerParams(min_leaf=min_leaf))
        assert parse(serialize(model)) == model

    def test_a_list_schema_is_kept_as_a_tuple(self):
        # hand-built and grown trees alike, so that the parsed model equals the one serialized
        hand_built = TreeModel(Leaf((1, 0, 0, 0)), LearnerParams(), ["V1"])
        grown = grow(make_dataset([(0.0,), (1.0,), (2.0,), (3.0,)], [0, 0, 3, 3]), LearnerParams(min_leaf=1))
        regrown = TreeModel(grown._tree, grown.params, list(grown.schema))
        for model in (hand_built, regrown):
            assert type(model.schema) is tuple
            assert parse(serialize(model)) == model

    def test_crlf_line_ends_load(self):
        model = _random_model(np.random.default_rng(5))
        assert parse(serialize(model).replace("\n", "\r\n")) == model

    def test_file_round_trip(self, tmp_path):
        model = _random_model(np.random.default_rng(5))
        path = tmp_path / "model.tree"
        write_model(model, path)
        assert read_model(path) == model

    # str.splitlines and text-mode reads end a line at each of these; the format ends one at \n or \r\n only
    @pytest.mark.parametrize("end", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_other_line_ends_are_refused(self, end):
        text = serialize(_random_model(np.random.default_rng(5)))
        with pytest.raises(ModelFormatError):
            parse(text.replace("\n", end))

    def test_render_tree_refuses_a_file_with_cr_line_ends(self, tmp_path, capsys):
        path = tmp_path / "model.tree"
        path.write_bytes(serialize(_random_model(np.random.default_rng(5))).replace("\n", "\r").encode())
        assert main(["render-tree", "--model", str(path)]) == 1
        assert "unsupported format line" in capsys.readouterr().err


class TestHandBuiltModels:
    """A model built by hand is refused when built, as parse refuses the text serialize would write for it."""

    @pytest.mark.parametrize("root, message", [
        (Split("V99", 0.0, Leaf((1, 0, 0, 0)), Leaf((0, 0, 0, 1))), "split attribute 'V99' not in schema"),
        (Split("V1", float("nan"), Leaf((1, 0, 0, 0)), Leaf((0, 0, 0, 1))), "non-finite threshold nan"),
        (Split("V1", 0.5, Leaf((0, 0, 0, 0)), Leaf((0, 0, 0, 1))), "positive total"),
        (Leaf((3, -1, 0, 0)), "non-negative"),
    ], ids=["unknown attribute", "nan threshold", "all-zero leaf", "negative count"])
    def test_refused_when_built(self, root, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TreeModel(root, LearnerParams(), ("V1",))


class TestParseErrors:
    def _text(self):
        model = _random_model(np.random.default_rng(9))
        return serialize(model)

    def test_bad_format_line(self):
        with pytest.raises(ModelFormatError) as exc_info:
            parse("something-else 9\n")
        assert exc_info.value.line == 1

    def test_truncated(self):
        text = self._text()
        lines = text.splitlines()
        with pytest.raises(ModelFormatError, match="unexpected end"):
            parse("\n".join(lines[:-1]))

    def test_trailing_content(self):
        with pytest.raises(ModelFormatError, match="trailing"):
            parse(self._text() + "leaf 1 0 0 0\n")

    def test_bad_node_line_number(self):
        text = self._text()
        lines = text.splitlines()
        lines[6] = "bogus line"
        with pytest.raises(ModelFormatError) as exc_info:
            parse("\n".join(lines))
        assert exc_info.value.line == 7

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_threshold_names_its_line(self, threshold):
        # grown trees split between finite values; nan would route every row right
        lines = self._text().splitlines()
        lines[8] = f"split V1 {threshold}"
        with pytest.raises(ModelFormatError, match="non-finite threshold") as exc_info:
            parse("\n".join(lines))
        assert exc_info.value.line == 9

    def test_unknown_schema_attribute(self):
        text = self._text().replace("schema V1,V2", "schema V1,V99")
        with pytest.raises(ModelFormatError, match="V99"):
            parse(text)

    def test_duplicate_schema_attribute_names_its_line(self):
        text = self._text().replace("schema V1,V2", "schema V1,V1")
        with pytest.raises(ModelFormatError, match="duplicate attribute 'V1'") as exc_info:
            parse(text)
        assert exc_info.value.line == 5

    # a two-leaf model whose root counts are 5,5,5,5; each case replaces one of its lines
    _SMALL = ("solvtree-tree 1\nconfidence_factor 0.25\nmin_leaf 2\nmax_depth none\nschema V1,V2\n"
              "trained 20 5,5,5,5\nsplit V1 1.5\nleaf 5 0 0 0\nleaf 0 5 5 5\n")

    @pytest.mark.parametrize("line, text, message", [
        (2, "confidence_factor 0.2_5", "non-numeric confidence_factor"),
        (2, "confidence_factor 0.9", "confidence_factor must be in"),
        (3, "min_leaf ٢", "non-integer min_leaf"),
        (3, "min_leaf 2_0", "non-integer min_leaf"),
        (3, "min_leaf 0", "min_leaf must be >= 1"),
        (4, "max_depth -1", "max_depth must be >= 0"),
        (4, "max_depth ４", "bad max_depth"),
        (6, "trained 7 -1,0,0,99", "'trained' header must read '20 5,5,5,5'"),
        (6, "trained 20", "'trained' header must read"),
        (6, "trained 20 5,5,5,x", "'trained' header must read"),
        (6, "trained 20 5,5,5", "'trained' header must read"),
        (6, "trained 2_0 5,5,5,5", "'trained' header must read"),
        (7, "split V1", "split line must be"),
        (7, "split V3 1.5", "split attribute 'V3' not in schema"),
        (7, "split V1 x", "non-numeric threshold"),
        (7, "split V1 1_5", "non-numeric threshold"),
        (8, "leaf 5 0 0", "leaf line needs 4 counts"),
        (8, "leaf 5_0 0 0 0", "non-integer leaf count"),
        (8, "leaf ５ 0 0 0", "non-integer leaf count"),
        # numbers that read back as the model's own but are not spelled as serialize spells them
        (2, "confidence_factor 0.250", "'confidence_factor' header must read '0.25'"),
        (3, "min_leaf +2", "'min_leaf' header must read '2'"),
        (3, "min_leaf  2", "'min_leaf' header must read '2'"),
        (4, "max_depth 07", "'max_depth' header must read '7'"),
        (7, "split V1 1.50", "'split' line must read 'V1 1.5'"),
        (8, "leaf 05 0 0 0", "'leaf' line must read '5 0 0 0'"),
    ])
    def test_bad_line_names_its_line(self, line, text, message):
        assert parse(self._SMALL).training_fingerprint == (20, (5, 5, 5, 5))
        lines = self._SMALL.splitlines()
        lines[line - 1] = text
        with pytest.raises(ModelFormatError, match=re.escape(message)) as exc_info:
            parse("\n".join(lines))
        assert exc_info.value.line == line

    def test_bad_counts(self):
        model = TreeModel(
            Leaf((1, 0, 0, 0)), LearnerParams(), ("V1",)
        )
        text = serialize(model).replace("leaf 1 0 0 0", "leaf 0 0 0 0")
        with pytest.raises(ModelFormatError, match="positive total"):
            parse(text)


_BASE_TEXTS = [serialize(_random_model(np.random.default_rng(seed))) for seed in (9, 21, 40)] + [
    serialize(TreeModel(Leaf((3, 0, 0, 1)), LearnerParams(), ("V2", "V5", "V11")))
]
_ODD_TOKENS = ["V1", "V2", "V11", "V12", "leaf", "split", "none", "0", "-1", "0.5", "nan", "inf",
               "1e400", "99999999999999999999", "", " ", ","]


@st.composite
def _mutated_model_text(draw) -> str:
    """A serialized model with one to three of its lines deleted, doubled or edited.

    An edit replaces one token of a line by another token of the same line,
    an odd token or random text; the six header lines are picked half the time.
    """
    lines = draw(st.sampled_from(_BASE_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, 5) | st.integers(0, len(lines) - 1)) % len(lines)
        op = draw(st.sampled_from(["token", "token", "delete", "double", "replace"]))
        if op == "token":
            parts = re.split(r"([ ,])", lines[i])
            j = draw(st.integers(0, len(parts) - 1))
            parts[j] = draw(st.sampled_from(parts) | st.sampled_from(_ODD_TOKENS) | st.text(max_size=4))
            lines[i] = "".join(parts)
        elif op == "delete":
            del lines[i]
        elif op == "double":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(st.text(max_size=16))
    return "\n".join(lines) + "\n"


class TestFuzzedModelText:
    @given(_mutated_model_text())
    def test_parse_returns_a_usable_model_or_raises_model_format_error(self, text):
        try:
            model = parse(text)
        except ModelFormatError:
            return
        # a model that loads is one the rest of the package accepts
        make_dataset([(0.0,) * 11], [0]).with_schema(model.schema)
        assert serialize(parse(serialize(model))) == serialize(model)


class TestRenderText:
    def test_single_leaf_one_line(self):
        model = TreeModel(
            Leaf((0, 0, 0, 9)), LearnerParams(), ("V1",)
        )
        assert render_text(model) == "strong [0 0 0 9]\n"

    def test_depth_two_indentation(self):
        model = TreeModel(
            Split(
                "V1", 1.5,
                Leaf((3, 0, 0, 0)),
                Split(
                    "V2", 0.75,
                    Leaf((0, 2, 0, 0)),
                    Leaf((0, 0, 0, 4)),
                ),
            ),
            LearnerParams(),
            ("V1", "V2"),
        )
        text = render_text(model)
        assert text == (
            "V1 <= 1.5: insolvency [3 0 0 0]\n"
            "V1 > 1.5:\n"
            "|   V2 <= 0.75: weak [0 2 0 0]\n"
            "|   V2 > 0.75: strong [0 0 0 4]\n"
        )
        assert "|   |   " not in text

    def test_left_subtree_before_right_branch(self):
        model = TreeModel(
            Split(
                "V1", 1.5,
                Split(
                    "V2", 0.75,
                    Leaf((3, 0, 0, 0)),
                    Leaf((0, 2, 0, 0)),
                ),
                Leaf((0, 0, 0, 4)),
            ),
            LearnerParams(),
            ("V1", "V2"),
        )
        assert render_text(model) == (
            "V1 <= 1.5:\n"
            "|   V2 <= 0.75: insolvency [3 0 0 0]\n"
            "|   V2 > 0.75: weak [0 2 0 0]\n"
            "V1 > 1.5: strong [0 0 0 4]\n"
        )


class TestDeepModels:
    def test_deep_chain_round_trips(self):
        text = _chain_text(5000)
        # compare text: dataclass equality on so deep a model would itself recurse
        assert serialize(parse(text)) == text

    def test_render_tree_on_deep_chain(self, tmp_path, capsys):
        # the rendering's indentation grows with depth, so its size with depth squared;
        # 1500 splits (9 MB of text) is already well past the interpreter's recursion limit
        path = tmp_path / "chain.tree"
        path.write_text(_chain_text(1500), encoding="utf-8")
        out = tmp_path / "chain.txt"
        assert main(["render-tree", "--model", str(path), "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3000
        assert lines[-1] == "|   " * 1499 + "V1 > 1499: strong [0 0 0 1]"

    def test_render_tree_memory_stays_below_output_size(self, tmp_path):
        path = tmp_path / "chain.tree"
        path.write_text(_chain_text(1500), encoding="utf-8")
        out = tmp_path / "chain.txt"
        tracemalloc.start()
        try:
            assert main(["render-tree", "--model", str(path), "-o", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the lines are written as they are rendered, never held as one string
        assert peak < out.stat().st_size / 4
