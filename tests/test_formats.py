import enum
import json
import math
import re
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from assocmem import ParseError, load_weights, parse_memories, parse_proximity, train
from assocmem.core import _proximity_fault, validate_memory_set
from assocmem.formats import _ascii_number, _content_lines, _split_lines, render_document, weights_document

GOLDEN = Path(__file__).parent / "golden"


class TestParseMemories:
    def test_single_vector(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 1 -1 1\n")
        mset = parse_memories(f)
        assert mset.m == 1
        assert list(mset.vectors[0]) == [1, 1, -1, 1]

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("# header\n\n1 -1  # trailing note\n\n-1 1\n")
        mset = parse_memories(f)
        assert mset.m == 2

    def test_plus_sign_accepted(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("+1 -1\n")
        assert list(parse_memories(f).vectors[0]) == [1, -1]

    def test_bad_token_reports_line_and_column(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 1 1\n1 2 1\n")
        with pytest.raises(ParseError, match=r"m\.txt:2:3: bad memory token '2'"):
            parse_memories(f)

    def test_inconsistent_widths(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 1\n1 1 1\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_memories(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("# nothing here\n")
        with pytest.raises(ParseError, match=r"m\.txt:1: no memory vectors"):
            parse_memories(f)

    def test_form_feed_is_whitespace_not_a_line_break(self, tmp_path):
        # str.splitlines would split at \f and report the bad token on line 3
        f = tmp_path / "m.txt"
        f.write_text("1 -1\f1 1\n1 2 1 1\n")
        with pytest.raises(ParseError, match=r"m\.txt:2:3: bad memory token '2'"):
            parse_memories(f)

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_bytes(b"1 -1\r-1 1\r\n")
        assert parse_memories(f).m == 2

    def test_non_utf8_bytes_report_line_and_column(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_bytes(b"1 -1\n1 \xff\n")
        with pytest.raises(ParseError, match=r"m\.txt:2:3: not UTF-8 text"):
            parse_memories(f)

    def test_whitespace_and_comment_lines_are_skipped(self, tmp_path):
        # U+3000 and \x1c are Unicode whitespace, U+200B is not
        f = tmp_path / "m.txt"
        f.write_text("\u3000\n1 -1\n\x1c\x1c\n# only a comment\n \u3000# note\n-1 1#x\n\u200b\n", encoding="utf-8")
        assert list(_content_lines(f)) == [(2, "1 -1"), (6, "-1 1"), (7, "\u200b")]
        f.write_text("\u3000\n1 -1\n\x1c\n# only a comment\n-1 1\n", encoding="utf-8")
        assert parse_memories(f).vectors.tolist() == [[1, -1], [-1, 1]]

    def test_isspace_and_strip_agree_on_every_code_point(self):
        # a blank line is found with isspace; strip defined blank before
        assert all(chr(c).isspace() == (chr(c).strip() == "") for c in range(0x110000))

    @given(text=st.text(alphabet="1 #\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\u00e9", max_size=40))
    @example(text="1" * 8191 + "\r\n1")
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_lines_end_where_split_lines_ends_them(self, tmp_path, text):
        # read one line at a time, a file keeps the line breaks of the whole-text split,
        # a \r\n across two read chunks included; every other separator stays in its line
        f = tmp_path / "lines.txt"
        f.write_bytes(text.encode("utf-8"))
        assert list(_content_lines(f)) == reference_content_lines(f)



class TestParseProximity:
    def test_valid(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 1 2\n1 0 1\n2 1 0\n")
        p = parse_proximity(f)
        assert p.shape == (3, 3)

    def test_asymmetry_named(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 1\n2 0\n")
        with pytest.raises(ParseError, match=r"p\.txt:1: proximity matrix is asymmetric at \(1, 2\)"):
            parse_proximity(f)

    def test_fault_names_the_line_of_its_row(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("# distances\n0 1 2\n\n1 0 1\n2 1 1\n")
        with pytest.raises(ParseError, match=r"p\.txt:5: proximity diagonal must be zero, neuron 3"):
            parse_proximity(f)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_token(self, tmp_path, token):
        f = tmp_path / "p.txt"
        f.write_text(f"0 {token}\n{token} 0\n")
        with pytest.raises(ParseError, match=r"p\.txt:1:3: distances must be finite"):
            parse_proximity(f)

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "0x1", "1e", "."])
    def test_only_decimal_reals(self, tmp_path, token):
        f = tmp_path / "p.txt"
        f.write_text(f"0 {token}\n{token} 0\n")
        with pytest.raises(ParseError, match=r"p\.txt:1:3: bad distance token"):
            parse_proximity(f)

    def test_decimal_spellings(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 +1.5 .5 2e0\n1.5 0. 1 1E1\n0.5 1 0 3\n2 10 3 -0\n")
        assert parse_proximity(f)[0].tolist() == [0.0, 1.5, 0.5, 2.0]

    def test_nonzero_diagonal(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0.5 1\n1 0\n")
        with pytest.raises(ParseError, match="diagonal"):
            parse_proximity(f)

    def test_non_square(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 1 2 3\n1 0 1 2\n2 1 0 1\n")
        with pytest.raises(ParseError, match=r"p\.txt:3: proximity matrix must be square"):
            parse_proximity(f)

    def test_bad_token(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 x\nx 0\n")
        with pytest.raises(ParseError, match="bad distance token 'x'"):
            parse_proximity(f)

    def test_negative_distance(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 -1\n-1 0\n")
        with pytest.raises(ParseError, match="nonnegative"):
            parse_proximity(f)

    def test_peak_memory_is_near_the_matrix(self, tmp_path):
        # each row becomes float64 as it is read; text, lines and Python floats are never all held
        n = 400
        a = np.add.outer(np.arange(n), np.arange(n)) % 7 + 1.25
        np.fill_diagonal(a, 0)
        f = tmp_path / "p.txt"
        f.write_text("\n".join(" ".join(map(str, row)) for row in a.tolist()) + "\n")
        tracemalloc.start()
        try:
            matrix = parse_proximity(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.tolist() == a.tolist()
        assert peak < 1.6 * matrix.nbytes

    def test_one_long_row_is_not_taken_for_the_matrix_width(self, tmp_path):
        # 10^5 tokens on one line: a matrix sized from that row would take 80 GB
        f = tmp_path / "p.txt"
        f.write_text("1 " * 100_000 + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=r"p\.txt:1: proximity matrix must be square, got 1 rows of 100000$"):
                parse_proximity(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


@pytest.mark.parametrize("parse", [parse_memories, parse_proximity], ids=["memories", "proximity"])
def test_a_late_non_utf8_byte_outranks_an_early_bad_token(tmp_path, parse):
    # the file spans several read chunks: the bad token on line 2 is read long
    # before the bad byte, which still decides the error
    f = tmp_path / "f.txt"
    lines = [b"1 -1 1", b"-1 x 1"] + [b"1 -1 1 -1 1 -1 1 -1 1 -1"] * 8000 + [b"1 -1 \xff 1", b"1"]
    f.write_bytes(b"\n".join(lines))
    assert f.stat().st_size > 64 * 1024
    with pytest.raises(ParseError, match=rf"^{re.escape(str(f))}:8003:6: not UTF-8 text$"):
        parse(f)


class TestWeightsDocuments:
    def test_round_trip(self, tmp_path, two_memories):
        w = train(two_memories)
        doc = weights_document(w, {"memories": "m.txt", "out": "w.json", "seed": None})
        path = tmp_path / "w.json"
        path.write_text(render_document(doc))
        back = load_weights(path)
        assert np.array_equal(back, w)

    def test_document_embeds_identity_and_config(self, two_memories):
        w = train(two_memories)
        doc = weights_document(w, {"seed": None})
        assert doc["tool"] == "assocmem"
        assert doc["version"]
        assert doc["config"] == {"seed": None}

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("{\n  broken\n")
        with pytest.raises(ParseError, match=r"w\.json:2:3"):
            load_weights(path)

    def test_missing_weights_key(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "weights"}))
        with pytest.raises(ParseError, match="'weights' key"):
            load_weights(path)

    def test_invalid_matrix_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "weights", "weights": [[0, 1], [2, 0]]}))
        with pytest.raises(ParseError, match="asymmetric"):
            load_weights(path)

    def test_declared_n_mismatch(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "weights", "n": 3, "weights": [[0, 1], [1, 0]]}))
        with pytest.raises(ParseError, match="n=3"):
            load_weights(path)

    @pytest.mark.parametrize("declared", [2.5, "2", "x", [2], 2.0, True])
    def test_declared_n_is_not_cast(self, tmp_path, declared):
        # 2.5, "2" and 2.0 do not declare a 2x2 matrix, nor true a 1x1 one, though 2.0 == 2
        # and True == 1; "x" is a parse error, not a crash
        weights = [[0]] if declared is True else [[0, 1], [1, 0]]
        size = len(weights)
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "weights", "n": declared, "weights": weights}))
        with pytest.raises(ParseError, match=re.escape(f"n={declared} but the matrix is {size}x{size}")):
            load_weights(path)

    def test_render_is_stable(self):
        doc = {"tool": "assocmem", "value": [1, 2]}
        assert render_document(doc) == render_document(doc)
        assert render_document(doc).endswith("\n")


# text a renderer that splits or joins on separators would mangle
_awkward_text = st.one_of(
    st.text(max_size=8),
    st.sampled_from([", ", ": ", ",\n  ", '"', '\\"', "{}", "[]", "\u00e9t\u00e9", "\u2028", "\U0001f600"]),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**64 + 2),
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    _awkward_text,
)
_keys = st.one_of(_awkward_text, st.integers(), st.floats(), st.booleans(), st.none())
_documents = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_keys, inner, max_size=5),
    ),
    max_leaves=30,
)


class TestRenderDocument:
    @given(doc=_documents)
    @example(doc={"a": [], "b": {}, "c": [[], {}, [1, True, 1.0]], ", ": {": ": -0.0}})
    @example(doc=[1, [2, [3, {"n": [math.nan, math.inf, -math.inf, 2**70]}]]])
    @settings(max_examples=400)
    def test_matches_indented_dumps(self, doc):
        assert render_document(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
    def test_golden_documents_re_render_to_their_bytes(self, name):
        text = (GOLDEN / name).read_text(encoding="utf-8")
        assert render_document(json.loads(text)) == text

    def test_subclasses_render_as_their_base_types(self):
        class Row(list):
            pass

        level = enum.IntEnum("Level", "LOW HIGH")
        doc = OrderedDict([("rows", Row([Row([1, level.HIGH]), (2.5, "x")])), ("empty", Row())])
        assert render_document(doc) == json.dumps(doc, indent=2) + "\n"

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError):
            render_document({"a": [np.int64(1)]})
        with pytest.raises(TypeError):
            render_document({"a": {(1, 2): 3}})


# tokens a hand-edited file might hold: good ones, stray signs, typos,
# non-finite and underscored numbers, comments and odd whitespace
_FUZZ_TOKENS = [
    "1", "-1", "+1", "0", "2", "-0", "0.5", "1.0", "-", "+", "+-1", "--1", "1e3", "1e999",
    "nan", "inf", "-inf", "1_0", "0x1", "x", "#", "# note", "\t", "\v", "\f", "\x85",
    "\u00a0", "\u2028", "\u0661", "\r",
]

_random_lines = st.lists(
    st.one_of(
        st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=6).map(" ".join),
        st.text(max_size=12),
    ),
    max_size=6,
)


@st.composite
def _mangled(draw, make_row):
    """A valid file of n rows of n tokens with one token swapped and maybe a line dropped."""
    n = draw(st.integers(1, 4))
    rows = [[make_row(i, j) for j in range(n)] for i in range(n)]
    rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.sampled_from(_FUZZ_TOKENS))
    lines = [" ".join(row) for row in rows]
    if draw(st.booleans()):
        del lines[draw(st.integers(0, n - 1))]
    return lines


_memory_files = st.one_of(_random_lines, _mangled(lambda i, j: "1" if (i + j) % 2 else "-1"))
_proximity_files = st.one_of(_random_lines, _mangled(lambda i, j: str(abs(i - j))))


def reference_content_lines(path):
    """(line number, comment-stripped text) of each content line, from the whole decoded
    text: every byte is decoded before any line is read, so a byte that is not UTF-8
    outranks every other fault."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = _split_lines(data[: exc.start].decode("utf-8"))
        raise ParseError(f"{path}:{len(head)}:{len(head[-1]) + 1}: not UTF-8 text") from None
    lines = []
    for lineno, raw in enumerate(_split_lines(text), start=1):
        body = raw.split("#", 1)[0]
        if body and not body.isspace():
            lines.append((lineno, body))
    return lines


def reference_memories(path):
    """The token loop parse_memories used before it read each line with one split."""
    p = Path(path)
    tokens = {"1": 1, "+1": 1, "-1": -1}
    rows = []
    widths = []
    for lineno, body in reference_content_lines(p):
        row = []
        for match in re.finditer(r"\S+", body):
            token = match.group()
            if token not in tokens:
                raise ParseError(
                    f"{p}:{lineno}:{match.start() + 1}: bad memory token {token!r}, expected 1 or -1"
                )
            row.append(tokens[token])
        rows.append(row)
        widths.append((lineno, len(row)))
    if not rows:
        raise ParseError(f"{p}:1: no memory vectors found")
    first_line, first_width = widths[0]
    for lineno, width in widths[1:]:
        if width != first_width:
            raise ParseError(
                f"{p}:{lineno}: memory has {width} entries, line {first_line} has {first_width}"
            )
    return validate_memory_set(rows)


def reference_proximity(path):
    """The token loop parse_proximity used before it read each line with one split."""
    p = Path(path)
    rows = []
    for lineno, body in reference_content_lines(p):
        read = float if "_" not in body and body.isascii() else _ascii_number
        row = []
        for match in re.finditer(r"\S+", body):
            token = match.group()
            try:
                value = read(token)
            except ValueError:
                raise ParseError(f"{p}:{lineno}:{match.start() + 1}: bad distance token {token!r}") from None
            if not 0 <= value < math.inf:
                raise ParseError(
                    f"{p}:{lineno}:{match.start() + 1}: distances must be finite and nonnegative, got {token}"
                )
            row.append(value)
        rows.append((lineno, row))
    if not rows:
        raise ParseError(f"{p}:1: no proximity rows found")
    width = len(rows[0][1])
    for lineno, row in rows:
        if len(row) != width:
            raise ParseError(f"{p}:{lineno}: row has {len(row)} entries, expected {width}")
    if len(rows) != width:
        lineno = rows[min(width, len(rows) - 1)][0]
        raise ParseError(f"{p}:{lineno}: proximity matrix must be square, got {len(rows)} rows of {width}")
    matrix = np.array([row for _, row in rows], dtype=np.float64)
    fault = _proximity_fault(matrix)
    if fault is not None:
        row, message = fault
        raise ParseError(f"{p}:{rows[row][0]}: {message}")
    return matrix


def _outcome(parse, path):
    """What a parser makes of a file: its values (with their dtype), or its ParseError text."""
    try:
        result = parse(path)
    except ParseError as exc:
        return "error", str(exc)
    if hasattr(result, "vectors"):
        return "memories", result.vectors.dtype, result.vectors.tolist(), result.duplicates
    # tolist() keeps the sign of -0.0 apart in repr; compare reprs so it counts
    return "matrix", result.dtype, repr(result.tolist())


# whitespace that str.split and the token pattern agree on, and one (U+200B) that neither takes
_SEPARATORS = [" ", "  ", "\t", "\v", "\f", "\x1c", "\x1f", "\x85", "\u00a0", "\u2028", "\u3000", "\u200b"]


@st.composite
def _separated_square(draw, make_row, tokens):
    """An n x n file with random separators and comments, maybe one token swapped or a line dropped."""
    n = draw(st.integers(1, 4))
    rows = [[make_row(i, j) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.sampled_from(tokens))
    lines = []
    for row in rows:
        seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=n + 1, max_size=n + 1))
        line = seps[0] + "".join(token + sep for token, sep in zip(row, seps[1:]))
        lines.append(line + draw(st.sampled_from(["", "# note", "#\u00e9 1 x"])))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# header", "\x85", "\u00a0"])))
    if draw(st.booleans()):
        del lines[draw(st.integers(0, n - 1))]
    return lines


_DISTANCES = ["1", "0.5", "2e0", "1e308", "1.7976931348623157e308", "3.25", "1E1"]
_extra_tokens = _FUZZ_TOKENS + ["1e308", "-1e308", "1.5", "0.0", "-0.0", "\u00a01", "1\u00a0", "\u200b1"]

_differential_memory_files = st.one_of(
    _memory_files,
    _separated_square(lambda i, j: "1" if (i + j) % 2 else "-1", _extra_tokens),
    _separated_square(lambda i, j: "+1" if i == j else "-1", _extra_tokens),
)
_differential_proximity_files = st.one_of(
    _proximity_files,
    _separated_square(lambda i, j: "0" if i == j else _DISTANCES[(i + j) % len(_DISTANCES)], _extra_tokens),
)


class TestParsersMatchTokenLoop:
    """The one-split readers give the values or the error text of the token loop, exactly."""

    @given(lines=_differential_memory_files, newline=st.sampled_from(["\n", "\r\n", "\r"]))
    @example(lines=["1 -1", "1 2 1"], newline="\n")
    @example(lines=["1\x1c-1\x85+1", "-1\u00a01\u30001"], newline="\r\n")
    @example(lines=["1 \u200b-1"], newline="\n")
    @settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_memories(self, tmp_path, lines, newline):
        path = tmp_path / "input.txt"
        path.write_bytes(newline.join(lines).encode("utf-8"))
        assert _outcome(parse_memories, path) == _outcome(reference_memories, path)

    @given(lines=_differential_proximity_files, newline=st.sampled_from(["\n", "\r\n", "\r"]))
    @example(lines=["0 1e308 1e308", "1e308 0 1e308", "1e308 1e308 0"], newline="\n")
    @example(lines=["0\x1c1\u00a0", "1\x85-0 # x"], newline="\r\n")
    @example(lines=["0 nan", "nan 0"], newline="\n")
    @example(lines=["0 1 -1", "1 0 x", "1 1 0"], newline="\n")
    @example(lines=["0 1_0", "10 0"], newline="\n")
    @example(lines=["0 1", "1", "x 0"], newline="\n")
    @settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_proximity(self, tmp_path, lines, newline):
        path = tmp_path / "input.txt"
        path.write_bytes(newline.join(lines).encode("utf-8"))
        assert _outcome(parse_proximity, path) == _outcome(reference_proximity, path)

    @given(data=st.binary(max_size=40))
    # a bad token before a truncated UTF-8 sequence, which a chunked reader meets only at the end
    @example(data=b"\x00\n1\xe2")
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_raw_bytes(self, tmp_path, data):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        assert _outcome(parse_memories, path) == _outcome(reference_memories, path)
        assert _outcome(parse_proximity, path) == _outcome(reference_proximity, path)


def _check_failure(path, parse):
    """Parse succeeds, or fails with a ParseError naming an existing line."""
    try:
        parse(path)
    except ParseError as exc:
        found = re.match(rf"{re.escape(str(path))}:(\d+):", str(exc))
        assert found, str(exc)
        # a line ends at \n, \r\n or a lone \r, as in the module docstring
        lines = re.split(rb"\r\n|\r|\n", path.read_bytes())
        assert 1 <= int(found.group(1)) <= len(lines), str(exc)


class TestParserFuzz:
    @given(lines=_memory_files, newline=st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_memories(self, tmp_path, lines, newline):
        path = tmp_path / "input.txt"
        path.write_bytes(newline.join(lines).encode("utf-8"))
        _check_failure(path, parse_memories)

    @given(lines=_proximity_files, newline=st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_proximity(self, tmp_path, lines, newline):
        path = tmp_path / "input.txt"
        path.write_bytes(newline.join(lines).encode("utf-8"))
        _check_failure(path, parse_proximity)

    @given(data=st.binary(max_size=40))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_raw_bytes(self, tmp_path, data):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        _check_failure(path, parse_memories)
        _check_failure(path, parse_proximity)
