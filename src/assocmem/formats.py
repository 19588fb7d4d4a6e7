"""On-disk formats: memory files, proximity files, weight/report documents.

Memory and proximity files are hand-editable plain text. One memory per
line, whitespace-separated tokens from {1, -1} (+1 is accepted on input);
a proximity file holds n lines of n decimal reals. In both, ``#`` starts a
comment that runs to the end of the line and blank lines are ignored. Files
are UTF-8; a line ends at \\n, \\r\\n or a lone \\r, and any other Unicode
separator is whitespace within a line. Every parse failure is a ParseError
whose message starts with ``path:line:``, so it can be found in an editor.

A file is read one line at a time, and each line with one split; only a
line that split cannot vouch for is read again token by token, and that
scan exists to name the first bad token. A byte that is not UTF-8 outranks
every other fault, wherever it lies in the file. A proximity row becomes
float64 as it is read, so a parse holds little more than its matrix.

Weights and reports share one structured-text format: a JSON document with
two-space indentation, a fixed key order, and a trailing newline, so runs
with identical configuration emit byte-identical files and any two reports
diff cleanly. A document's bytes are exactly those of
``json.dumps(doc, indent=2) + "\\n"``, produced through json's C encoder
(see render_document). Every document embeds the tool name, version, the
command, and its full configuration including the seed (explicitly null
for deterministic commands).
"""

from __future__ import annotations

import json
import math
import re
from array import array
from pathlib import Path

import numpy as np

from ._version import __version__
from .core import (
    MemorySet,
    _proximity_fault,
    _trust,
    validate_memory_set,
    validate_weights,
)

_TOKEN = re.compile(r"\S+")

_MEMORY_TOKENS = {"1": 1, "+1": 1, "-1": -1}

_ENCODE = json.JSONEncoder().encode

_CONTAINERS = (dict, list, tuple)


class ParseError(ValueError):
    """A file could not be parsed; the message carries path, line, column."""


def _ascii_number(text: str, convert=float):
    """``convert(text)`` (int or float) for plain ASCII number text; ValueError otherwise.

    int() and float() alone also read "1_0" as 10 and take non-ASCII digits
    such as U+0661; every number read from a file or the command line
    follows this one rule instead.
    """
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return convert(text)


def _split_lines(text: str) -> list[str]:
    """Lines end at \\n, \\r\\n or a lone \\r; other separators are whitespace."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _not_utf8(path: Path) -> ParseError | None:
    """The ParseError naming the first byte of a file that is not UTF-8, or None."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = _split_lines(data[: exc.start].decode("utf-8"))
        return ParseError(f"{path}:{len(head)}:{len(head[-1]) + 1}: not UTF-8 text")
    return None


def _content_lines(path: Path):
    """Yield (line_number, comment-stripped text) pairs, 1-based, one line at a time.

    Universal newlines end a line at \\n, \\r\\n or a lone \\r, as _split_lines
    does, and give it back ending in \\n. A byte that is not UTF-8 raises
    _not_utf8's ParseError once the reader reaches it.
    """
    with path.open(encoding="utf-8", newline=None) as lines:
        try:
            for lineno, raw in enumerate(lines, start=1):
                # only a line holding "#" is split, and a blank line is found without a
                # stripped copy: isspace and strip share one Unicode whitespace set
                body = raw.split("#", 1)[0] if "#" in raw else raw.removesuffix("\n")
                if body and not body.isspace():
                    yield lineno, body
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _rows(path: Path, read_line, read_token):
    """Yield (line number, values) for each content line of a file, read with one split.

    ``read_line(body)`` reads a whole line, or returns None or raises
    KeyError or ValueError where it cannot vouch for it; that line is then
    read token by token, and ``read_token(token, where)`` raises the
    ParseError naming the first bad token, ``where`` being its "path:line:col".
    That error gives way to a byte that is not UTF-8 later in the file.
    """
    for lineno, body in _content_lines(path):
        try:
            row = read_line(body)
        except (KeyError, ValueError):
            row = None
        if row is None:
            try:
                row = [read_token(m.group(), f"{path}:{lineno}:{m.start() + 1}") for m in _TOKEN.finditer(body)]
            except ParseError as exc:
                raise _not_utf8(path) or exc from None
        yield lineno, row


def _memory_line(body: str) -> list[int]:
    return [_MEMORY_TOKENS[token] for token in body.split()]


def _memory_token(token: str, where: str) -> int:
    if token not in _MEMORY_TOKENS:
        raise ParseError(f"{where}: bad memory token {token!r}, expected 1 or -1")
    return _MEMORY_TOKENS[token]


def _distance_line(body: str) -> list[float] | None:
    """The distances of a plain ASCII line when all are in [0, inf), else None.

    float() alone reads plain tokens. With the least value at or above 0,
    the sum is below inf unless some value is inf or NaN, or the finite
    values overflow it; the token scan then tells these apart.
    """
    if "_" in body or not body.isascii():
        return None
    row = list(map(float, body.split()))
    return row if min(row) >= 0 and sum(row) < math.inf else None


def _distance_token(token: str, where: str) -> float:
    try:
        value = _ascii_number(token)
    except ValueError:
        raise ParseError(f"{where}: bad distance token {token!r}") from None
    if not 0 <= value < math.inf:
        raise ParseError(f"{where}: distances must be finite and nonnegative, got {token}")
    return value


def parse_memories(path) -> MemorySet:
    """Parse a memory file into a validated MemorySet."""
    p = Path(path)
    rows = list(_rows(p, _memory_line, _memory_token))
    if not rows:
        raise ParseError(f"{p}:1: no memory vectors found")
    first_line, first = rows[0]
    for lineno, row in rows[1:]:
        if len(row) != len(first):
            raise ParseError(
                f"{p}:{lineno}: memory has {len(row)} entries, line {first_line} has {len(first)}"
            )
    return validate_memory_set([row for _, row in rows])


def parse_proximity(path) -> np.ndarray:
    """Parse a proximity file into a distance matrix that validate_proximity trusts.

    Each row joins one flat float64 buffer as it is read, and the matrix is
    that buffer, so nothing is sized from a row count or width the file has
    not yet shown. Faults come in a fixed order: a bad token, then the first
    row whose width differs from the first row's, then the row count.
    """
    p = Path(path)
    lines: list[int] = []
    values = array("d")
    misfit = None
    for lineno, row in _rows(p, _distance_line, _distance_token):
        if not lines:
            width = len(row)
        elif len(row) != width and misfit is None:
            misfit = ParseError(f"{p}:{lineno}: row has {len(row)} entries, expected {width}")
        lines.append(lineno)
        values.extend(row)
    if not lines:
        raise ParseError(f"{p}:1: no proximity rows found")
    if misfit is not None:
        raise misfit
    if len(lines) != width:
        # the first row past a square matrix, or the last row of a short one
        lineno = lines[min(width, len(lines) - 1)]
        raise ParseError(f"{p}:{lineno}: proximity matrix must be square, got {len(lines)} rows of {width}")
    matrix = np.frombuffer(values, dtype=np.float64).reshape(width, width)
    fault = _proximity_fault(matrix)
    if fault is not None:
        row, message = fault
        raise ParseError(f"{p}:{lines[row]}: {message}")
    return _trust(matrix, "proximity")


def document(kind: str, command: str, config: dict, **payload) -> dict:
    """A report skeleton carrying tool identity and the full configuration."""
    doc = {"tool": "assocmem", "version": __version__, "kind": kind, "command": command, "config": config}
    doc.update(payload)
    return doc


def _render(obj, newline: str) -> str:
    """``obj`` laid out as json.dumps(indent=2) lays it out where ``newline`` starts its line."""
    if isinstance(obj, dict):
        items, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        items, brackets = obj, "[]"
    else:
        return _ENCODE(obj)
    if not obj:
        return brackets
    inner = newline + "  "
    if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items))):
        # all scalars: one C encoder call, its item separator carrying the line break
        body = json.JSONEncoder(separators=("," + inner, ": ")).encode(obj)[1:-1]
    elif brackets == "[]":
        body = ("," + inner).join(_render(item, inner) for item in obj)
    else:
        # '{"key": 0}' less its brace and ': 0}' is the key as the encoder writes it
        body = ("," + inner).join(
            _ENCODE({key: 0})[1:-4] + ": " + _render(value, inner) for key, value in obj.items()
        )
    return brackets[0] + inner + body + newline + brackets[1]


def render_document(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2) + "\\n"``, through json's C encoder.

    json.dumps takes its pure-Python encoder whenever it indents, at about a
    microsecond per number; here each container holding only scalars (a weight
    row, a sample list, a config) is one C encoder call instead.
    """
    return _render(doc, "\n") + "\n"


def weights_document(weights, config: dict, command: str = "train", **extra) -> dict:
    w = validate_weights(weights)
    return document(
        "weights",
        command,
        config,
        n=int(w.shape[0]),
        weights=w.tolist(),
        **extra,
    )


def load_weights(path) -> np.ndarray:
    """Load a weight matrix from a weights document, validated once (see validate_weights).

    Every fault of the document is a ParseError: bytes that are not UTF-8
    (named by _not_utf8), JSON that does not parse, nests too deeply or
    holds an integer too long to read, a missing or foreign document, a
    matrix validate_weights refuses, and an ``n`` that is not the matrix's
    size as an int.
    """
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise _not_utf8(p) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}:{exc.lineno}:{exc.colno}: not valid JSON: {exc.msg}") from exc
    except RecursionError:
        raise ParseError(f"{p}: JSON nested too deeply to read") from None
    except ValueError:  # an integer beyond int()'s digit limit
        raise ParseError(f"{p}: JSON number too long to read") from None
    if not isinstance(doc, dict) or "weights" not in doc:
        raise ParseError(f"{p}: expected a weights document with a 'weights' key")
    if doc.get("kind") not in (None, "weights"):
        raise ParseError(f"{p}: document kind is {doc.get('kind')!r}, expected 'weights'")
    try:
        weights = validate_weights(np.array(doc["weights"]))
    except ValueError as exc:  # ValidationError and DimensionMismatch included
        raise ParseError(f"{p}: {exc}") from exc
    declared = doc.get("n")
    if declared is not None and (type(declared) is not int or declared != weights.shape[0]):
        raise ParseError(f"{p}: document says n={declared} but the matrix is {weights.shape[0]}x{weights.shape[0]}")
    return weights
