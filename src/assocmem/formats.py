"""On-disk formats: memory files, proximity files, weight/report documents.

Memory and proximity files are hand-editable plain text. One memory per
line, whitespace-separated tokens from {1, -1} (+1 is accepted on input);
a proximity file holds n lines of n decimal reals. In both, ``#`` starts a
comment that runs to the end of the line and blank lines are ignored. Files
are UTF-8; a line ends at \\n, \\r\\n or a lone \\r, and any other Unicode
separator is whitespace within a line. Every parse failure is a ParseError
whose message starts with ``path:line:``, so it can be found in an editor.

Weights and reports share one structured-text format: a JSON document with
two-space indentation, a fixed key order, and a trailing newline, so runs
with identical configuration emit byte-identical files and any two reports
diff cleanly. Every document embeds the tool name, version, the command,
and its full configuration including the seed (explicitly null for
deterministic commands).
"""

from __future__ import annotations

import json
import math
import re
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


def _content_lines(path: Path):
    """Yield (line_number, comment-stripped text) pairs, 1-based."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = _split_lines(data[: exc.start].decode("utf-8"))
        raise ParseError(f"{path}:{len(head)}:{len(head[-1]) + 1}: not UTF-8 text") from None
    for lineno, raw in enumerate(_split_lines(text), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield lineno, body


def parse_memories(path) -> MemorySet:
    """Parse a memory file into a validated MemorySet."""
    p = Path(path)
    rows = []
    widths = []
    for lineno, body in _content_lines(p):
        row = []
        for match in _TOKEN.finditer(body):
            token = match.group()
            if token not in _MEMORY_TOKENS:
                raise ParseError(
                    f"{p}:{lineno}:{match.start() + 1}: bad memory token {token!r}, expected 1 or -1"
                )
            row.append(_MEMORY_TOKENS[token])
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


def parse_proximity(path) -> np.ndarray:
    """Parse a proximity file into a distance matrix that validate_proximity trusts."""
    p = Path(path)
    rows = []
    for lineno, body in _content_lines(p):
        # a line of plain ASCII holds only plain tokens, so float() alone reads it
        read = float if "_" not in body and body.isascii() else _ascii_number
        row = []
        for match in _TOKEN.finditer(body):
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
        # the first row past a square matrix, or the last row of a short one
        lineno = rows[min(width, len(rows) - 1)][0]
        raise ParseError(f"{p}:{lineno}: proximity matrix must be square, got {len(rows)} rows of {width}")
    matrix = np.array([row for _, row in rows], dtype=np.float64)
    fault = _proximity_fault(matrix)
    if fault is not None:
        row, message = fault
        raise ParseError(f"{p}:{rows[row][0]}: {message}")
    return _trust(matrix, "proximity")


def document(kind: str, command: str, config: dict, **payload) -> dict:
    """A report skeleton carrying tool identity and the full configuration."""
    doc = {"tool": "assocmem", "version": __version__, "kind": kind, "command": command, "config": config}
    doc.update(payload)
    return doc


def render_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


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
    """Load a weight matrix from a weights document, validated once (see validate_weights)."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}:{exc.lineno}:{exc.colno}: not valid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or "weights" not in doc:
        raise ParseError(f"{p}: expected a weights document with a 'weights' key")
    if doc.get("kind") not in (None, "weights"):
        raise ParseError(f"{p}: document kind is {doc.get('kind')!r}, expected 'weights'")
    try:
        weights = validate_weights(np.array(doc["weights"]))
    except ValueError as exc:  # ValidationError and DimensionMismatch included
        raise ParseError(f"{p}: {exc}") from exc
    declared = doc.get("n")
    if declared is not None and declared != weights.shape[0]:
        raise ParseError(f"{p}: document says n={declared} but the matrix is {weights.shape[0]}x{weights.shape[0]}")
    return weights
