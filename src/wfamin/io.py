"""Plain-text serialization of weighted automata.

The document format is line oriented and human auditable:

    # comments and blank lines are ignored
    name: example            (optional)
    comment: free text       (optional)
    alphabet: a b
    states: 2
    alpha: 1 0
    beta: 0 1
    transition a:
    0 1
    0 0
    transition b:
    0 0
    0 1

Fields may come in any order, but ``states`` must precede the transition
blocks, each of which holds ``states`` rows.  The parser reads each line
once; every error in a line (a malformed or non-finite number, a wrong
count of weights in ``alpha``, ``beta`` or a matrix row, an unknown or
repeated field, an empty or repeating alphabet or one with a label that
contains ',', a transition block for a label outside it) names that line.
A :class:`WfaDocument` holds its labels as a tuple and refuses what could
not be read back: a label that is not a ``str``, an empty label, a label
with whitespace, a name or comment that is not one line without
surrounding whitespace, or any of them that is not UTF-8 text (a lone
surrogate).  Documents are UTF-8; a leading byte-order mark is read past.

Numbers are written with 17 significant digits, so parsing a serialized
document reproduces the automaton exactly.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .wfa import Wfa


@dataclass(frozen=True)
class WfaDocument:
    """A WFA together with its symbol labels and optional metadata."""

    labels: tuple[str, ...]
    wfa: Wfa
    name: str | None = None
    comment: str | None = None

    def __post_init__(self):
        # a tuple, so that a caller's list cannot grow the alphabet past the transitions
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.wfa.alphabet_size:
            raise ValueError(
                f"{len(self.labels)} labels for {self.wfa.alphabet_size} symbols"
            )
        _check_labels(self.labels)
        # the parser reads a field as one line with its ends stripped
        for field, text in (("name", self.name), ("comment", self.comment)):
            if text is not None and (text != text.strip() or len(text.splitlines()) > 1):
                raise ValueError(
                    f"{field} must be one line without surrounding whitespace, got {text!r}"
                )
            if text is not None and not _is_utf8(text):
                raise ValueError(f"{field} must be UTF-8 text, got {text!r}")

    def symbol_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"unknown symbol {label!r}; alphabet is {' '.join(self.labels)}"
            ) from None


def _is_utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8: every code point but a lone surrogate does."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_labels(labels, where: str = "") -> None:
    """Refuse labels that are not ``str``, repeated or empty labels, labels
    with whitespace, where the document's lines split, labels with a comma,
    where :func:`parse_word` splits a word, and labels that are not UTF-8
    text; ``where`` prefixes the message."""
    if not all(isinstance(label, str) for label in labels):
        raise ValueError(f"{where}symbol labels must be str")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{where}symbol labels must be unique")
    if not all(labels):
        raise ValueError(f"{where}symbol labels must not be empty")
    if any(character.isspace() for label in labels for character in label):
        raise ValueError(f"{where}symbol labels must not contain whitespace")
    if any("," in label for label in labels):
        raise ValueError(f"{where}symbol labels must not contain ','")
    if not all(map(_is_utf8, labels)):
        raise ValueError(f"{where}symbol labels must be UTF-8 text")


def _format_row(values) -> str:
    return " ".join(f"{float(v):.17g}" for v in values)


def serialize_document(doc: WfaDocument) -> str:
    lines = []
    if doc.name is not None:
        lines.append(f"name: {doc.name}")
    if doc.comment is not None:
        lines.append(f"comment: {doc.comment}")
    lines.append(f"alphabet: {' '.join(doc.labels)}")
    lines.append(f"states: {doc.wfa.num_states}")
    lines.append(f"alpha: {_format_row(doc.wfa.alpha)}")
    lines.append(f"beta: {_format_row(doc.wfa.beta)}")
    for label, matrix in zip(doc.labels, doc.wfa.transitions):
        lines.append(f"transition {label}:")
        for row in matrix:
            lines.append(_format_row(row))
    return "\n".join(lines) + "\n"


def _parse_row(line: tuple[int, str], size: int) -> list[float]:
    """The ``size`` numbers on one numbered line: a weight vector or a matrix row."""
    line_no, text = line
    try:
        row = list(map(float, text.split()))
    except ValueError:
        raise ValueError(f"line {line_no}: expected numbers, got {text!r}") from None
    if len(row) != size:
        raise ValueError(
            f"line {line_no}: expected {size} entries (one weight per state), got {len(row)}"
        )
    if not all(map(math.isfinite, row)):
        raise ValueError(f"line {line_no}: weights must be finite (no NaN or inf), got {text!r}")
    return row


def parse_document(text: str) -> WfaDocument:
    """Parse the text format; raises ValueError with a line reference on failure."""
    lines = (
        (line_no, line)
        for line_no, line in enumerate(map(str.strip, text.splitlines()), start=1)
        if line and not line.startswith("#")
    )
    fields: dict[str, tuple[int, str]] = {}
    transitions: dict[str, tuple[int, list[list[float]]]] = {}
    for line_no, line in lines:
        match = re.fullmatch(r"transition\s+(\S+)\s*:", line)
        if match:
            label = match.group(1)
            if label in transitions:
                raise ValueError(f"line {line_no}: duplicate transition {label!r}")
            if "states" not in fields:
                raise ValueError(f"line {line_no}: 'states' must precede transitions")
            # the block's rows are the next lines of the same iterator
            rows = [_parse_row(row, size) for row in itertools.islice(lines, size)]
            if len(rows) < size:
                raise ValueError(f"line {line_no}: transition {label!r} is truncated")
            transitions[label] = (line_no, rows)
            continue
        if ":" not in line:
            raise ValueError(f"line {line_no}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in fields:
            raise ValueError(f"line {line_no}: duplicate field {key!r}")
        if key not in ("name", "comment", "alphabet", "states", "alpha", "beta"):
            raise ValueError(f"line {line_no}: unknown field {key!r}")
        value = value.strip()
        fields[key] = (line_no, value)
        if key == "states":
            size = int(value) if re.fullmatch(r"\d+", value) else 0
            if size < 1:
                raise ValueError(
                    f"line {line_no}: states must be a positive integer, got {value!r}"
                )

    for required in ("alphabet", "states", "alpha", "beta"):
        if required not in fields:
            raise ValueError(f"missing required field {required!r}")
    alphabet_line, labels = fields["alphabet"][0], tuple(fields["alphabet"][1].split())
    if not labels:
        raise ValueError(f"line {alphabet_line}: alphabet must contain at least one label")
    _check_labels(labels, f"line {alphabet_line}: ")
    # alpha and beta may precede states, so they are read once its count is known
    alpha = _parse_row(fields["alpha"], size)
    beta = _parse_row(fields["beta"], size)
    missing = [label for label in labels if label not in transitions]
    if missing:
        raise ValueError(
            f"line {alphabet_line}: missing transition matrices for: {' '.join(missing)}"
        )
    for label, (line_no, _) in transitions.items():
        if label not in labels:
            raise ValueError(f"line {line_no}: transition {label!r} is not in the alphabet")
    wfa = Wfa(alpha, [np.array(transitions[label][1]) for label in labels], beta)
    return WfaDocument(
        labels=labels,
        wfa=wfa,
        name=fields["name"][1] if "name" in fields else None,
        comment=fields["comment"][1] if "comment" in fields else None,
    )


def load_document(path) -> WfaDocument:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_document(handle.read())


def save_document(doc: WfaDocument, path):
    # encoded before the path is opened, so a failure leaves a file there intact
    data = serialize_document(doc).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)


def parse_word(text: str, doc: WfaDocument) -> tuple[int, ...]:
    """Turn a word argument into symbol indices.

    Labels may be separated by whitespace or commas; when every label is a
    single character an unseparated string like ``abba`` works as well.  The
    empty string is the empty word.
    """
    if not text:
        return ()
    if re.search(r"[,\s]", text):
        tokens = [token for token in re.split(r"[,\s]+", text) if token]
    elif all(len(label) == 1 for label in doc.labels):
        tokens = list(text)
    else:
        tokens = [text]
    return tuple(doc.symbol_of(token) for token in tokens)
