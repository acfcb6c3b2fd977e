import re
import tempfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wfamin.io import (
    WfaDocument,
    load_document,
    parse_document,
    parse_word,
    save_document,
    serialize_document,
)
from wfamin.wfa import Wfa, random_stable_wfa

FIXTURES = Path(__file__).parent / "fixtures"


def documents_equal(a, b):
    if a.labels != b.labels or a.name != b.name or a.comment != b.comment:
        return False
    if not np.array_equal(a.wfa.alpha, b.wfa.alpha):
        return False
    if not np.array_equal(a.wfa.beta, b.wfa.beta):
        return False
    return all(np.array_equal(m, n) for m, n in zip(a.wfa.transitions, b.wfa.transitions))


class TestRoundTrip:
    @pytest.mark.parametrize("d,n,seed", [(1, 1, 0), (2, 3, 1), (3, 5, 2)])
    def test_serialize_parse_identity(self, d, n, seed):
        wfa = random_stable_wfa(d, n, seed=seed, radius_bound=0.8)
        labels = tuple("abc"[:d])
        doc = WfaDocument(labels=labels, wfa=wfa, name="fixture", comment="round trip")
        assert documents_equal(parse_document(serialize_document(doc)), doc)

    def test_seventeen_digit_floats_survive(self):
        value = 1.0 / 3.0
        doc = WfaDocument(("a",), Wfa([value], [[[value * 0.5]]], [value * 2.0]))
        parsed = parse_document(serialize_document(doc))
        assert parsed.wfa.alpha[0] == value
        assert parsed.wfa.transitions[0][0, 0] == value * 0.5


    @given(data=st.data(), d=st.integers(1, 3), n=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_every_weight_survives_bit_for_bit(self, data, d, n):
        # any finite double, including -0.0, subnormals and the extremes
        weights = st.floats(allow_nan=False, allow_infinity=False)
        alpha = data.draw(hnp.arrays(float, n, elements=weights))
        mats = data.draw(hnp.arrays(float, (d, n, n), elements=weights))
        beta = data.draw(hnp.arrays(float, n, elements=weights))
        doc = WfaDocument(tuple("abc"[:d]), Wfa(alpha, mats, beta))
        parsed = parse_document(serialize_document(doc)).wfa
        assert parsed.alpha.tobytes() == alpha.tobytes()
        assert parsed.beta.tobytes() == beta.tobytes()
        assert np.stack(parsed.transitions).tobytes() == mats.tobytes()


    @given(labels=st.lists(st.text(), min_size=1, max_size=3),
           name=st.none() | st.text(), comment=st.none() | st.text())
    # each of these was written, then failed to load or came back changed
    @example(labels=["a b"], name=None, comment=None)
    @example(labels=[""], name=None, comment=None)
    @example(labels=["a\xa0b"], name=None, comment=None)
    @example(labels=["a\x1cb"], name=None, comment=None)
    @example(labels=["a"], name="a\nb", comment=None)
    @example(labels=["a"], name="x\u2028y", comment=None)
    @example(labels=["a"], name=None, comment=" padded ")
    @example(labels=["a"], name="x\ud800y", comment=None)
    @settings(max_examples=200, deadline=None)
    def test_a_document_is_refused_or_read_back(self, labels, name, comment):
        wfa = random_stable_wfa(len(labels), 2, seed=0, radius_bound=0.8)
        try:
            doc = WfaDocument(tuple(labels), wfa, name=name, comment=comment)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "doc.wfa"
            save_document(doc, path)
            loaded = load_document(path)
        assert (loaded.labels, loaded.name, loaded.comment) == (doc.labels, name, comment)
        assert np.stack(loaded.wfa.transitions).tobytes() == np.stack(wfa.transitions).tobytes()
        assert loaded.wfa.alpha.tobytes() == wfa.alpha.tobytes()
        assert loaded.wfa.beta.tobytes() == wfa.beta.tobytes()

    def test_a_failed_save_leaves_the_file_at_the_path(self, tmp_path):
        # the text is encoded before the path is opened; a lone surrogate,
        # which WfaDocument refuses, is put past its check here
        doc = WfaDocument(("a",), Wfa([1.0], [[[0.5]]], [1.0]))
        object.__setattr__(doc, "name", "x\ud800y")
        path = tmp_path / "doc.wfa"
        path.write_bytes(b"kept")
        with pytest.raises(UnicodeEncodeError):
            save_document(doc, path)
        assert path.read_bytes() == b"kept"

    def test_a_byte_order_mark_is_read_past(self, tmp_path):
        path = tmp_path / "bom.wfa"
        path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "e2.wfa").read_bytes())
        assert documents_equal(load_document(path), load_document(FIXTURES / "e2.wfa"))


class TestParsing:
    def test_comments_and_blank_lines_ignored(self):
        text = "\n# heading\nalphabet: a\n\nstates: 1\nalpha: 2\nbeta: 3\n# note\ntransition a:\n0.25\n"
        doc = parse_document(text)
        assert doc.wfa.evaluate((0,)) == pytest.approx(1.5)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing required field"):
            parse_document("alphabet: a\nstates: 1\nalpha: 1\n")

    def test_missing_transition(self):
        with pytest.raises(ValueError, match="^line 1: missing transition matrices for: b$"):
            parse_document("alphabet: a b\nstates: 1\nalpha: 1\nbeta: 1\ntransition a:\n0\n")

    def test_bad_matrix_row(self):
        with pytest.raises(ValueError, match="expected 2 entries"):
            parse_document(
                "alphabet: a\nstates: 2\nalpha: 1 0\nbeta: 0 1\ntransition a:\n0 1\n0\n"
            )

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field"):
            parse_document("flavor: sweet\nalphabet: a\nstates: 1\nalpha: 1\nbeta: 1\n")

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            parse_document(
                "alphabet: a a\nstates: 1\nalpha: 1\nbeta: 1\ntransition a:\n0\n"
            )

    def test_label_count_must_match_the_alphabet(self):
        with pytest.raises(ValueError, match="^2 labels for 1 symbols$"):
            WfaDocument(labels=("a", "b"), wfa=Wfa([1.0], [[[0.5]]], [1.0]))

    def test_duplicate_transition_block(self):
        with pytest.raises(ValueError, match="duplicate transition"):
            parse_document(
                "alphabet: a\nstates: 1\nalpha: 1\nbeta: 1\n"
                "transition a:\n0\ntransition a:\n0\n"
            )

    @pytest.mark.parametrize("states", ["-1", "-2", "abc", "0"])
    def test_state_count_must_be_positive(self, states):
        # checked where it is read, before a transition block uses it
        text = f"alphabet: a\nstates: {states}\nalpha: 1\nbeta: 0.5\ntransition a:\n0.5\n"
        with pytest.raises(ValueError, match=f"^line 2: states must be a positive integer, "
                                             f"got '{states}'$"):
            parse_document(text)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="one weight per state"):
            parse_document("alphabet: a\nstates: 2\nalpha: 1\nbeta: 0 1\ntransition a:\n0 0\n0 0\n")

    @pytest.mark.parametrize("text,message", [
        ("alphabet: a\ntransition a:\n0\nstates: 1\nalpha: 1\nbeta: 1\n",
         "line 2: 'states' must precede transitions"),
        ("alphabet: a\nstates: 2\nalpha: 1 0\nbeta: 0 1\n# one row\ntransition a:\n0 1\n",
         "line 6: transition 'a' is truncated"),
        ("alphabet: a\nstates: 1\nalpha 1\nbeta: 1\ntransition a:\n0\n",
         "line 3: expected 'key: value', got 'alpha 1'"),
        ("alphabet: a\nstates: 1\nalpha: 1\nbeta: 1\n\nalpha: 2\ntransition a:\n0\n",
         "line 6: duplicate field 'alpha'"),
    ], ids=["transition-before-states", "truncated-block", "no-colon", "duplicate-field"])
    def test_malformed_layout_names_its_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_document(text)

    @pytest.mark.parametrize("field,value,message", [
        ("alpha", "x", "expected numbers, got 'x'"),
        ("beta", "1 x", "expected numbers, got '1 x'"),
        ("alpha", "1", r"expected 2 entries \(one weight per state\), got 1"),
        ("row", "0 y", "expected numbers, got '0 y'"),
        ("row", "0 1 2", r"expected 2 entries \(one weight per state\), got 3"),
    ], ids=["alpha-not-a-number", "beta-not-a-number", "short-alpha", "bad-row", "long-row"])
    def test_malformed_weights_name_their_line(self, field, value, message):
        # comments and blank lines count: alpha is on line 4, beta on 6, and
        # the second matrix row on 10; alpha comes before states
        lines = {"alpha": "1 0", "beta": "0 1", "row": "1 1"}
        lines[field] = value
        text = (
            "# heading\nalphabet: a\n\nalpha: {alpha}\nstates: 2\nbeta: {beta}\n"
            "transition a:\n0 1\n# rows go on\n{row}\n"
        ).format(**lines)
        line = {"alpha": 4, "beta": 6, "row": 10}[field]
        with pytest.raises(ValueError, match=f"^line {line}: {message}$"):
            parse_document(text)


    @pytest.mark.parametrize("field,value", [
        ("alpha", "1 nan"), ("beta", "-inf 0"), ("row", "0 1e999"), ("row", "nan 0"),
    ])
    def test_non_finite_weights_name_their_line(self, field, value):
        lines = {"alpha": "1 0", "beta": "0 1", "row": "1 1"}
        lines[field] = value
        text = (
            "alphabet: a\nstates: 2\nalpha: {alpha}\nbeta: {beta}\n"
            "transition a:\n0 1\n{row}\n"
        ).format(**lines)
        line = {"alpha": 3, "beta": 4, "row": 7}[field]
        with pytest.raises(ValueError, match=(
            rf"^line {line}: weights must be finite \(no NaN or inf\), got '{value}'$"
        )):
            parse_document(text)


    @pytest.mark.parametrize("alphabet, extra, message", [
        ("a a", "", "line 2: symbol labels must be unique"),
        ("", "", "line 2: alphabet must contain at least one label"),
        ("a", "transition b:\n0\n", "line 9: transition 'b' is not in the alphabet"),
        # eval splits a word at commas, so such a label could never be named
        ("a,b c", "", "line 2: symbol labels must not contain ','"),
    ], ids=["repeated-label", "no-label", "unknown-transition", "comma-in-label"])
    def test_alphabet_errors_name_their_line(self, alphabet, extra, message):
        # the alphabet's own line, or the header of the stray transition block
        text = (
            f"# heading\nalphabet: {alphabet}\nstates: 1\nalpha: 1\nbeta: 1\n"
            f"transition a:\n0.5\n# more\n{extra}"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_document(text)

    def test_document_checks_its_labels(self):
        # library callers building a document directly keep the check
        wfa = Wfa([1.0], [np.eye(1), np.eye(1)], [1.0])
        with pytest.raises(ValueError, match="^symbol labels must be unique$"):
            WfaDocument(("a", "a"), wfa)
        with pytest.raises(ValueError, match="^symbol labels must not contain ','$"):
            WfaDocument(("a,b", "c"), wfa)

    def test_a_document_keeps_its_own_labels(self):
        # the caller's list is copied, so growing it leaves a document that reads back
        labels = ["a"]
        doc = WfaDocument(labels, Wfa([1.0], [[[0.5]]], [1.0]))
        labels.append("b")
        assert doc.labels == ("a",)
        assert documents_equal(parse_document(serialize_document(doc)), doc)

    @pytest.mark.parametrize("labels,name,comment,message", [
        (("", "c"), None, None, "symbol labels must not be empty"),
        (("a b", "c"), None, None, "symbol labels must not contain whitespace"),
        (("a\xa0b", "c"), None, None, "symbol labels must not contain whitespace"),
        (("a", "b"), "a\nb", None,
         "name must be one line without surrounding whitespace, got 'a\\nb'"),
        (("a", "b"), None, " padded ",
         "comment must be one line without surrounding whitespace, got ' padded '"),
        (("a\ud800", "b"), None, None, "symbol labels must be UTF-8 text"),
        (("a", "b"), "x\ud800y", None, "name must be UTF-8 text, got 'x\\ud800y'"),
        (("a", "b"), None, "\udcff", "comment must be UTF-8 text, got '\\udcff'"),
        (("a", 1), None, None, "symbol labels must be str"),
    ], ids=["empty-label", "space-in-label", "nbsp-in-label", "two-line-name", "padded-comment",
            "surrogate-label", "surrogate-name", "surrogate-comment", "int-label"])
    def test_documents_that_cannot_be_read_back_are_refused(self, labels, name, comment,
                                                            message):
        wfa = Wfa([1.0], [np.eye(1), np.eye(1)], [1.0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WfaDocument(labels, wfa, name=name, comment=comment)


class TestParseWord:
    @pytest.fixture
    def doc(self):
        wfa = Wfa([1.0, 0.0], [np.eye(2), np.eye(2)], [1.0, 0.0])
        return WfaDocument(("a", "b"), wfa)

    def test_empty_word(self, doc):
        assert parse_word("", doc) == ()

    def test_packed_single_characters(self, doc):
        assert parse_word("abba", doc) == (0, 1, 1, 0)

    def test_separated_tokens(self, doc):
        assert parse_word("a b, a", doc) == (0, 1, 0)

    def test_unknown_label(self, doc):
        with pytest.raises(ValueError, match="unknown symbol"):
            parse_word("ax", doc)

    def test_multicharacter_labels_need_separators(self):
        wfa = Wfa([1.0], [np.eye(1), np.eye(1)], [1.0])
        doc = WfaDocument(("go", "stop"), wfa)
        assert parse_word("go stop", doc) == (0, 1)
        with pytest.raises(ValueError, match="unknown symbol"):
            parse_word("gostop", doc)
