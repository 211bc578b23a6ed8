import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import write_documents

from rankkit import types
from rankkit.errors import (
    DuplicateIndex,
    InvariantViolation,
    LengthMismatch,
    MalformedLine,
    OutOfRange,
    PermutationError,
    WrongLength,
)
from rankkit.types import (
    CandidateList,
    Document,
    Query,
    identity_permutation,
    read_documents,
    read_lines,
    read_queries,
    validate_permutation,
)

permutations = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


class TestValidatePermutation:
    def test_valid(self):
        assert validate_permutation([2, 1, 3], 3).order == (2, 1, 3)

    def test_duplicate_position(self):
        with pytest.raises(DuplicateIndex) as exc:
            validate_permutation([1, 1, 2], 3)
        assert exc.value.position == 2

    def test_out_of_range_position(self):
        with pytest.raises(OutOfRange) as exc:
            validate_permutation([1, 2, 4], 3)
        assert exc.value.position == 3

    def test_wrong_length(self):
        with pytest.raises(WrongLength):
            validate_permutation([1, 2], 3)

    def test_zero_index_rejected(self):
        with pytest.raises(OutOfRange):
            validate_permutation([0, 1, 2], 3)

    @pytest.mark.parametrize("order,position", [
        ([1.7, 2, 3], 1), ([1, 2.5, 3], 2), ([1, 2, "3"], 3),
        ([1, 2, None], 3), ([float("inf"), 2, 3], 1), ([1, float("nan"), 3], 2),
    ])
    def test_non_integer_index_rejected_with_position(self, order, position):
        with pytest.raises(PermutationError, match=f"at position {position}$"):
            validate_permutation(order, 3)

    def test_integral_floats_accepted(self):
        assert validate_permutation([2.0, 1.0, 3.0], 3).order == (2, 1, 3)

    @pytest.mark.parametrize("order,position", [([True, 2], 1), ([2, False], 2)])
    def test_a_bool_is_no_index(self, order, position):
        with pytest.raises(PermutationError, match=f"at position {position}$"):
            validate_permutation(order, 2)

    @given(permutations)
    def test_sorted_order_is_identity_range(self, order):
        n = len(order)
        perm = validate_permutation(order, n)
        assert sorted(perm.order) == list(range(1, n + 1))


def test_identity_permutation():
    assert identity_permutation(3).order == (1, 2, 3)
    assert identity_permutation(0).order == ()
    assert identity_permutation(1).order == (1,)


class TestDomainTypes:
    def test_modality_requirements(self):
        Document(id="d1", text="hello")
        Document(id="d2", image_ref="img.png", modality="image")
        Document(id="d3", text="t", image_ref="i.png", modality="hybrid")
        with pytest.raises(InvariantViolation):
            Document(id="d4", modality="text")
        with pytest.raises(InvariantViolation):
            Document(id="d5", text="t", modality="hybrid")

    def test_id_whitespace_rejected(self):
        with pytest.raises(InvariantViolation):
            Document(id="bad id", text="t")
        with pytest.raises(InvariantViolation):
            Query(id="q 1", text="t")

    @pytest.mark.parametrize("bad_id", [5, None, ["d1"], b"d1"])
    def test_non_string_id_rejected(self, bad_id):
        with pytest.raises(InvariantViolation, match="document id must be a string"):
            Document(id=bad_id, text="t")
        with pytest.raises(InvariantViolation, match="query id must be a string"):
            Query(id=bad_id, text="t")

    def test_candidate_list_rejects_duplicates(self):
        with pytest.raises(InvariantViolation):
            CandidateList("q1", ("d1", "d1"))

    def test_candidate_list_score_alignment(self):
        with pytest.raises(LengthMismatch):
            CandidateList("q1", ("d1", "d2"), (1.0,))


def test_document_jsonl_roundtrip(tmp_path):
    docs = [
        Document(id="d1", text="alpha"),
        Document(id="d2", image_ref="im.png", modality="image"),
        Document(id="d3", text="beta", image_ref="b.png", modality="hybrid"),
    ]
    path = tmp_path / "corpus.jsonl"
    write_documents(docs, str(path))
    assert read_documents(str(path)) == docs


def test_read_queries(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text('{"id": "q1", "text": "what is x"}\n')
    assert read_queries(str(path)) == [Query(id="q1", text="what is x")]


@pytest.mark.parametrize("line,field", [
    ('{"id": "d1", "image_ref": ["x.png"], "modality": "image"}', "image_ref"),
    ('{"id": "d1", "text": 5}', "text"),
    ('{"id": "d1", "text": "t", "image_ref": 7, "modality": "hybrid"}', "image_ref"),
])
def test_read_documents_refuses_a_field_that_is_not_a_string(tmp_path, line, field):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "d0", "text": "fine"}\n' + line + "\n")
    with pytest.raises(MalformedLine, match=re.escape(f"{path}:2: doc d1: {field} must be "
                                                      f"a string")):
        read_documents(str(path))


@pytest.mark.parametrize("text", ["5", "[\"q\"]", "null"])
def test_read_queries_refuses_a_text_that_is_not_a_string(tmp_path, text):
    path = tmp_path / "queries.jsonl"
    path.write_text('{"id": "q1", "text": %s}\n' % text)
    with pytest.raises(MalformedLine, match=re.escape(f"{path}:1: query q1: text must be a "
                                                      f"string")):
        read_queries(str(path))


def test_a_huge_line_is_quoted_by_its_head_and_length(tmp_path, monkeypatch):
    # 100 000 nested brackets, which json.loads gives up on; the message
    # once quoted all 200 000 characters
    monkeypatch.chdir(tmp_path)
    line = "[" * 100_000 + "]" * 100_000
    (tmp_path / "q.jsonl").write_text(line + "\n")
    with pytest.raises(MalformedLine) as exc:
        read_queries("q.jsonl")
    message = str(exc.value)
    assert len(message) < 300
    assert message.startswith("q.jsonl:1: ")
    assert message.endswith(f": {'[' * 100!r}... (200000 characters)")
    assert exc.value.content == line


def test_a_line_or_reason_past_the_quote_limit_is_cut_and_its_length_given():
    assert str(MalformedLine("f.jsonl", 3, "x" * 100, "r" * 100)) == \
        f"f.jsonl:3: {'r' * 100}: {'x' * 100!r}"
    assert str(MalformedLine("f.jsonl", 3, "x" * 101, "r" * 150)) == \
        f"f.jsonl:3: {'r' * 100}... (150 characters): {'x' * 100!r}... (101 characters)"


def literal_lines(path):
    """``read_lines`` as a per-line decode: (line number, stripped text) for
    each non-blank line, or the line number of the first line that is not
    UTF-8."""
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                return out, lineno
            if line:
                out.append((lineno, line))
    return out, None


def read_all(path):
    """What ``read_lines`` yields before it stops, and the line number of
    the ``MalformedLine`` it raised, if any."""
    out = []
    try:
        for item in read_lines(path):
            out.append(item)
    except MalformedLine as exc:
        assert str(exc).startswith(f"{path}:{exc.lineno}: ")
        return out, exc.lineno
    return out, None


class TestReadLines:
    """``read_lines`` decodes whole chunks but must name the same lines and
    the same bad line as decoding each line on its own."""

    def test_bad_byte_on_the_first_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a \xff b\ngood\n")
        assert read_all(str(path)) == ([], 1)
        with pytest.raises(MalformedLine) as exc:
            list(read_lines(str(path)))
        assert exc.value.content == "a \ufffd b"

    def test_bad_byte_in_the_middle_of_a_later_chunk(self, tmp_path):
        path = tmp_path / "f.txt"
        lines = [b"line %d\n" % i for i in range(1, 200)]
        lines[149] = b"line \xc3( 150\n"  # a lead byte without its continuation
        path.write_bytes(b"".join(lines))
        with mock.patch.object(types, "_LINES_CHUNK_BYTES", 256):
            got = read_all(str(path))
        assert got == ([(i, f"line {i}") for i in range(1, 150)], 150)

    def test_bad_byte_on_a_last_line_without_newline(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"one\n\ntwo\nthree \xe2\x82")  # a cut-off euro sign
        assert read_all(str(path)) == ([(1, "one"), (3, "two")], 4)

    def test_multibyte_characters_across_chunks(self, tmp_path):
        path = tmp_path / "f.txt"
        text = "".join(f"\u00e9 {i} \u20ac \U0001f600\n" for i in range(300))
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(types, "_LINES_CHUNK_BYTES", 100):
            got = read_all(str(path))
        assert got == ([(i + 1, f"\u00e9 {i} \u20ac \U0001f600") for i in range(300)], None)

    @given(st.lists(st.one_of(
        st.text(alphabet=st.sampled_from("ab \t\r\x0b\x0c\x1c\x85\u2028\u00e9\u20ac\U0001f600"),
                max_size=6).map(lambda t: t.encode("utf-8")),
        st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80 x"]),
    ), max_size=30).map(b"\n".join), st.sampled_from([1, 7, 64, 1 << 18]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_line_decode(self, tmp_path_factory, data, chunk):
        # only "\n" ends a line: "\r", "\x85" and "\u2028" stay inside one
        path = tmp_path_factory.mktemp("lines") / "f.txt"
        path.write_bytes(data)
        with mock.patch.object(types, "_LINES_CHUNK_BYTES", chunk):
            assert read_all(str(path)) == literal_lines(str(path))
