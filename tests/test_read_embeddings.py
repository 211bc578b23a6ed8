"""The bulk parse of embedding JSONL against the JSON-per-line reader.

``read_embeddings`` either takes a file on its fast path (one ``np.loadtxt``
per chunk behind a grammar check) or sends it through ``types.read_jsonl``,
which is the specification.  These tests pin that the result does not
depend on the path: the same ids, bit-identical vectors (the sign of zero
included) and the same ``MalformedLine``, with file:line.  Which path took
a file is probed with ``embedding._read_rows``, the fast path alone.
"""

import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankkit import embedding
from rankkit.embedding import (
    CorpusIndex,
    EmbeddingRecord,
    EmbeddingRows,
    greedy_diversity_select,
    read_embeddings,
    stack_records,
    write_embeddings,
)
from rankkit.errors import DimensionMismatch, MalformedLine
from rankkit.types import read_jsonl


def reference(path):
    """The JSON-per-line reader that ``read_embeddings`` falls back to: a
    vector of another width than the first one is malformed."""
    widths = []

    def build(rec):
        r = EmbeddingRecord(id=rec["id"], vector=np.asarray(rec["vector"], dtype=np.float64))
        widths.append(len(r.vector))
        if widths[-1] != widths[0]:
            raise DimensionMismatch(f"dim {widths[-1]} != {widths[0]}, the first vector's")
        return r

    return read_jsonl(path, build)


def fast(path) -> bool:
    """Whether the fast path takes the file."""
    return embedding._read_rows(str(path)) is not None


def assert_same_as_reference(path):
    """``read_embeddings(path)``, checked against the reference reader."""
    try:
        expected = reference(str(path))
    except MalformedLine as exc:
        with pytest.raises(MalformedLine) as got:
            read_embeddings(str(path))
        assert str(got.value) == str(exc)
        return None
    got = read_embeddings(str(path))
    assert len(got) == len(expected)
    assert [r.id for r in got] == [r.id for r in expected]
    for a, b in zip(got, expected):
        assert a.vector.dtype == np.float64
        assert a.vector.tobytes() == b.vector.tobytes()  # bit-identical, sign bits too
    assert isinstance(got, EmbeddingRows)
    assert got.matrix.dtype == np.float64
    assert got.matrix.flags.c_contiguous and not got.matrix.flags.writeable
    assert got.matrix.tobytes() == b"".join(r.vector.tobytes() for r in expected)
    return got


def line(ident: str, tokens, sep: str = ", ") -> str:
    return '{"id": "%s", "vector": [%s]}' % (ident, sep.join(tokens))


# JSON numbers whose float64 value np.loadtxt gives exactly
FAST_TOKENS = ["0", "7", "-12", "123456789012345678901234567890", "-0.0", "-0e0", "-0E-0",
               "1e-05", "1E+16", "0.1", "2.50", "0.5e-3", "1e005", "-7E-0",
               repr(0.1 + 0.2), repr(-1 / 3), repr(5e-324), repr(1.7976931348623157e308)]
# JSON numbers the fast path hands to the reference reader: json.loads reads
# "-0" as the int 0 (+0.0), the others overflow float64
SLOW_TOKENS = ["-0", "1e400", "-1E400", "9" * 400, "-" + "9" * 400]
# not JSON numbers, though np.loadtxt parses most of them
BAD_TOKENS = ["+1", ".5", "1.", "01", "-01", "00", "-00.5", "-.5", "+.5", "1.e5", "1.E-5",
              "NaN", "Infinity", "-Infinity", "nan", "inf", "1e", "--1", "", "0x10", "1_0",
              "- 1", "1 2", "1,", "[1]", '"1"']


@pytest.mark.parametrize("token", FAST_TOKENS + SLOW_TOKENS + BAD_TOKENS)
def test_each_number_form_reads_as_json_loads_reads_it(tmp_path, token):
    path = tmp_path / "emb.jsonl"
    path.write_text(line("a", ["1.5", "-2"]) + "\n" + line("b", ["0.25", token]) + "\n")
    assert_same_as_reference(path)
    assert fast(path) == (token in FAST_TOKENS)


# JSON text of an id between its quotes: taken by the fast path, valid JSON
# that only the reference reader takes, and ids that are invalid
FAST_IDS = ["d1", "q-7", "été", "日本", "a.b:c"]
SLOW_IDS = ["\\u0041", 'a\\"b', "a\\\\b", "\\ud800"]
BAD_IDS = ["", "a b", "\x01", "a\tb", " ", "\\u2028", '"']


@pytest.mark.parametrize("ident", FAST_IDS + SLOW_IDS + BAD_IDS)
def test_each_id_form_reads_as_json_loads_reads_it(tmp_path, ident):
    path = tmp_path / "emb.jsonl"
    path.write_text(line("a", ["1.5"]) + "\n" + line(ident, ["2.5"]) + "\n", encoding="utf-8")
    assert_same_as_reference(path)
    assert fast(path) == (ident in FAST_IDS)


# separators between two numbers: taken by the fast path, JSON whitespace
# that only the reference reader takes, and whitespace that np.loadtxt
# strips but JSON does not allow
FAST_SEPS = [", ", ",", " , ", "\t,", ",\t "]
SLOW_SEPS = [",\r", "\r,"]
BAD_SEPS = [",\x0b", "\x0c,", ", \u00a0", ",\x1c", ",\x85", ", ,"]


@pytest.mark.parametrize("sep", FAST_SEPS + SLOW_SEPS + BAD_SEPS)
def test_each_separator_reads_as_json_loads_reads_it(tmp_path, sep):
    path = tmp_path / "emb.jsonl"
    path.write_text(line("a", ["1.5", "-2"]) + "\n" + line("b", ["0.25", "3"], sep) + "\n",
                    encoding="utf-8", newline="")
    assert_same_as_reference(path)
    assert fast(path) == (sep in FAST_SEPS)


# vector bodies with "-" in odd places: the grammar check deletes every "-"
# in a chunk with an exponent and reads it as a separator in any other, so a
# misplaced one rests on np.loadtxt rejecting each token that JSON rejects;
# only the last is a fast body
MINUS_BODIES = ["1-2", "0-1", "--1", "-", "-01", "-.5", "1e-05", "-0", "1, -", "-, 1",
                "1.-5", "- 1", "1, 2-", "-1-", "-1, -2"]


@pytest.mark.parametrize("body", MINUS_BODIES)
def test_each_minus_placement_reads_as_json_loads_reads_it(tmp_path, body):
    path = tmp_path / "emb.jsonl"
    path.write_text(line("a", ["1.5", "-2"]) + "\n" + line("b", [body]) + "\n")
    assert_same_as_reference(path)
    assert fast(path) == (body == "-1, -2")


@pytest.mark.parametrize("body", MINUS_BODIES)
def test_each_minus_placement_reads_the_same_beside_an_exponent(tmp_path, body):
    # "1e-05" puts an exponent in the chunk, so its every "-" is deleted
    path = tmp_path / "emb.jsonl"
    path.write_text(line("a", ["1e-05", "-2"]) + "\n" + line("b", [body]) + "\n")
    assert_same_as_reference(path)
    assert fast(path) == (body == "-1, -2")


def test_a_repeated_id_is_malformed_at_its_line(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(line("a", ["1.5"]) + "\n" + line("b", ["2"]) + "\n" + line("a", ["3"]) + "\n")
    assert not fast(path)
    with pytest.raises(MalformedLine, match=":3:.*'a' repeats line 1"):
        read_embeddings(str(path))


@pytest.mark.parametrize("body", ["", " ", "\t", "\x0b"])
def test_empty_vector_is_malformed_without_a_warning(tmp_path, body):
    path = tmp_path / "emb.jsonl"
    path.write_text(line("a", [body]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert assert_same_as_reference(path) is None


def tagged(values, kind):
    return st.sampled_from(values).map(lambda v: (v, kind))


# (fast-path parts, other parts tagged "slow" or "bad") of each line; a
# line wider than the others is "bad"
TOKENS = (st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**30, 10**30).map(str), st.sampled_from(FAST_TOKENS)),
          st.one_of(tagged(SLOW_TOKENS, "slow"), tagged(BAD_TOKENS, "bad")))
SEPARATORS = (st.sampled_from(FAST_SEPS),
              st.one_of(tagged(SLOW_SEPS, "slow"), tagged(BAD_SEPS, "bad")))
IDS = (st.sampled_from(FAST_IDS), st.one_of(tagged(SLOW_IDS, "slow"), tagged(BAD_IDS, "bad")))
LAYOUTS = (
    st.sampled_from(['{"id": "%s", "vector": [%s]}', ' {"id": "%s", "vector": [%s]}\t',
                     '{"id": "%s", "vector": [%s]}\r']),
    st.one_of(
        tagged(['{"id":"%s","vector":[%s]}', '{"id": "%s", "vector": [ %s ]}',
                '{"id": "%s", "vector": [%s], "extra": 1}', '{"vector": [%s], "id": "%s"}'],
               "slow"),
        tagged(['{"id": "%s", "vector": [%s]', '{"id": "%s", "vector": [%s]}}',
                '{"id": "%s", "vector": [%s], }'], "bad")))
BLANKS = st.sampled_from(["", "   ", "\r", "\t"])


@st.composite
def embedding_files(draw):
    """(file text, whether the fast path must take it).  In a dirty file each
    part of a line is now and then one that the fast path must refuse."""
    dirty = draw(st.booleans())

    def part(strategies):
        fast, other = strategies
        if dirty and draw(st.integers(0, 7)) == 0:
            return draw(other)
        return draw(fast), "fast"

    dim = draw(st.integers(1, 4))
    lines, kinds, idents = [], [], set()
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(BLANKS))
        ragged = dirty and draw(st.integers(0, 7)) == 0
        tokens = [part(TOKENS) for _ in range(dim + ragged)]
        (ident, id_kind), (layout, layout_kind), (sep, sep_kind) = (
            part(IDS), part(LAYOUTS), part(SEPARATORS))
        body = sep.join(t for t, _ in tokens)
        lines.append(layout % ((body, ident) if layout.startswith('{"vector"') else (ident, body)))
        kinds += [id_kind, layout_kind, "bad" if ragged else "fast"]
        kinds.append("bad" if ident in idents else "fast")  # a repeated id is malformed
        idents.add(ident)
        kinds += [kind for _, kind in tokens] + ([sep_kind] if len(tokens) > 1 else [])
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return text, all(kind == "fast" for kind in kinds)


@given(embedding_files(), st.sampled_from([1, 64, 1 << 18]))
@settings(max_examples=400, deadline=None)
def test_fast_path_matches_the_reference_reader(tmp_path_factory, case, chunk_bytes):
    text, fast_path = case
    path = tmp_path_factory.mktemp("emb") / "emb.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    # small chunks put lines, widths and errors in later chunks
    with mock.patch.object(embedding, "_CHUNK_BYTES", chunk_bytes):
        assert_same_as_reference(path)
        if fast_path:
            assert fast(path)


@pytest.mark.parametrize("token", ["0.5", "01", "NaN", "-0", "9" * 400, "1, 2"])
def test_line_past_the_first_chunk(tmp_path, token):
    rng = np.random.default_rng(3)
    lines = [json.dumps({"id": f"d{i}", "vector": rng.normal(size=32).tolist()})
             for i in range(1000)]
    lines.append(line("late", ["1.0"] * 31 + [token]))
    path = tmp_path / "emb.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert path.stat().st_size > 2 * embedding._CHUNK_BYTES
    assert_same_as_reference(path)
    assert fast(path) == (token == "0.5")


def test_written_embeddings_take_the_fast_path_and_share_one_matrix(tmp_path):
    rng = np.random.default_rng(5)
    recs = [EmbeddingRecord(f"d{i}", v) for i, v in enumerate(rng.normal(size=(50, 8)))]
    path = tmp_path / "emb.jsonl"
    write_embeddings(recs, str(path))
    rows = assert_same_as_reference(path)
    assert fast(path)
    assert rows.ids == tuple(r.id for r in recs)
    assert np.array_equal(rows.matrix, np.stack([r.vector for r in recs]))
    assert np.shares_memory(rows[3].vector, rows.matrix)
    assert rows[-1].id == "d49" and rows[2:5].ids == ("d2", "d3", "d4")
    assert [r.id for r in rows] == list(rows.ids)
    with pytest.raises(IndexError):
        rows[50]
    assert CorpusIndex(rows).matrix is rows.matrix
    assert (greedy_diversity_select(rows, 5).selected_ids
            == greedy_diversity_select(stack_records(recs), 5).selected_ids)


def test_empty_file_reads_as_no_records(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text("\n  \n")
    assert list(read_embeddings(str(path))) == []
