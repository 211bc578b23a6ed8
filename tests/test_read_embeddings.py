"""The bulk parse of embedding JSONL against the JSON-per-line reader.

``read_embeddings`` either takes a file on its fast path (one ``np.loadtxt``
per chunk behind a grammar check) or sends it through ``types.read_jsonl``,
which is the specification.  These tests pin that the result does not
depend on the path: the same ids, bit-identical vectors (the sign of zero
included) and the same ``MalformedLine``, with file:line.  Which path took
a file is probed with ``embedding._read_rows``, the fast path alone.

A read keeps what it parsed under ``__rankkit_cache__`` beside the file.
The tests at the end pin that a hit gives the rows of a parse without
parsing, that the key is the file's bytes, and that a damaged entry, a
non-regular file or a cache others may write to is read as if there were
no cache.  The last ones pin when a hit may skip the hash (a trusted stat
record that matches), that a hit maps the entry's matrix read-only, and
the one debug line each read logs.  They move the module's clock or its
2 s margin instead of sleeping.
"""

import hashlib
import json
import logging
import mmap
import os
import threading
import warnings
from unittest import mock

import numpy as np
import numpy.lib.format as npy_format
import pytest
from hypothesis import given, settings, strategies as st

from rankkit import embedding
from rankkit.embedding import (
    EmbeddingRecord,
    EmbeddingRows,
    greedy_diversity_select,
    read_embeddings,
    stack_records,
    top_k_by_distance,
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
    with open(path, "rb") as fh:
        capacity = embedding._scan(fh)[1]
    return embedding._read_rows(str(path), capacity) is not None


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
    # retrieval takes the rows as they are, with no stacked copy
    with mock.patch.object(embedding, "stack_records", side_effect=AssertionError):
        assert top_k_by_distance(rows.matrix[3], rows, 2)[0] == "d3"
    assert (greedy_diversity_select(rows, 5).selected_ids
            == greedy_diversity_select(stack_records(recs), 5).selected_ids)


def assert_norms_of_matrix(rows):
    """``rows`` holds ``_sq_norms`` of its own matrix, bit for bit, read-only."""
    assert rows.sq_norms.tobytes() == embedding._sq_norms(rows.matrix).tobytes()
    assert not rows.sq_norms.flags.writeable


def test_rows_keep_the_norms_of_their_matrix_whatever_built_them(tmp_path):
    rng = np.random.default_rng(12)
    # squares that overflow, and squares that underflow
    x = rng.normal(size=(40, 7)) * 10.0 ** rng.choice([-200, 0, 200], size=(40, 1))
    recs = [EmbeddingRecord(f"d{i}", v) for i, v in enumerate(x)]
    canonical, keyed = tmp_path / "fast.jsonl", tmp_path / "json.jsonl"
    write_embeddings(recs, str(canonical))
    keyed.write_text("".join(json.dumps({"vector": r.vector.tolist(), "id": r.id}) + "\n"
                             for r in recs))
    assert fast(canonical) and not fast(keyed)
    for path in (canonical, keyed):
        miss = read_embeddings(str(path))
        with spy(embedding, "_read_rows") as read_rows:
            hit = read_embeddings(str(path))
        read_rows.assert_not_called()
        for rows in (miss, hit, miss[5:17]):
            assert_norms_of_matrix(rows)
        assert hit.sq_norms.tobytes() == miss.sq_norms.tobytes()
    assert_norms_of_matrix(stack_records(recs))
    assert np.isinf(miss.sq_norms).any()  # squares past the float64 range


def test_empty_file_reads_as_no_records(tmp_path):
    for name, text in (("blank.jsonl", "\n  \n"), ("empty.jsonl", "")):
        path = tmp_path / name
        path.write_text(text)
        assert list(read_embeddings(str(path))) == []
        with spy(embedding, "_read_rows") as read_rows:  # a cache hit, zero rows too
            rows = read_embeddings(str(path))
        read_rows.assert_not_called()
        assert rows.ids == () and rows.matrix.shape[0] == 0


# --- the parsed copy under __rankkit_cache__ ---


def entry_of(path):
    return path.parent / "__rankkit_cache__" / (path.name + ".npy")


def digest_of(path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


def write_entry(entry, digest: bytes, ids, matrix) -> None:
    """An entry as ``read_embeddings`` writes one, mode 0600 whatever the umask."""
    with open(entry, "wb") as fh:
        for array in (np.frombuffer(digest, np.uint8), np.array(ids, dtype=str), matrix):
            np.save(fh, array)
    os.chmod(entry, 0o600)


def read_entry(entry):
    with open(entry, "rb") as fh:
        return [np.load(fh) for _ in range(3)]


def spy(owner, name):
    return mock.patch.object(owner, name, wraps=getattr(owner, name))


def assert_same_rows(got, expected):
    assert got.ids == expected.ids
    assert got.matrix.dtype == np.float64 and got.matrix.shape == expected.matrix.shape
    assert got.matrix.tobytes() == expected.matrix.tobytes()  # sign bits too
    assert got.matrix.flags.c_contiguous and not got.matrix.flags.writeable


@pytest.fixture
def source(tmp_path):
    """A file of canonical lines, signed zeros and subnormals included."""
    path = tmp_path / "emb.jsonl"
    path.write_text(line("a", ["-0.0", "0.5", "-0e0"]) + "\n" + line("b", ["0", repr(5e-324), "-2"])
                    + "\n" + line("c", ["1e-05", "-0.0", "3.25"]) + "\n")
    return path


def test_a_hit_gives_the_rows_of_a_miss(source):
    miss = read_embeddings(str(source))
    assert entry_of(source).is_file()
    with spy(embedding, "_read_rows") as read_rows:
        hit = read_embeddings(str(source))
    read_rows.assert_not_called()
    assert_same_rows(hit, miss)
    assert np.signbit(hit.matrix[0, 0]) and np.signbit(hit.matrix[2, 1])
    stored, ids, matrix = read_entry(entry_of(source))
    assert stored.tobytes() == digest_of(source)
    assert ids.tolist() == list(miss.ids) and matrix.tobytes() == miss.matrix.tobytes()


def test_a_second_read_of_an_unchanged_file_does_not_parse_it(source):
    read_embeddings(str(source))
    with spy(embedding, "_read_rows") as read_rows, spy(np, "loadtxt") as loadtxt:
        read_embeddings(str(source))
    read_rows.assert_not_called()
    loadtxt.assert_not_called()


def test_the_key_is_the_content_not_the_stat(source):
    read_embeddings(str(source))
    before = source.stat()
    text = source.read_text()
    source.write_text(text.replace("0.5", "0.7").replace("3.25", "3.75"))
    os.utime(source, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = source.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    rows = read_embeddings(str(source))
    assert rows.matrix[0, 1] == 0.7 and rows.matrix[2, 2] == 3.75
    assert read_entry(entry_of(source))[0].tobytes() == digest_of(source)


def test_a_valid_entry_is_what_a_hit_returns(source):
    # the control for the damaged entries below: a planted entry is read
    read_embeddings(str(source))
    write_entry(entry_of(source), digest_of(source), ["x", "y", "z"], np.full((3, 3), 9.0))
    rows = read_embeddings(str(source))
    assert rows.ids == ("x", "y", "z") and (rows.matrix == 9.0).all()


def truncated(entry, digest, ids, matrix):
    write_entry(entry, digest, ids, matrix)
    os.truncate(entry, entry.stat().st_size - 8)


DAMAGE = {
    "truncated": truncated,
    "foreign digest": lambda e, d, i, m: write_entry(e, hashlib.sha256(b"x").digest(), i, m),
    "float32 matrix": lambda e, d, i, m: write_entry(e, d, i, m.astype(np.float32)),
    "1-d matrix": lambda e, d, i, m: write_entry(e, d, i, m.ravel()),
    "id count": lambda e, d, i, m: write_entry(e, d, i[:-1], m),
    "NaN": lambda e, d, i, m: write_entry(e, d, i, np.where(m == 0.5, np.nan, m)),
    "repeated id": lambda e, d, i, m: write_entry(e, d, [i[0], *i[:-1]], m),
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_entry_is_a_miss_that_is_replaced(source, damage):
    expected = read_embeddings(str(source))
    entry = entry_of(source)
    DAMAGE[damage](entry, digest_of(source), list(expected.ids), expected.matrix.copy())
    with spy(embedding, "_read_rows") as read_rows:
        got = read_embeddings(str(source))
    read_rows.assert_called_once()
    assert_same_rows(got, expected)
    stored, ids, matrix = read_entry(entry)
    assert stored.tobytes() == digest_of(source)
    assert ids.tolist() == list(expected.ids) and matrix.tobytes() == expected.matrix.tobytes()


def test_an_unwritable_cache_reads_the_file(source):
    expected = reference(str(source))
    entry_of(source).parent.write_text("not a directory")
    for _ in range(2):
        rows = read_embeddings(str(source))
        assert [r.id for r in rows] == [r.id for r in expected]
        assert rows.matrix.tobytes() == b"".join(r.vector.tobytes() for r in expected)
    assert entry_of(source).parent.read_text() == "not a directory"


def test_a_malformed_file_writes_no_entry(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(line("a", ["1.5"]) + "\n" + line("b", ["NaN"]) + "\n")
    with pytest.raises(MalformedLine) as expected:
        reference(str(path))
    for _ in range(2):
        with pytest.raises(MalformedLine, match=":2:") as got:
            read_embeddings(str(path))
        assert str(got.value) == str(expected.value)
    assert not entry_of(path).exists()


def plant(source):
    """A valid entry for ``source`` that holds other vectors."""
    read_embeddings(str(source))
    write_entry(entry_of(source), digest_of(source), ["x", "y", "z"], np.full((3, 3), 9.0))
    return entry_of(source).read_bytes()


def test_a_cache_directory_others_may_write_is_neither_read_nor_written(source):
    expected = reference(str(source))
    planted = plant(source)
    os.chmod(entry_of(source).parent, 0o777)
    with spy(embedding, "_read_rows") as read_rows:
        got = read_embeddings(str(source))
    read_rows.assert_called_once()
    assert got.ids == tuple(r.id for r in expected)
    assert got.matrix.tobytes() == b"".join(r.vector.tobytes() for r in expected)
    assert entry_of(source).read_bytes() == planted


def test_an_entry_others_may_write_is_not_read_and_is_replaced(source):
    expected = reference(str(source))
    plant(source)
    os.chmod(entry_of(source), 0o666)
    got = read_embeddings(str(source))
    assert got.ids == tuple(r.id for r in expected)
    assert got.matrix.tobytes() == b"".join(r.vector.tobytes() for r in expected)
    assert entry_of(source).stat().st_mode & 0o077 == 0
    assert read_entry(entry_of(source))[1].tolist() == list(got.ids)


def test_a_fifo_is_read_in_one_pass_without_a_cache(tmp_path, source):
    # a second pass over a FIFO fails to seek, or opens it again and waits
    # for a writer that never comes: both run in threads with a timeout
    expected = read_embeddings(str(source))
    fifo = tmp_path / "fifo" / "emb.jsonl"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    text = source.read_bytes()
    got = []

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(text)

    def read():
        try:
            got.append(read_embeddings(str(fifo)))
        except Exception as exc:
            got.append(exc)

    threads = [threading.Thread(target=f, daemon=True) for f in (feed, read)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    if not isinstance(got[0], EmbeddingRows):
        raise got[0]
    assert_same_rows(got[0], expected)
    assert os.listdir(fifo.parent) == ["emb.jsonl"]


def test_an_id_a_numpy_string_cannot_hold_is_not_cached(tmp_path):
    # a NumPy string array drops an id's trailing NUL, so the rows are parsed each time
    path = tmp_path / "emb.jsonl"
    path.write_text(line("a\\u0000", ["1.5"]) + "\n" + line("a", ["2.5"]) + "\n")
    for _ in range(2):
        assert read_embeddings(str(path)).ids == ("a\x00", "a")
    assert not entry_of(path).exists()


def test_a_file_written_during_a_read_is_not_cached(source):
    # the digest is of the bytes before the write, the rows of those after it
    text = source.read_text()
    parse = embedding._read_rows

    def rewrite_then_parse(path, capacity):
        source.write_text(text.replace("0.5", "0.7"))
        return parse(path, capacity)

    with mock.patch.object(embedding, "_read_rows", rewrite_then_parse):
        assert read_embeddings(str(source)).matrix[0, 1] == 0.7
    assert not entry_of(source).exists()
    source.write_text(text)
    assert read_embeddings(str(source)).matrix[0, 1] == 0.5


# --- hits by stat, and the mapped matrix ---


def stat_record(entry) -> tuple:
    """The stat record, the fourth array of an entry."""
    with open(entry, "rb") as fh:
        arrays = [np.load(fh) for _ in range(4)]
    return tuple(arrays[3].tolist())


def mapped(array) -> bool:
    """Whether ``array`` is a view of a memory map."""
    while array is not None:
        if isinstance(array, mmap.mmap):
            return True
        array = getattr(array, "base", None)
    return False


@pytest.fixture
def later(monkeypatch):
    """The module's clock 10 s ahead, so that a stat taken now is trusted."""
    now = embedding.time_ns
    monkeypatch.setattr(embedding, "time_ns", lambda: now() + 10**10)


def rewrite_keeping_mtime(path, text, before):
    """Write ``text`` to ``path`` and restore ``before``'s mtime, again until
    the ctime differs from ``before``'s.  The clock moved ahead trusts a stat
    taken in the timestamp step of the last change; a write in that same
    step is what the real 2 s margin rules out, so the test waits it out by
    writing, not sleeping."""
    while True:
        path.write_text(text)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        if path.stat().st_ctime_ns != before.st_ctime_ns:
            return


def test_a_trusted_stat_that_matches_is_a_hit_without_hashing(source, later):
    miss = read_embeddings(str(source))
    with spy(embedding, "_scan") as scan, spy(embedding, "_read_rows") as read_rows:
        hit = read_embeddings(str(source))
    scan.assert_not_called()
    read_rows.assert_not_called()
    assert_same_rows(hit, miss)
    assert stat_record(entry_of(source))[:5] == embedding._stat_key(source.stat())


def test_a_file_changed_within_the_margin_is_hashed_on_each_read(source, monkeypatch):
    monkeypatch.setattr(embedding, "_RACY_NS", 3600 * 10**9)
    miss = read_embeddings(str(source))
    stored = entry_of(source).read_bytes()
    with (spy(embedding, "_scan") as scan, spy(embedding, "_store_entry") as store,
          spy(embedding, "_read_rows") as read_rows):
        for _ in range(3):
            assert_same_rows(read_embeddings(str(source)), miss)
    assert scan.call_count == 3
    store.assert_not_called()
    read_rows.assert_not_called()
    assert entry_of(source).read_bytes() == stored


def test_a_changed_stat_over_the_same_bytes_refreshes_the_record_once(source, later):
    miss = read_embeddings(str(source))
    os.utime(source, ns=(10**9, 10**9))  # a touch: a new stat, the same bytes
    with (spy(embedding, "_scan") as scan, spy(embedding, "_store_entry") as store,
          spy(embedding, "_read_rows") as read_rows):
        for _ in range(3):
            assert_same_rows(read_embeddings(str(source)), miss)
    scan.assert_called_once()
    store.assert_called_once()
    read_rows.assert_not_called()
    assert stat_record(entry_of(source))[:5] == embedding._stat_key(source.stat())


def test_a_trusted_entry_still_sees_a_rewrite_that_keeps_size_and_mtime(source, later):
    # test_the_key_is_the_content_not_the_stat, after the entry became trusted
    read_embeddings(str(source))
    before = source.stat()
    assert embedding._trusted(stat_record(entry_of(source)))
    rewrite_keeping_mtime(source, source.read_text().replace("0.5", "0.7").replace("3.25", "3.75"),
                          before)
    after = source.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    rows = read_embeddings(str(source))
    assert rows.matrix[0, 1] == 0.7 and rows.matrix[2, 2] == 3.75
    assert read_entry(entry_of(source))[0].tobytes() == digest_of(source)


def test_a_hit_maps_the_entry_read_only(source):
    miss = read_embeddings(str(source))
    hit = read_embeddings(str(source))
    assert mapped(hit.matrix) and not mapped(miss.matrix)
    assert_same_rows(hit, miss)
    assert np.signbit(hit.matrix[0, 0]) and np.signbit(hit.matrix[2, 1])
    with pytest.raises(ValueError):
        hit.matrix[0, 0] = 1.0


def test_an_entry_without_a_stat_record_is_a_hit_that_hashes(source, later):
    expected = read_embeddings(str(source))
    write_entry(entry_of(source), digest_of(source), list(expected.ids), expected.matrix.copy())
    with spy(embedding, "_scan") as scan, spy(embedding, "_read_rows") as read_rows:
        hit = read_embeddings(str(source))
    scan.assert_called_once()
    read_rows.assert_not_called()
    assert_same_rows(hit, expected)


def test_a_matrix_header_past_the_end_of_the_entry_is_a_miss(source):
    expected = read_embeddings(str(source))
    entry = entry_of(source)
    with open(entry, "wb") as fh:
        np.save(fh, np.frombuffer(digest_of(source), np.uint8))
        np.save(fh, np.array(expected.ids, dtype=str))
        header = {"descr": "<f8", "fortran_order": False, "shape": (1 << 16, 3)}
        npy_format.write_array_header_1_0(fh, header)
        fh.write(expected.matrix.tobytes())
    with spy(embedding, "_read_rows") as read_rows:
        got = read_embeddings(str(source))
    read_rows.assert_called_once()
    assert_same_rows(got, expected)
    assert read_entry(entry)[2].tobytes() == expected.matrix.tobytes()


def test_mapped_rows_keep_their_values_when_the_entry_is_replaced(source):
    read_embeddings(str(source))
    hit = read_embeddings(str(source))
    assert mapped(hit.matrix)
    values = hit.matrix.tobytes()
    entry = entry_of(source)
    replacement = entry.with_name("replacement.npy")
    write_entry(replacement, digest_of(source), ["x", "y", "z"], np.full((3, 3), 9.0))
    os.replace(replacement, entry)
    assert hit.matrix.tobytes() == values
    assert read_embeddings(str(source)).ids == ("x", "y", "z")


def test_each_read_logs_its_outcome(tmp_path, source, later, caplog):
    caplog.set_level(logging.DEBUG, logger=embedding.__name__)

    def outcome(path):
        caplog.clear()
        read_embeddings(str(path))
        prefix = f"embeddings {path}: "
        return [r.getMessage()[len(prefix):] for r in caplog.records
                if r.getMessage().startswith(prefix)]

    assert outcome(source) == ["miss"]
    assert outcome(source) == ["stat hit"]
    os.utime(source, ns=(10**9, 10**9))
    assert outcome(source) == ["digest hit"]
    assert outcome(source) == ["stat hit"]
    lone = tmp_path / "lone" / "emb.jsonl"
    lone.parent.mkdir()
    lone.write_text(source.read_text())
    entry_of(lone).parent.write_text("not a directory")
    assert outcome(lone) == ["uncached"]
