import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankkit.errors import (
    DuplicateIndex,
    InvariantViolation,
    LengthMismatch,
    OutOfRange,
    PermutationError,
    WrongLength,
)
from rankkit.types import (
    CandidateList,
    Document,
    Permutation,
    Query,
    apply_permutation,
    identity_permutation,
    read_documents,
    read_queries,
    validate_permutation,
    write_documents,
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


class TestApplyPermutation:
    def test_basic(self):
        perm = validate_permutation([2, 1, 3], 3)
        assert apply_permutation(["a", "b", "c"], perm) == ["b", "a", "c"]

    def test_singleton(self):
        assert apply_permutation(["a"], identity_permutation(1)) == ["a"]

    def test_swap(self):
        assert apply_permutation(["a", "b"], validate_permutation([2, 1], 2)) == ["b", "a"]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            apply_permutation(["a", "b"], identity_permutation(3))

    @given(permutations)
    def test_inverse_roundtrip(self, order):
        n = len(order)
        perm = validate_permutation(order, n)
        items = list(range(n))
        inverse = Permutation(tuple(perm.order.index(i) + 1 for i in range(1, n + 1)))
        assert apply_permutation(apply_permutation(items, perm), inverse) == items

    @given(permutations)
    def test_sorted_order_is_identity_range(self, order):
        n = len(order)
        perm = validate_permutation(order, n)
        assert sorted(perm.order) == list(range(1, n + 1))


def test_identity_permutation():
    assert identity_permutation(3).order == (1, 2, 3)
    assert identity_permutation(0).order == ()
    assert identity_permutation(1).order == (1,)


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=0, max_size=20))
def test_identity_application_is_noop(items):
    assert apply_permutation(items, identity_permutation(len(items))) == items


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
