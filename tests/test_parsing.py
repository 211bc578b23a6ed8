import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankkit.errors import Unparseable
from rankkit.parsing import parse_ranking, parse_yes_no, render_ranking
from rankkit.types import Permutation, validate_permutation


class TestParseRanking:
    def test_clean_output(self):
        perm, log = parse_ranking("[2] > [1] > [3]", 3)
        assert perm.order == (2, 1, 3)
        assert not log

    def test_duplicate_and_missing_repair(self):
        perm, log = parse_ranking("[2] > [2] > [1]", 3)
        assert perm.order == (2, 1, 3)
        assert log.dropped_duplicates == [2]
        assert log.appended_missing == [3]
        assert log.count == 2

    def test_out_of_range_dropped(self):
        perm, log = parse_ranking("[1] > [9] > [2]", 3)
        assert perm.order == (1, 2, 3)
        assert log.dropped_out_of_range == [9]
        assert log.appended_missing == [3]

    def test_an_id_past_the_int_digit_limit_is_dropped_as_out_of_range(self):
        # int() refuses more than 4300 digits; this once raised a bare ValueError
        perm, log = parse_ranking("[" + "9" * 5000 + "] > [2] > [1]", 2)
        assert perm.order == (2, 1)
        assert log.dropped_out_of_range == [-1]
        assert log.count == 1

    def test_leading_zeros_do_not_make_an_id_long(self):
        perm, log = parse_ranking("[" + "0" * 5000 + "2] > [1]", 2)
        assert perm.order == (2, 1)
        assert not log

    def test_no_brackets_unparseable(self):
        with pytest.raises(Unparseable):
            parse_ranking("no brackets here", 3)

    def test_prose_around_ranking(self):
        perm, log = parse_ranking("Sure! The ranking is [3] > [1] > [2]. Hope it helps.", 3)
        assert perm.order == (3, 1, 2)
        assert not log

    def test_truncated_output_appends_missing(self):
        perm, log = parse_ranking("[4] > [2]", 4)
        assert perm.order == (4, 2, 1, 3)
        assert log.appended_missing == [1, 3]

    ranking_text = st.text(
        alphabet=st.sampled_from(list("[]0123456789> abcdefg\n.,")), max_size=60
    )

    @given(ranking_text, st.integers(1, 12))
    @settings(max_examples=500, deadline=None)
    def test_total_over_arbitrary_strings(self, raw, n):
        try:
            perm, _ = parse_ranking(raw, n)
        except Unparseable:
            return
        assert sorted(perm.order) == list(range(1, n + 1))

    @given(st.integers(1, 12).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_render_parse_roundtrip(self, order):
        perm = validate_permutation(order, len(order))
        reparsed, log = parse_ranking(render_ranking(perm), len(order))
        assert reparsed.order == perm.order
        assert not log


class TestRenderRanking:
    def test_format(self):
        assert render_ranking(Permutation((2, 1, 3))) == "[2] > [1] > [3]"


class TestParseYesNo:
    @pytest.mark.parametrize("raw,expected", [
        ("Yes", True),
        ("yes", True),
        ("  no.", False),
        ("NO!", False),
        ("Yes, the document is relevant.", True),
        ('"No"', False),
    ])
    def test_accepted_forms(self, raw, expected):
        assert parse_yes_no(raw) is expected

    @pytest.mark.parametrize("raw", ["maybe", "", "note that...", "yessir? not a word", "I think yes"])
    def test_rejected_forms(self, raw):
        with pytest.raises(Unparseable):
            parse_yes_no(raw)
