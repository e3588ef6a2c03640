import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempkgqa.evaluation import (
    EvaluationError,
    RankRecord,
    build_report,
    hits_at_k,
    rank_of,
    render_report,
    report_payload,
)


def record(rank, qtype="simple_entity", atype="entity", uid="q0"):
    return RankRecord(uid, qtype, atype, rank)


class TestRankOf:
    def test_first_gold_position(self):
        assert rank_of(["a", "b", "c"], {"b", "c"}) == 2
        assert rank_of(["a"], {"a"}) == 1

    def test_no_gold_predicted(self):
        assert rank_of(["a", "b"], {"z"}) is None
        assert rank_of([], {"z"}) is None

    def test_duplicate_predictions_rejected(self):
        with pytest.raises(EvaluationError, match="duplicate"):
            rank_of(["a", "a"], {"a"})

    def test_empty_gold_rejected(self):
        with pytest.raises(EvaluationError, match="gold"):
            rank_of(["a"], set())


class TestHitsAtK:
    def test_reference_ranks(self):
        records = [record(1), record(2), record(10), record(None)]
        assert hits_at_k(records, 1) == 0.25
        assert hits_at_k(records, 10) == 0.75  # rank 10 sits on the boundary
        assert hits_at_k(records, 9) == 0.5
        assert hits_at_k(records, 100) == 0.75

    def test_rank_past_k_misses(self):
        records = [record(1), record(2), record(11), record(None)]
        assert hits_at_k(records, 1) == 0.25
        assert hits_at_k(records, 10) == 0.5
        assert hits_at_k(records, 11) == 0.75

    def test_errors(self):
        with pytest.raises(EvaluationError):
            hits_at_k([], 1)
        with pytest.raises(EvaluationError):
            hits_at_k([record(1)], 0)

    @given(st.lists(st.one_of(st.none(), st.integers(1, 30)), min_size=1),
           st.integers(1, 30))
    def test_matches_direct_count(self, ranks, k):
        records = [record(r) for r in ranks]
        expected = sum(1 for r in ranks if r is not None and r <= k) / len(ranks)
        assert hits_at_k(records, k) == expected

    @given(st.lists(st.one_of(st.none(), st.integers(1, 30)), min_size=1))
    def test_monotone_in_k(self, ranks):
        records = [record(r) for r in ranks]
        values = [hits_at_k(records, k) for k in range(1, 31)]
        assert values == sorted(values)


class TestBuildReport:
    def records(self):
        return [
            record(1, "simple_entity", "entity", "q0"),
            record(2, "simple_time", "time", "q1"),
            record(11, "before_after", "entity", "q2"),
            record(None, "time_join", "entity", "q3"),
        ]

    def test_overall_and_slices(self):
        report = build_report(self.records())
        assert report.overall == {1: 0.25, 10: 0.5}
        assert report.by_group["simple"] == {1: 0.5, 10: 1.0}
        assert report.by_group["complex"] == {1: 0.0, 10: 0.0}
        assert report.by_question_type["simple_entity"] == {1: 1.0, 10: 1.0}
        assert report.by_answer_type["time"] == {1: 0.0, 10: 1.0}
        assert report.counts == {
            "overall": 4, "simple_entity": 1, "simple_time": 1,
            "before_after": 1, "time_join": 1, "simple": 2, "complex": 2,
            "entity": 3, "time": 1,
        }

    def test_custom_ks(self):
        report = build_report(self.records(), ks=(2,))
        assert report.ks == (2,)
        assert report.overall == {2: 0.5}

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            build_report([])

    @given(st.lists(
        st.tuples(st.one_of(st.none(), st.integers(1, 15)),
                  st.sampled_from(["simple_entity", "simple_time", "before_after",
                                   "first_last", "time_join"])),
        min_size=1, max_size=40,
    ))
    def test_overall_is_weighted_mean_of_type_slices(self, raw):
        records = [record(rank, qtype, uid=f"q{i}")
                   for i, (rank, qtype) in enumerate(raw)]
        report = build_report(records)
        for k in report.ks:
            weighted = sum(
                report.by_question_type[qtype][k] * report.counts[qtype]
                for qtype in report.by_question_type
            ) / report.counts["overall"]
            assert report.overall[k] == pytest.approx(weighted, abs=1e-12)

    def test_groups_absent_when_no_grouped_types(self):
        report = build_report([record(1, "explicit"), record(2, "ordinal")])
        assert report.by_group == {}


class TestRender:
    def test_layout_and_values(self):
        report = build_report(self.sample())
        text = render_report(report)
        lines = text.splitlines()
        assert lines[0].startswith("metric")
        assert lines[1].startswith("counts")
        assert lines[2].startswith("hits@1")
        assert lines[3].startswith("hits@10")
        assert "0.2500" in lines[2]
        assert text.endswith("\n")

    def sample(self):
        return [
            record(1, "simple_entity", "entity", "q0"),
            record(2, "simple_time", "time", "q1"),
            record(11, "before_after", "entity", "q2"),
            record(None, "time_join", "entity", "q3"),
        ]

    def test_payload_roundtrip_fields(self):
        payload = report_payload(build_report([record(3, "before_after", "time", "q9")]))
        assert list(payload) == ["ks", "overall", "by_question_type", "by_group",
                                 "by_answer_type", "counts", "records"]
        assert payload["overall"] == {"1": 0.0, "10": 1.0}
        assert payload["by_group"] == {"complex": {"1": 0.0, "10": 1.0}}
        assert payload["records"] == [{"uid": "q9", "qtype": "before_after",
                                       "atype": "time", "rank": 3}]
