"""The contract of every value type built on ``rankkit.types.Value``:
value equality, a repr that names each field, read-only fields and a hash
by the fields for the frozen ones, no hash for the others, and round trips
through ``pickle``, ``copy.copy`` and ``copy.deepcopy``."""

import copy
import pickle
import time
from collections import OrderedDict

import numpy as np
import pytest

from rankkit.backends import HttpBackend, RetryPolicy
from rankkit.config import PipelineConfig
from rankkit.embedding import EmbeddingRecord, FilterResult, SelectionResult
from rankkit.engine import RerankReport, WindowConfig
from rankkit.metrics import MetricReport, Qrels
from rankkit.parsing import RepairLog
from rankkit.pipeline import DistillSummary, TeacherLabel
from rankkit.prompts import PromptScript, Turn
from rankkit.ranking_math import LossReport
from rankkit.types import CandidateList, Document, Permutation, Query, Value

SYSTEM = Turn("system", "rank")

# (class, frozen, every field by keyword)
CASES = [
    (Document, True, dict(id="d1", text="t", image_ref="img.png", modality="hybrid")),
    (Query, True, dict(id="q1", text="question")),
    (CandidateList, True, dict(query_id="q1", doc_ids=("d1", "d2"), first_stage_scores=(2.0, 1.0))),
    (Permutation, True, dict(order=(2, 1, 3))),
    (Turn, True, dict(role="user", text="look", image_refs=("img.png",))),
    (PromptScript, True, dict(turns=(SYSTEM, Turn("user", "q")), kind="listwise", query_id="q1",
                              doc_ids=("d1",))),
    (RetryPolicy, False, dict(max_attempts=3, base_delay=0.5, factor=3.0, jitter=0.0,
                              sleep=time.sleep)),
    # any comparable, picklable session: the constructor only stores it
    (HttpBackend, False, dict(endpoint="http://127.0.0.1:9/v1", model="m", timeout=5.0,
                              session=("stand-in session",))),
    (WindowConfig, True, dict(window_size=4, stride=2)),
    (RerankReport, False, dict(backend_calls=3, repair_count=1, parse_retries=1, fallbacks=0)),
    (PipelineConfig, True, dict(top_k=5, selection_k=7, quality_threshold=0.5,
                                window=WindowConfig(4, 2), budget=9, seed=1, mode="multimodal",
                                parallelism=2)),
    (RepairLog, False, dict(dropped_out_of_range=[9], dropped_duplicates=[1],
                            appended_missing=[2, 3])),
    (Qrels, False, dict(judgments={("q1", "d1"): 2}, group_of={"q1": "g"})),
    (MetricReport, False, dict(name="mrr", per_query=OrderedDict(q1=0.5), mean=0.5,
                               extras={"k": 10})),
    # a one-entry vector: a field compares as ``==`` gives it, and a longer
    # array's == has no single truth value
    (EmbeddingRecord, True, dict(id="v1", vector=np.array([0.25]))),
    (SelectionResult, True, dict(selected_ids=("v1", "v2"), trace=(("v1", 0.0), ("v2", 0.5)))),
    (FilterResult, True, dict(kept=("v1",), kept_count=1, dropped_below=2, dropped_zero=3)),
    (TeacherLabel, True, dict(query_id="q1", candidate_ids=("d1", "d2"),
                              teacher_perm=Permutation((2, 1)), confidence=0.5, repair_count=1,
                              backend_tag="IdentityBackend")),
    (DistillSummary, False, dict(emitted=2, skipped=1, failed_query_ids=["q3"])),
    (LossReport, True, dict(loss=1.5, per_step_terms=(1.0, 0.5), temperature=0.1)),
]


def test_every_value_type_has_a_case():
    assert {cls for cls, _, _ in CASES} == set(Value.__subclasses__())
    assert len(CASES) == 20


def hash_of(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls,frozen,fields", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_type_contract(cls, frozen, fields):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    for name in fields:
        other = cls(**fields)
        object.__setattr__(other, name, object())  # past a frozen class's guard
        assert a != other, name

    twin = type("Twin", (cls,), {"__slots__": ()})(**fields)
    values = tuple(getattr(a, name) for name in fields)
    assert a != twin and twin != a and a != values

    text = repr(a)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    for name in fields:
        assert f"{name}={getattr(a, name)!r}" in text

    if frozen:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        # an array field leaves both unhashable
        assert hash_of(a) == hash_of(b) == hash_of(values)
    else:
        with pytest.raises(TypeError):
            hash(a)

    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is cls and clone == a


def test_qrels_index_is_neither_compared_nor_shown():
    a, b = Qrels({("q1", "d1"): 2}), Qrels({("q1", "d1"): 2})
    object.__setattr__(b, "_by_query", {})
    assert a == b
    assert repr(a) == "Qrels(judgments={('q1', 'd1'): 2}, group_of={})"
    assert pickle.loads(pickle.dumps(a)).grades_for("q1") == {"d1": 2}


def test_default_factories_give_each_object_its_own_container():
    first, second = Qrels(), Qrels()
    first.add("q1", "d1", 1)
    assert second.judgments == {} and second.grades_for("q1") == {}
    assert RepairLog().appended_missing is not RepairLog().appended_missing
    reports = [MetricReport("m", OrderedDict(), 0.0) for _ in range(2)]
    assert reports[0].extras is not reports[1].extras
    assert PipelineConfig().window == WindowConfig()
