"""Tests of the benchmark's own pieces: span arithmetic, metric names,
the retrieval oracle and the agreement of BENCHMARK.json with them.

    python -m pytest perfbench -q
"""
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# Spark's Python workers, started later by the ``spark`` fixture, import repro too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
)

import spans  # noqa: E402
from knn_oracle import oracle_cand  # noqa: E402
from run import tail_percentile  # noqa: E402
from workloads import END_TO_END, NAME_RE, PER_LAYER, WORKLOADS  # noqa: E402


# -- span self time ------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    # children [1,3] and [2,5] overlap → [1,5]; [8,12] is clipped to [8,10]
    assert spans.self_time(0.0, 10.0, [(1, 3), (2, 5), (8, 12)]) == pytest.approx(4.0)
    assert spans.self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert spans.self_time(0.0, 10.0, [(-5, -1), (11, 12)]) == pytest.approx(10.0)
    assert spans.self_time(0.0, 10.0, [(0, 10), (2, 3)]) == pytest.approx(0.0)


def test_tracer_nesting_parents_and_self_time(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    t = spans.Tracer()
    with t.span("root") as root:  # 0 .. 10
        with t.span("a", rows_in=5):  # 1 .. 3
            pass
        with t.span("b"):  # 4 .. 6
            with t.span("c"):  # 4.5 .. 5
                pass
    by = {s.name: s for s in t.spans}
    assert by["a"].parent == root.id and by["b"].parent == root.id
    assert by["c"].parent == by["b"].id
    assert by["a"].counts == {"rows_in": 5}
    assert root.wall_s == pytest.approx(10.0)
    kids = t.children(root.id)
    # children plus self time add up to the root span
    assert sum(k.wall_s for k in kids) + t.self_s(root) == pytest.approx(root.wall_s)
    assert t.self_s(root) == pytest.approx(6.0)
    assert t.self_s(by["b"]) == pytest.approx(1.5)


def test_inclusive_spark_counts_add_descendants():
    t = spans.Tracer()
    with t.span("root"):
        with t.span("a"):
            with t.span("b"):
                pass
    for s, (jobs, stages) in zip(t.spans, [(1, 2), (3, 5), (7, 11)]):
        s.own_jobs, s.own_stages = jobs, stages
    assert t.inclusive(t.spans[0], "own_jobs") == 11
    assert t.inclusive(t.spans[1], "own_stages") == 16


# -- metric names ----------------------------------------------------------------
@pytest.mark.parametrize("name", ["setup_s", "matcher.score_pairs.kernel_share", "a-b_9"])
def test_name_pattern_accepts(name):
    assert NAME_RE.fullmatch(name)


@pytest.mark.parametrize("name", ["", "al run", "a/b", "f1%", "ä"])
def test_name_pattern_rejects(name):
    assert not NAME_RE.fullmatch(name)


def test_every_name_is_valid_and_unique():
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for n in names:
        assert NAME_RE.fullmatch(n) and len(n) <= 64 and n[0].isalnum(), n


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in END_TO_END)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile([float(i) for i in range(20)]) == (50.0, 9.0)
    assert tail_percentile([float(i) for i in range(100)]) == (90.0, 89.0)


# -- retrieval oracle ---------------------------------------------------------------
def _tiny_case():
    """Two members over R = {r0, r1, r2} and S = {s0, s1}, k = 2.

    Member A ranks (s1,r2) 1, (s0,r0) 2, (s0,r1) 3, (s1,r1) 4; member B
    ranks (s0,r1) 1, (s1,r1) 2, (s1,r0) 3, (s0,r2) 4. The min-rank merge
    orders (s1,r2) [1, .01], (s0,r1) [1, .04], (s0,r0) [2, .04],
    (s1,r1) [2, .16], (s1,r0) [3], (s0,r2) [4].
    """
    r_a = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    s_a = np.array([[0.2, 0.0], [2.9, 0.0]])
    r_b = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    s_b = np.array([[0.0, 1.2], [0.0, 0.6]])
    return ["r0", "r1", "r2"], ["s0", "s1"], [r_a, r_b], [s_a, s_b]


@pytest.mark.parametrize(
    "cand_size, want",
    [
        (3, {("r2", "s1"), ("r1", "s0"), ("r0", "s0")}),
        (4, {("r2", "s1"), ("r1", "s0"), ("r0", "s0"), ("r1", "s1")}),
        (6, {("r2", "s1"), ("r1", "s0"), ("r0", "s0"), ("r1", "s1"), ("r0", "s1"),
             ("r2", "s0")}),
        (50, {("r2", "s1"), ("r1", "s0"), ("r0", "s0"), ("r1", "s1"), ("r0", "s1"),
              ("r2", "s0")}),
    ],
)
def test_oracle_min_rank_merge_on_a_hand_built_case(cand_size, want):
    r_rids, s_rids, r_m, s_m = _tiny_case()
    assert oracle_cand(r_rids, s_rids, r_m, s_m, 2, cand_size) == want


def test_oracle_breaks_distance_ties_by_string_order_of_ids():
    # equal distance: "s10" sorts before "s2" as a string, so it ranks first
    r = [np.array([[0.0, 0.0]])]
    s = [np.array([[1.0, 0.0], [-1.0, 0.0]])]
    assert oracle_cand(["r0"], ["s2", "s10"], r, s, 1, 1) == {("r0", "s10")}


def test_oracle_matches_spark_retrieve_cand(spark):
    from repro.core.ibc import retrieve_cand

    r_rids, s_rids, r_m, s_m = _tiny_case()
    for cand_size in (3, 4, 6):
        got = retrieve_cand(spark, r_rids, s_rids, r_m, s_m, 2, cand_size).collect()
        assert {(row.rid_r, row.rid_s) for row in got} == oracle_cand(
            r_rids, s_rids, r_m, s_m, 2, cand_size
        )
