"""Index-By-Committee retrieval (Algorithm 1 lines 9-25)."""
import uuid

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.ibc import cand_size_for, knn_k_for, l2_normalize, retrieve_cand
from repro.index.brute import knn_numpy
from repro.oracle import assert_equivalent


def _toy_embs(seed, n_r=30, n_s=50, d=8):
    rng = np.random.default_rng(seed)
    return (
        [f"r{i}" for i in range(n_r)],
        [f"s{i}" for i in range(n_s)],
        rng.standard_normal((n_r, d)),
        rng.standard_normal((n_s, d)),
    )


def test_l2_normalize():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = l2_normalize(m)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_allclose(out[1], [0.0, 0.0])  # zero row stays zero


def test_retrieve_cand_schema_and_size(spark):
    r_rids, s_rids, r_emb, s_emb = _toy_embs(0)
    cand = retrieve_cand(spark, r_rids, s_rids, [r_emb], [s_emb], k=3, cand_size=40)
    pdf = cand.toPandas()
    assert list(pdf.columns) == ["rid_r", "rid_s", "dist"]
    assert len(pdf) == 40
    assert not pdf.duplicated(["rid_r", "rid_s"]).any()


def test_retrieve_cand_single_member_is_knn_prefix(spark):
    """With one member, CAND = the globally closest retrieved pairs."""
    r_rids, s_rids, r_emb, s_emb = _toy_embs(1)
    cand = retrieve_cand(spark, r_rids, s_rids, [r_emb], [s_emb], k=2, cand_size=25)
    pdf = cand.toPandas().sort_values("dist")
    # oracle: all (s, top-2 r) pairs, keep smallest 25 distances
    from repro.index.brute import knn_numpy

    idx, dist = knn_numpy(s_emb, r_emb, 2)
    flat = sorted(dist.ravel())[:25]
    np.testing.assert_allclose(sorted(pdf.dist), flat, atol=1e-9)


def test_union_superset_property(spark):
    """Every member's best-ranked pairs survive into a large-enough CAND."""
    r_rids, s_rids, r_emb, s_emb = _toy_embs(2)
    rng = np.random.default_rng(3)
    r2 = r_emb + rng.standard_normal(r_emb.shape)
    s2 = s_emb + rng.standard_normal(s_emb.shape)
    big = retrieve_cand(
        spark, r_rids, s_rids, [r_emb, r2], [s_emb, s2], k=2, cand_size=10_000
    ).toPandas()
    m1 = retrieve_cand(spark, r_rids, s_rids, [r_emb], [s_emb], k=2, cand_size=10_000).toPandas()
    m2 = retrieve_cand(spark, r_rids, s_rids, [r2], [s2], k=2, cand_size=10_000).toPandas()
    union = set(zip(m1.rid_r, m1.rid_s)) | set(zip(m2.rid_r, m2.rid_s))
    got = set(zip(big.rid_r, big.rid_s))
    assert got == union


def test_committee_recall_at_least_best_member(spark, runner):
    """On real data with ample CAND budget, the union cannot lose pairs."""
    from repro.core.evaluate import blocker_recall

    ds = runner.dataset("walmart_amazon")
    store = runner.store("walmart_amazon")
    rng = np.random.default_rng(0)
    r1 = l2_normalize(store.r_emb)
    s1 = l2_normalize(store.s_emb)
    r2 = l2_normalize(store.r_emb + 0.1 * rng.standard_normal(store.r_emb.shape))
    s2 = l2_normalize(store.s_emb + 0.1 * rng.standard_normal(store.s_emb.shape))
    big = 10 * len(store.s_rids)
    rec_union = blocker_recall(
        retrieve_cand(spark, store.r_rids, store.s_rids, [r1, r2], [s1, s2], 3, big),
        ds.dups,
    )
    rec_single = blocker_recall(
        retrieve_cand(spark, store.r_rids, store.s_rids, [r1], [s1], 3, big), ds.dups
    )
    assert rec_union >= rec_single - 1e-9


def test_retrieval_dedup_oracle(spark):
    """Dedup + min-dist aggregation matches DuckDB over the raw union."""
    r_rids, s_rids, r_emb, s_emb = _toy_embs(4, n_r=10, n_s=12, d=4)
    cand = retrieve_cand(
        spark, r_rids, s_rids, [r_emb, r_emb], [s_emb, s_emb], k=2, cand_size=10_000
    ).select("rid_r", "rid_s", "dist")
    single = retrieve_cand(
        spark, r_rids, s_rids, [r_emb], [s_emb], k=2, cand_size=10_000
    ).select("rid_r", "rid_s", "dist").toPandas()
    # identical members -> dedup to the single-member result
    assert_equivalent(
        cand,
        "SELECT rid_r, rid_s, dist FROM single",
        single=single,
    )


def _pairs(pdf):
    return list(zip(pdf.rid_r, pdf.rid_s))


def test_k_larger_than_r_is_clamped_without_duplicates(spark):
    r_rids, s_rids, r_emb, s_emb = _toy_embs(5, n_r=3, n_s=5, d=4)
    r2, s2 = r_emb[::-1].copy(), s_emb + 0.5
    pdf = retrieve_cand(
        spark, r_rids, s_rids, [r_emb, r2], [s_emb, s2], k=10, cand_size=1_000
    ).toPandas()
    # every member retrieves all |R| neighbours of every query: the
    # union is the full cross product, each pair once
    assert not pdf.duplicated(["rid_r", "rid_s"]).any()
    assert set(_pairs(pdf)) == {(r, s) for r in r_rids for s in s_rids}


def test_budget_above_retrieved_returns_every_distinct_pair(spark):
    """N·k·|S| < cand_size: CAND is exactly the union of the members'
    k-NN lists, with each pair's smallest distance."""
    r_rids, s_rids, r_emb, s_emb = _toy_embs(6, n_r=20, n_s=12, d=4)
    rng = np.random.default_rng(7)
    members = [(r_emb, s_emb), (r_emb + rng.standard_normal(r_emb.shape), s_emb)]
    want: dict[tuple[str, str], float] = {}
    for r_m, s_m in members:
        idx, dist = knn_numpy(s_m, r_m, 2)
        for q in range(len(s_rids)):
            for i, d in zip(idx[q], dist[q]):
                key = (r_rids[i], s_rids[q])
                want[key] = min(want.get(key, np.inf), d)
    assert 2 * 2 * len(s_rids) < 500  # N·k·|S| below the budget
    pdf = retrieve_cand(
        spark, r_rids, s_rids, [m[0] for m in members], [m[1] for m in members],
        k=2, cand_size=500,
    ).toPandas()
    assert len(pdf) == len(want)
    got = dict(zip(_pairs(pdf), pdf.dist))
    assert got.keys() == want.keys()
    np.testing.assert_allclose([got[p] for p in want], list(want.values()), atol=1e-12)


def test_zero_budget_is_empty_with_the_cand_schema(spark):
    r_rids, s_rids, r_emb, s_emb = _toy_embs(8, n_r=6, n_s=4, d=3)
    cand = retrieve_cand(spark, r_rids, s_rids, [r_emb], [s_emb], k=2, cand_size=0)
    assert [(f.name, f.dataType.simpleString()) for f in cand.schema.fields] == [
        ("rid_r", "string"), ("rid_s", "string"), ("dist", "double"),
    ]
    assert cand.count() == 0


def test_distance_tie_goes_to_the_rid_first_in_string_order(spark):
    # "r10" < "r2" as strings although r2 is the first row of R
    r_emb = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    s_emb = np.array([[1.0, 0.0]])
    cand = retrieve_cand(
        spark, ["r2", "r10", "r3"], ["s0"], [r_emb], [s_emb], k=2, cand_size=1
    ).collect()
    assert [(row.rid_r, row.rid_s) for row in cand] == [("r10", "s0")]


def _stages_started(spark, fn) -> int:
    """Spark stages of the jobs ``fn`` starts, from ``statusTracker``."""
    sc = spark.sparkContext
    group = f"test-ibc-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "retrieve_cand stage count")
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # the status store is fed by Spark's asynchronous listener bus
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    return sum(
        len(tracker.getJobInfo(j).stageIds) for j in tracker.getJobIdsForGroup(group)
    )


def test_retrieval_stages_do_not_grow_with_committee_size(spark):
    r_rids, s_rids, r_emb, s_emb = _toy_embs(9, n_r=40, n_s=150, d=6)
    rng = np.random.default_rng(10)
    r_m = [r_emb + 0.1 * i * rng.standard_normal(r_emb.shape) for i in range(4)]
    s_m = [s_emb] * 4

    def stages(n):
        return _stages_started(
            spark,
            lambda: retrieve_cand(spark, r_rids, s_rids, r_m[:n], s_m[:n], 3, 300).collect(),
        )

    one, four = stages(1), stages(4)
    assert one > 0
    assert four == one


def test_cand_size_rules():
    assert cand_size_for("walmart_amazon", 100) == 300
    assert cand_size_for("abt_buy", 100) == 2000
    assert cand_size_for("walmart_amazon", 100, "medium") == 300
    assert cand_size_for("abt_buy", 100, "medium") == 1000
    assert cand_size_for("walmart_amazon", 100, "large") == 500
    assert cand_size_for("abt_buy", 100, "large") == 2000
    with pytest.raises(ValueError):
        cand_size_for("x", 10, "tiny")


def test_knn_k_rules():
    assert knn_k_for("abt_buy") == 20
    assert knn_k_for("walmart_amazon") == 3
