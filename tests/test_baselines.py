"""Non-TPLM baseline: Random Forest + QBC over the Rules candidates."""
import pytest

from repro.core.baselines import score_forest
from repro.forest.features import PairFeaturizer
from repro.forest.forest import RandomForest


def test_rf_loop_runs(runner):
    res = runner.rf_result("walmart_amazon")
    assert len(res["history"]) == runner.base_cfg["rounds"]
    f = res["final"]
    assert 0 <= f["all_pairs"]["f1"] <= 100
    assert f["rt_seconds"] > 0


def test_rf_labels_grow(runner):
    res = runner.rf_result("walmart_amazon")
    ns = [h["n_labeled"] for h in res["history"]]
    assert ns[-1] > ns[0]


def test_rf_learns_something(runner):
    """On the (clean) citation data the forest should be strong."""
    res = runner.rf_result("dblp_acm")
    assert res["final"]["all_pairs"]["f1"] > 50


def test_score_forest_distributed_matches_driver(spark, runner, wa, wa_store):
    feat = PairFeaturizer(
        wa.r_pdf, wa.s_pdf, wa_store.r_emb, wa_store.s_emb,
        wa_store.r_index, wa_store.s_index,
    )
    import pandas as pd

    T = pd.concat(
        [wa.seed_pos_pdf.head(8).assign(label=1), wa.seed_neg_pdf.head(8).assign(label=0)],
        ignore_index=True,
    )
    forest = RandomForest(n_trees=5, seed=0).fit(feat(T), T.label.to_numpy())
    pairs = pd.concat([wa.dups_pdf.head(10), wa.seed_neg_pdf.iloc[8:18]], ignore_index=True)
    got = (
        score_forest(spark, spark.createDataFrame(pairs), feat, forest.trees)
        .toPandas()
        .set_index(["rid_r", "rid_s"])
    )
    import numpy as np

    X = feat(pairs)
    want_p = forest.predict_proba(X)
    want_v = forest.vote_variance(X)
    for j, (r, s) in enumerate(zip(pairs.rid_r, pairs.rid_s)):
        np.testing.assert_allclose(got.prob.loc[(r, s)], want_p[j], atol=1e-9)
        np.testing.assert_allclose(got.variance.loc[(r, s)], want_v[j], atol=1e-9)


def test_rf_qbc_keeps_the_callers_rules_cand_cached(spark, runner, wa, wa_store):
    """The Rules CAND that Runner caches and shares with ``rules`` runs
    must stay cached after an RF-QBC run over it."""
    from repro.core.baselines import run_rf_qbc

    rc = runner.rules("walmart_amazon")
    res = run_rf_qbc(spark, wa, runner.config("walmart_amazon", rounds=1), rc, store=wa_store)
    assert rc.is_cached
    assert res.history[0]["cand_size"] == rc.count()
