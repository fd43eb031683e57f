"""Non-TPLM baseline: Random Forest + learner-aware QBC (§4.3).

``run_rf_qbc`` runs the shared AL loop (``dial._run_loop``) with a
forest learner on the fixed Rules candidate set: each round trains a
bootstrap-bagged forest on the labeled pairs, scores every candidate
pair with all trees in a distributed ``mapInPandas`` (featurizer + tree
arrays broadcast — committee scoring as a UDF over partitioned pairs),
and queries the B pairs with the highest bootstrap vote variance
(Mozafari et al.). Final verdict: forest probability > 0.5 on CAND.
The TPLM-style blocking baselines (PairedFixed, PairedAdapt,
SentenceBERT, Rules) are CAND sources of ``dial.run_al``.
"""
from __future__ import annotations

from dataclasses import replace

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.core.dial import ALConfig, ALResult, _run_loop, given_cand
from repro.core.encoders import EmbeddingStore
# Unused here since the loop moved to dial.py; kept as module attributes
# because callers that trace this module's evaluation calls patch them.
from repro.core.evaluate import all_pairs_prf, blocker_recall, test_prf  # noqa: F401
from repro.forest.features import PairFeaturizer
from repro.forest.forest import RandomForest, forest_proba, forest_vote_variance

N_TREES = 20  # forest size of the QBC committee

_SCHEMA = T.StructType(
    [
        T.StructField("rid_r", T.StringType()),
        T.StructField("rid_s", T.StringType()),
        T.StructField("prob", T.DoubleType()),
        T.StructField("variance", T.DoubleType()),
    ]
)


def score_forest(
    spark: SparkSession, pairs: DataFrame, featurizer: PairFeaturizer, trees: list[dict]
) -> DataFrame:
    """Distributed forest scoring: prob + QBC vote variance per pair."""
    b = spark.sparkContext.broadcast((featurizer, trees))

    def part(batches):
        feat, trs = b.value
        for pdf in batches:
            if len(pdf) == 0:
                continue
            X = feat(pdf)
            yield pd.DataFrame(
                {
                    "rid_r": pdf.rid_r.values,
                    "rid_s": pdf.rid_s.values,
                    "prob": forest_proba(trs, X),
                    "variance": forest_vote_variance(trs, X),
                }
            )

    n_part = max(2, min(16, pairs.count() // 512 or 2))
    return pairs.select("rid_r", "rid_s").repartition(n_part).mapInPandas(part, _SCHEMA)


class _ForestLearner:
    """RF-QBC's learner: a fresh forest each round, scored distributed;
    selection by vote variance over the scored pairs themselves (a stable
    sort, so the scored frame's row order breaks ties)."""

    def __init__(self, spark: SparkSession, ds, store: EmbeddingStore, cfg: ALConfig):
        self.spark, self.cfg = spark, cfg
        self.featurizer = PairFeaturizer(
            ds.r_pdf, ds.s_pdf, store.r_emb, store.s_emb, store.r_index, store.s_index
        )

    def fit(self, T_lab: pd.DataFrame, rnd: int) -> None:
        forest = RandomForest(n_trees=N_TREES, seed=self.cfg.seed * 100 + rnd)
        self.trees = forest.fit(self.featurizer(T_lab), T_lab.label.to_numpy()).trees

    def score(self, pairs: DataFrame) -> DataFrame:
        return score_forest(self.spark, pairs, self.featurizer, self.trees)

    def frame(self, cand: DataFrame, scored: DataFrame) -> pd.DataFrame:
        return scored.toPandas()

    def select(self, selectable: pd.DataFrame, T_lab, cand, rng) -> pd.DataFrame:
        return selectable.sort_values("variance", ascending=False, kind="stable").head(
            self.cfg.budget
        )


def run_rf_qbc(
    spark: SparkSession,
    ds,
    cfg: ALConfig,
    rules_cand_df: DataFrame,
    *,
    store: EmbeddingStore | None = None,
) -> ALResult:
    """Random-Forest AL with QBC selection on the Rules candidate set."""
    if store is None:
        store = EmbeddingStore(spark, ds, cfg.d)
    learner = _ForestLearner(spark, ds, store, cfg)
    return _run_loop(ds, replace(cfg, blocking="rf_qbc"), learner, given_cand(rules_cand_df))
