"""Workloads and metric definitions of the DIAL benchmark.

Sizes start from ``BENCH_CFG`` (seed set, budget) with two rounds, and
use smaller dataset scales than ``BENCH_SCALES`` so that every run of
the benchmark fits its time budget: a Spark stage costs tens of
milliseconds whatever the data size, and one AL round runs a few
hundred of them. Bounds are wide because a run is a fresh JVM whose
timings move by several per cent from run to run; ``setup_s`` has the
widest.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    loop: str  # "al" → run_al with the DIAL defaults, "rf_qbc" → run_rf_qbc
    why: str
    # traced layers this workload must never call
    bypasses: tuple[str, ...] = ()

    @property
    def uses_rules(self) -> bool:
        return self.loop == "rf_qbc"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wa_dial",
            dataset="walmart_amazon",
            scale=0.02,
            loop="al",
            why=(
                "Walmart-Amazon |R|=255 |S|=441 |DUPS|=23 |CAND|=1323, N=3 k=3, 2 rounds "
                "of B=32: DIAL defaults on the hardest dataset; retrieval and CAND "
                "scoring dominate"
            ),
            bypasses=("forest.fit", "baselines.score_forest"),
        ),
        Workload(
            name="ab_rf_qbc",
            dataset="abt_buy",
            scale=0.06,
            loop="rf_qbc",
            why=(
                "Abt-Buy |R|=324 |S|=66 |DUPS|=66, Rules |CAND| 250-600 by seed, 20-tree "
                "RF-QBC, 2 rounds of B=32: sole user of forest and score_forest; no "
                "retrieval or matcher"
            ),
            bypasses=("ibc.retrieve_cand", "blocker.fit", "matcher.score_pairs",
                      "matcher.fit"),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only
    moves: str = ""  # which end-to-end metric, on which workload


END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25,
           "Spark session start, dataset generation, base encoding and the Rules "
           "CAND where used; median of the set-ups in one run"),
    Metric("al_run_s", "s", "lower", 0.24, "one cold run_al / run_rf_qbc call, all rounds"),
    Metric("driver_peak_rss_mb", "MB", "lower", 0.1,
           "peak RSS of the driver Python process over set-up and runs"),
    Metric("cand_recall", "%", "higher", 0.24, "|CAND ∩ DUPS| / |DUPS| after the final round"),
]

_S, _AL = "setup_s on every workload", "al_run_s"
PER_LAYER = [
    Metric("data.make_dataset.wall_s", "s", "lower", moves=_S),
    Metric("data.records", "count", "higher", moves=_S),
    Metric("encoders.store.wall_s", "s", "lower", moves=_S),
    Metric("encoders.records_per_s", "1/s", "higher", moves=_S),
    Metric("kernel.encode_batch.wall_s", "s", "lower", moves=_S),
    Metric("simjoin.rules_cand.wall_s", "s", "lower", moves="setup_s on ab_rf_qbc; 0 on wa_dial"),
    Metric("simjoin.rules_cand.rows_out", "count", "higher", moves="setup_s on ab_rf_qbc"),
    Metric("simjoin.rules_cand.spark_stages", "count", "lower", moves="setup_s on ab_rf_qbc"),
    Metric("matcher.fit.calls", "count", "lower", moves=f"{_AL} on wa_dial; 0 on ab_rf_qbc"),
    Metric("matcher.fit.wall_s", "s", "lower", moves=f"{_AL} on wa_dial; 0 on ab_rf_qbc"),
    Metric("matcher.train_features.wall_s", "s", "lower", moves=f"{_AL} on wa_dial"),
    Metric("matcher.score_pairs.calls", "count", "lower", moves=f"{_AL} on wa_dial; 0 on ab_rf_qbc"),
    Metric("matcher.score_pairs.wall_s", "s", "lower", moves=f"{_AL} on wa_dial; 0 on ab_rf_qbc"),
    Metric("matcher.score_pairs.pairs", "count", "lower", moves=f"{_AL} on wa_dial"),
    Metric("matcher.score_pairs.pairs_per_s", "1/s", "higher", moves=f"{_AL} on wa_dial"),
    Metric("matcher.score_pairs.spark_jobs", "count", "lower", moves=f"{_AL} on wa_dial"),
    Metric("matcher.score_pairs.spark_stages", "count", "lower", moves=f"{_AL} on wa_dial"),
    Metric("kernel.align_features.wall_s", "s", "lower", moves=f"{_AL} on wa_dial"),
    Metric("kernel.predict.wall_s", "s", "lower", moves=f"{_AL} on wa_dial"),
    Metric("matcher.score_pairs.kernel_share", "ratio", "higher", moves=f"{_AL} on wa_dial"),
    Metric("blocker.fit.calls", "count", "lower", moves=f"{_AL} on wa_dial; 0 on ab_rf_qbc"),
    Metric("blocker.fit.wall_s", "s", "lower", moves=f"{_AL} on wa_dial; 0 on ab_rf_qbc"),
    Metric("blocker.fit.members", "count", "lower", moves=f"{_AL} on wa_dial"),
    Metric("ibc.retrieve_cand.calls", "count", "lower", moves=f"{_AL} on wa_dial; 0 on ab_rf_qbc"),
    Metric("ibc.retrieve_cand.wall_s", "s", "lower", moves=f"{_AL} on wa_dial; 0 on ab_rf_qbc"),
    Metric("ibc.retrieve_cand.rows_out", "count", "lower", moves=f"{_AL} on wa_dial"),
    Metric("ibc.retrieve_cand.spark_jobs", "count", "lower", moves=f"{_AL} on wa_dial"),
    Metric("ibc.retrieve_cand.spark_stages", "count", "lower", moves=f"{_AL} on wa_dial"),
    Metric("kernel.knn_numpy.wall_s", "s", "lower", moves=f"{_AL} on wa_dial"),
    Metric("ibc.kernel_share", "ratio", "higher", moves=f"{_AL} on wa_dial"),
    Metric("ibc.cand_overlap_prev", "ratio", "higher", moves=f"{_AL} on wa_dial (a CAND memo)"),
    Metric("evaluate.calls", "count", "lower", moves=f"{_AL} on every workload"),
    Metric("evaluate.wall_s", "s", "lower", moves=f"{_AL} on every workload"),
    Metric("evaluate.spark_jobs", "count", "lower", moves=f"{_AL} on every workload"),
    # The two F1 scores are end-to-end quality, deterministic at a fixed seed,
    # but their spread across seeds (up to 0.6 of the median for RF-QBC's
    # all-pairs F1 at this scale) is wider than any end-to-end bound allows.
    Metric("evaluate.all_pairs_f1", "%", "higher", moves="changes only with the arithmetic"),
    Metric("evaluate.test_f1", "%", "higher", moves="changes only with the arithmetic"),
    Metric("selectors.select.wall_s", "s", "lower", moves=f"{_AL} on wa_dial"),
    Metric("forest.fit.wall_s", "s", "lower", moves=f"{_AL} on ab_rf_qbc; 0 on wa_dial"),
    Metric("baselines.score_forest.wall_s", "s", "lower", moves=f"{_AL} on ab_rf_qbc; 0 on wa_dial"),
    Metric("baselines.score_forest.pairs", "count", "lower", moves=f"{_AL} on ab_rf_qbc"),
    Metric("dial.loop.wall_s", "s", "lower", moves=f"{_AL} on every workload (traced)"),
    Metric("dial.loop.self_s", "s", "lower", moves=f"{_AL} on every workload"),
    Metric("dial.spark_jobs_per_round", "count", "lower", moves=f"{_AL} on every workload"),
    Metric("dial.spark_stages_per_round", "count", "lower", moves=f"{_AL} on every workload"),
    Metric("dial.tracing_overhead_s", "s", "lower", moves="none: traced minus untraced al_run_s"),
    Metric("perfbench.capture.wall_s", "s", "lower", moves="none: tracer bookkeeping inside the traced run"),
]
