"""Algorithm 1: the integrated active-learning loop.

``run_al(spark, ds, cfg)`` runs the full loop and returns per-round
metrics plus per-operation timings. ``_run_loop`` is the repo's only AL
loop: DIAL, the blocking baselines of §4.3 and the RF-QBC baseline
(``baselines.run_rf_qbc``) differ only in their learner and their CAND
source, and share the selector, labeler and evaluation exactly as in
the paper. The ``blocking`` field of the config picks the CAND source:

- ``dial``          — IBC committee over matcher-adapted embeddings
- ``paired_fixed``  — index the frozen pretrained embeddings (built once)
- ``paired_adapt``  — index the matcher-adapted embeddings of this round
- ``sentencebert``  — siamese head fine-tuned on T with classification
                      loss (DITTO's "advanced blocking", learned each round)
- ``rules``         — fixed hand-crafted-rules candidate set

Each round: fit the learner on T (the matcher ensemble, Eq 6) → this
round's CAND from the source (distributed k-NN for the indexed modes) →
score CAND (distributed paired-mode UDF) → evaluate → select B pairs
(excluding D_test and already-labeled) → oracle labels → augment T. No
warm start between rounds (§4.2).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.blocker import Blocker, member_embed
from repro.core.encoders import EmbeddingStore
from repro.core.evaluate import all_pairs_prf, blocker_recall, test_prf
from repro.core.ibc import cand_size_for, knn_k_for, l2_normalize, retrieve_cand
from repro.core.labeler import label_pairs
from repro.core.matcher import Matcher, pair_align_features, score_pairs
from repro.core.selectors import select
from repro.linalg.autograd import Tensor, const, param
from repro.linalg.losses import bce_with_logits
from repro.linalg.optim import AdamW

BLOCKING_MODES = ("dial", "paired_fixed", "paired_adapt", "sentencebert", "rules")


@dataclass
class ALConfig:
    """Knobs of §4.2, at reproduction scale (paper values in comments)."""

    d: int = 192  # TPLM hidden size (768)
    rounds: int = 3  # AL rounds (10)
    budget: int = 32  # labels per round B (128)
    seed_pos: int = 24  # |T_p| seed (64)
    seed_neg: int = 24  # |T_n| seed (64)
    committee_size: int = 3  # N (3)
    # masking keep-prob: the paper keeps p=0.5 of 768 dims (384 kept);
    # at d=192 the same keep-prob is far more destructive, so we scale
    # the knob to keep ~90% (173 dims) — see DESIGN.md §5
    mask_p: float = 0.9
    cand_size: str | int = "default"  # |CAND| rule (§4.2 / Table 6)
    knn_k: int | None = None  # neighbours k (3; 20 for Abt-Buy)
    selector: str = "uncertainty"
    blocker_objective: str = "contrastive"  # Table 5 ablation knob
    blocker_negatives: str = "random"  # Table 4 ablation knob
    matcher_epochs: int = 20  # (20)
    blocker_epochs: int = 40  # (200; our rank-limited heads need fewer)
    batch_size: int = 16  # (16)
    matcher_hidden: int = 64
    # variance-reduction ensemble: K differently-seeded matchers trained
    # per round, probabilities averaged. The paper averages whole runs
    # over 3 random seed sets (§4.2); at our model scale per-round
    # averaging is the equivalent stabilizer (driver-side, ~0.2s each).
    matcher_ensemble: int = 3
    blocking: str = "dial"
    seed: int = 0


@dataclass
class ALResult:
    """History of per-round metrics + final summary + last-round timings."""

    config: dict
    dataset: str
    history: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


class _SBertBlocker:
    """SentenceBERT-style blocker (§4.3): siamese encoder fine-tuned on
    the labeled pairs T with a classification loss over
    [u, v, |u-v|] — including T's hard negatives, which is exactly why
    its blocking recall disappoints (§4.4)."""

    def __init__(self, d: int, seed: int = 0):
        rng = np.random.default_rng(seed * 17 + 3)
        self.d = d
        self.B = param(np.eye(d) + (0.1 / np.sqrt(d)) * rng.standard_normal((d, d)))
        self.w = param(rng.standard_normal((3 * d, 1)) * np.sqrt(1.0 / (3 * d)))
        self.b = param(np.zeros(1))

    def fit(self, er, es, labels, *, epochs=15, batch_size=16, lr=3e-3, seed=0):
        n = len(labels)
        opt = AdamW(
            [([self.B], 3e-4), ([self.w, self.b], lr)],
            total_steps=epochs * max(1, (n + batch_size - 1) // batch_size),
        )
        rng = np.random.default_rng(seed)
        for _ in range(epochs):
            order = rng.permutation(n)
            for b0 in range(0, n, batch_size):
                idx = order[b0 : b0 + batch_size]
                u = const(er[idx]) @ self.B
                v = const(es[idx]) @ self.B
                f = Tensor.concat([u, v, (u - v).abs()], axis=1)
                logits = (f @ self.w + self.b).reshape(-1)
                loss = bce_with_logits(logits, labels[idx])
                opt.zero_grad()
                loss.backward()
                opt.step()

    def transform(self, emb: np.ndarray) -> np.ndarray:
        return emb @ self.B.data


def _seed_labeled(ds, cfg: ALConfig, rng) -> pd.DataFrame:
    """Seed T: 64+64 (scaled) pairs from the training split (§4.2)."""
    pos_pool = ds.seed_pos_pdf
    neg_pool = ds.seed_neg_pdf
    n_pos = min(cfg.seed_pos, len(pos_pool))
    pos = pos_pool.iloc[rng.permutation(len(pos_pool))[:n_pos]].assign(label=1)
    if len(neg_pool) == 0:
        # fall back to distinct random non-duplicate pairs
        dup_set = ds.dup_set
        n_free = len(ds.r_pdf) * len(ds.s_pdf) - len(dup_set)
        if n_free < cfg.seed_neg:
            raise ValueError(
                f"seed_neg={cfg.seed_neg} but only {n_free} non-duplicate pairs exist"
            )
        rows: dict[tuple, None] = {}  # insertion-ordered set
        while len(rows) < cfg.seed_neg:
            r = ds.r_pdf.rid.iloc[int(rng.integers(len(ds.r_pdf)))]
            s = ds.s_pdf.rid.iloc[int(rng.integers(len(ds.s_pdf)))]
            if (r, s) not in dup_set:
                rows[(r, s)] = None
        neg = pd.DataFrame(list(rows), columns=["rid_r", "rid_s"]).assign(label=0)
    else:
        n_neg = min(cfg.seed_neg, len(neg_pool))
        neg = neg_pool.iloc[rng.permutation(len(neg_pool))[:n_neg]].assign(label=0)
    return pd.concat(
        [pos[["rid_r", "rid_s", "label"]], neg[["rid_r", "rid_s", "label"]]],
        ignore_index=True,
    )


def _resolve_cand_size(cfg: ALConfig, ds) -> int:
    n_s = len(ds.s_pdf)
    if isinstance(cfg.cand_size, int):
        return cfg.cand_size
    if cfg.cand_size == "small":  # Table 6: 3·|DUPS|
        return 3 * len(ds.dups_pdf)
    return cand_size_for(ds.name, n_s, cfg.cand_size)


def _train_matcher(store, T: pd.DataFrame, cfg: ALConfig, rnd: int) -> list[Matcher]:
    """Fresh (no warm start, §4.2) ensemble of matchers for this round."""
    er, es = store.pair_embs(T)
    align = pair_align_features(store, T)
    y = T.label.to_numpy().astype(float)
    matchers = []
    for i in range(max(1, cfg.matcher_ensemble)):
        m = Matcher(cfg.d, hidden=cfg.matcher_hidden, seed=cfg.seed + 37 * i)
        m.fit(
            er, es, align, y,
            epochs=cfg.matcher_epochs, batch_size=cfg.batch_size,
            seed=cfg.seed * 100 + rnd + 7 * i,
        )
        matchers.append(m)
    return matchers


def _member_embeddings(
    store, matcher, T, cfg: ALConfig, rnd: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-member embedding matrices of R and S for this round's blocking
    mode. Single-member list for the non-committee baselines."""
    mode = cfg.blocking
    if mode == "paired_fixed":
        return [l2_normalize(store.r_emb)], [l2_normalize(store.s_emb)]
    z_r = matcher.transform(store.r_emb)
    z_s = matcher.transform(store.s_emb)
    if mode == "paired_adapt":
        return [l2_normalize(z_r)], [l2_normalize(z_s)]
    if mode == "sentencebert":
        sb = _SBertBlocker(cfg.d, seed=cfg.seed)
        er, es = store.pair_embs(T)
        sb.fit(
            er, es, T.label.to_numpy().astype(float),
            epochs=cfg.matcher_epochs, batch_size=cfg.batch_size,
            seed=cfg.seed * 100 + rnd,
        )
        return (
            [l2_normalize(sb.transform(store.r_emb))],
            [l2_normalize(sb.transform(store.s_emb))],
        )
    # mode == "dial": committee over frozen adapted embeddings (Eq 7/8)
    blocker = Blocker(
        cfg.d, n_members=cfg.committee_size, mask_p=cfg.mask_p,
        seed=cfg.seed * 100 + rnd,
    )
    Tp = T[T.label == 1]
    Tn = T[T.label == 0]
    neg_pairs = None
    if cfg.blocker_negatives == "labeled" and len(Tn):
        neg_pairs = tuple(matcher.transform(e) for e in store.pair_embs(Tn))
    blocker.fit(
        tuple(matcher.transform(e) for e in store.pair_embs(Tp)), z_r, z_s,
        neg_pairs=neg_pairs,
        objective=cfg.blocker_objective,
        negatives=cfg.blocker_negatives,
        epochs=cfg.blocker_epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed * 100 + rnd,
    )
    members = blocker.member_params()
    return (
        [member_embed(p, z_r) for p in members],
        [member_embed(p, z_s) for p in members],
    )


class CandSource:
    """Each round's CAND. ``embed(T, rnd)`` (timed as ``train_committee``;
    none for a given candidate set) feeds ``retrieve``, whose DataFrame
    is cached and counted under the ``index_retrieval`` timer. A fixed
    source builds once and returns that CAND every later round; an
    adaptive one drops last round's CAND when it builds the next.
    ``close()`` unpersists only what the source cached itself.
    """

    def __init__(self, retrieve, embed=None, *, fixed: bool):
        self._retrieve, self._embed, self._fixed = retrieve, embed, fixed
        self._cand: DataFrame | None = None  # the fixed CAND, once built
        self._owned: list[DataFrame] = []

    def __call__(self, T: pd.DataFrame, rnd: int, times: dict) -> DataFrame:
        if self._cand is not None:
            times["train_committee"] = times["index_retrieval"] = 0.0
            return self._cand
        self.close()
        t0 = time.perf_counter()
        embedded = self._embed(T, rnd) if self._embed else None
        times["train_committee"] = time.perf_counter() - t0 if self._embed else 0.0
        t0 = time.perf_counter()
        cand = self._retrieve(embedded)
        if not cand.is_cached:
            cand = cand.cache()
            self._owned.append(cand)
        cand.count()  # materialize under the retrieval timer
        times["index_retrieval"] = time.perf_counter() - t0
        if self._fixed:
            self._cand = cand
        return cand

    def close(self) -> None:
        for df in self._owned:
            df.unpersist()
        self._owned.clear()


def given_cand(cand: DataFrame) -> CandSource:
    """A fixed, precomputed candidate set (the Rules CAND)."""
    return CandSource(lambda _: cand, fixed=True)


class _MatcherLearner:
    """DIAL's learner: a fresh matcher ensemble each round (Eq 6) whose
    averaged probability scores pairs in a distributed UDF; selection by
    ``cfg.selector`` over CAND joined with its scores."""

    def __init__(self, spark: SparkSession, store: EmbeddingStore, cfg: ALConfig):
        self.spark, self.store, self.cfg = spark, store, cfg

    def fit(self, T: pd.DataFrame, rnd: int) -> None:
        self.matchers = _train_matcher(self.store, T, self.cfg, rnd)
        self.params = [m.params() for m in self.matchers]

    def score(self, pairs: DataFrame) -> DataFrame:
        return score_pairs(self.spark, pairs, self.store, self.params, average=True)

    def frame(self, cand: DataFrame, scored: DataFrame) -> pd.DataFrame:
        return cand.join(scored, ["rid_r", "rid_s"], "inner").toPandas()

    def select(self, selectable: pd.DataFrame, T, cand: DataFrame, rng) -> pd.DataFrame:
        cfg = self.cfg
        return select(
            cfg.selector, selectable, cfg.budget, rng,
            spark=self.spark, store=self.store, cand_df=cand,
            labeled=T, matcher_params=self.params[0],
            matcher_kwargs=dict(epochs=max(5, cfg.matcher_epochs // 2), batch_size=cfg.batch_size),
        )


def _run_loop(ds, cfg: ALConfig, learner, source: CandSource) -> ALResult:
    """The AL loop shared by every method; ``learner`` provides
    ``fit(T, rnd)``, ``score(pairs) → DataFrame(rid_r, rid_s, prob, …)``,
    ``frame(cand, scored) → pandas`` (the pairs to select from) and
    ``select(selectable, T, cand, rng)``."""
    rng = np.random.default_rng(cfg.seed * 7 + 13)
    dup_set = ds.dup_set
    test_keys = set(zip(ds.test_pdf.rid_r, ds.test_pdf.rid_s))
    T = _seed_labeled(ds, cfg, rng)
    result = ALResult(config=asdict(cfg), dataset=ds.name)

    try:
        for rnd in range(cfg.rounds):
            times: dict[str, float] = {}

            t0 = time.perf_counter()
            learner.fit(T, rnd)
            times["train_matcher"] = time.perf_counter() - t0

            cand = source(T, rnd, times)  # blocker + retrieval

            # distributed scoring of CAND (the "matching" half of RT)
            t0 = time.perf_counter()
            scored = learner.score(cand).cache()
            scored.count()
            times["match_cand"] = time.perf_counter() - t0

            # evaluation (§4.1)
            quality = {
                "cand_recall": blocker_recall(cand, ds.dups),
                "all_pairs": all_pairs_prf(scored, ds.dups),
                "test": test_prf(ds.test, cand, learner.score(ds.test), threshold=0.5),
            }

            # selection
            t0 = time.perf_counter()
            pool = learner.frame(cand, scored)
            labeled_keys = set(zip(T.rid_r, T.rid_s))
            mask = [
                (r, s) not in test_keys and (r, s) not in labeled_keys
                for r, s in zip(pool.rid_r, pool.rid_s)
            ]
            chosen = learner.select(pool[mask].reset_index(drop=True), T, cand, rng)
            times["selection"] = time.perf_counter() - t0

            T = pd.concat([T, label_pairs(chosen, dup_set)], ignore_index=True)
            T = T.drop_duplicates(["rid_r", "rid_s"], keep="first")
            n_labeled = int(len(T))
            result.history.append({"round": rnd, "n_labeled": n_labeled, **quality,
                                   "cand_size": int(len(pool)), "times": times})
            result.timings = times
            # RT of Table 2/10: blocking + matching time for the final verdict
            rt = times["index_retrieval"] + times["match_cand"]
            result.final = {**quality, "rt_seconds": rt, "n_labeled": n_labeled}
            scored.unpersist()
    finally:
        source.close()
    return result


def run_al(
    spark: SparkSession,
    ds,
    cfg: ALConfig,
    *,
    store: EmbeddingStore | None = None,
    rules_cand: DataFrame | None = None,
) -> ALResult:
    """Run the AL loop; see module docstring. ``store`` and (for
    ``blocking='rules'``) ``rules_cand`` can be passed in to share work
    across the many configurations the tables sweep."""
    assert cfg.blocking in BLOCKING_MODES, cfg.blocking
    if store is None:
        store = EmbeddingStore(spark, ds, cfg.d)
    learner = _MatcherLearner(spark, store, cfg)
    if cfg.blocking == "rules":
        assert rules_cand is not None, "rules blocking needs a rules_cand DataFrame"
        source = given_cand(rules_cand)
    else:
        cand_size = _resolve_cand_size(cfg, ds)
        k = cfg.knn_k if cfg.knn_k is not None else knn_k_for(ds.name)
        source = CandSource(
            lambda members: retrieve_cand(
                spark, store.r_rids, store.s_rids, *members, k, cand_size),
            embed=lambda T, rnd: _member_embeddings(store, learner.matchers[0], T, cfg, rnd),
            fixed=cfg.blocking == "paired_fixed",
        )
    return _run_loop(ds, cfg, learner, source)
