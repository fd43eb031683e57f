"""Traced calls into the repo's layers, from the benchmark's own files.

``traced_layers(tracer)`` patches each layer's public function where it
is called (``repro.core.dial.score_pairs``, not only the module that
defines it) with a wrapper that records a span. Lazy results
(``retrieve_cand``, ``score_pairs``, ``score_forest``) are cached and
counted inside their span so the work is timed in its own layer; the
loop's own ``.cache().count()`` then hits that cache.

Kernels that run inside ``mapInPandas`` cannot be wrapped (Spark ships
the closures to Python workers, which import the unpatched modules), so
the ``replay_*`` functions re-run each public kernel on the driver over
the inputs captured from the traced calls, split into as many chunks as
the call had partitions.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

import repro.core.baselines as baselines
import repro.core.blocker as blocker
import repro.core.dial as dial
import repro.core.matcher as matcher
import repro.core.selectors as selectors
import repro.forest.forest as forest
from repro.index.brute import knn_numpy
from repro.text.features import HashedLM, alignment_features_batch

from knn_oracle import oracle_cand

CAPTURE = "perfbench.capture"


class Capture:
    """Inputs and outputs kept from the traced calls, for kernel replay,
    the retrieval oracle and the output checks."""

    def __init__(self):
        self.retrievals: list[dict] = []  # args + the Spark CAND as a set
        self.scorings: list[dict] = []  # pairs, params, probs
        self.forest: list[dict] = []  # pairs DataFrame, rows scored, probs
        self.cached = []  # DataFrames cached by the wrappers

    def release(self) -> None:
        for df in self.cached:
            df.unpersist()
        self.cached.clear()


def _cached_count(df, cap: Capture):
    df = df.cache()
    cap.cached.append(df)
    return df, df.count()


@contextmanager
def _patched(targets):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, fn in targets:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


@contextmanager
def traced_layers(tracer, cap: Capture):
    """Patch every call site of the traced layers for the duration."""
    orig_retrieve = dial.retrieve_cand
    orig_score = matcher.score_pairs
    orig_align = matcher.pair_align_features
    orig_select = dial.select
    orig_forest = baselines.score_forest
    orig_matcher_fit = matcher.Matcher.fit
    orig_blocker_fit = blocker.Blocker.fit
    orig_forest_fit = forest.RandomForest.fit

    def retrieve_cand(spark, r_rids, s_rids, r_members, s_members, k, cand_size):
        with tracer.span("ibc.retrieve_cand", rows_in=len(s_rids) * len(s_members)) as s:
            df = orig_retrieve(spark, r_rids, s_rids, r_members, s_members, k, cand_size)
            df, s.counts["rows_out"] = _cached_count(df, cap)
        with tracer.span(CAPTURE):
            pdf = df.select("rid_r", "rid_s").toPandas()
        cap.retrievals.append(
            dict(r_rids=list(r_rids), s_rids=list(s_rids), r_members=r_members,
                 s_members=s_members, k=int(k), cand_size=int(cand_size),
                 cand=set(zip(pdf.rid_r, pdf.rid_s)))
        )
        return df

    def score_pairs(spark, pairs, store, params_list, out_cols=None, average=False):
        with tracer.span("matcher.score_pairs") as s:
            df = orig_score(spark, pairs, store, params_list, out_cols, average)
            df, s.counts["rows_out"] = _cached_count(df, cap)
        with tracer.span(CAPTURE):
            pdf = df.toPandas()
        prob_cols = [c for c in pdf.columns if c.startswith("prob")]
        cap.scorings.append(
            dict(store=store, params=params_list, average=average,
                 rid_r=pdf.rid_r.tolist(), rid_s=pdf.rid_s.tolist(),
                 probs=pdf[prob_cols].to_numpy())
        )
        return df

    def pair_align_features(store, pairs, lm=None):
        with tracer.span("matcher.train_features", rows_in=len(pairs)):
            return orig_align(store, pairs, lm)

    def select(name, cand, budget, rng, **ctx):
        with tracer.span("selectors.select", rows_in=len(cand)) as s:
            out = orig_select(name, cand, budget, rng, **ctx)
            s.counts["rows_out"] = len(out)
            return out

    def score_forest(spark, pairs, featurizer, trees):
        with tracer.span("baselines.score_forest") as s:
            df = orig_forest(spark, pairs, featurizer, trees)
            df, s.counts["rows_out"] = _cached_count(df, cap)
        with tracer.span(CAPTURE):
            probs = df.select("prob").toPandas().prob.to_numpy()
        cap.forest.append(dict(pairs=pairs, rows=s.counts["rows_out"], probs=probs))
        return df

    def evaluation(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("evaluate"):
                return fn(*args, **kwargs)
        return wrapper

    def matcher_fit(self, er, es, align, labels, **kwargs):
        with tracer.span("matcher.fit", rows_in=len(labels)):
            return orig_matcher_fit(self, er, es, align, labels, **kwargs)

    def blocker_fit(self, pos_pairs, z_r_pool, z_s_pool, **kwargs):
        with tracer.span("blocker.fit", rows_in=len(pos_pairs[0]), members=self.n_members):
            return orig_blocker_fit(self, pos_pairs, z_r_pool, z_s_pool, **kwargs)

    def forest_fit(self, X, y):
        with tracer.span("forest.fit", rows_in=len(y)):
            return orig_forest_fit(self, X, y)

    targets = [
        (dial, "retrieve_cand", retrieve_cand),
        (dial, "score_pairs", score_pairs),
        (selectors, "score_pairs", score_pairs),
        (dial, "pair_align_features", pair_align_features),
        (selectors, "pair_align_features", pair_align_features),
        (matcher, "pair_align_features", pair_align_features),
        (dial, "select", select),
        (baselines, "score_forest", score_forest),
        (matcher.Matcher, "fit", matcher_fit),
        (blocker.Blocker, "fit", blocker_fit),
        (forest.RandomForest, "fit", forest_fit),
    ]
    for mod in (dial, baselines):
        for fn in ("blocker_recall", "all_pairs_prf", "test_prf"):
            targets.append((mod, fn, evaluation(getattr(mod, fn))))
    with _patched(targets):
        yield


def _chunks(n: int, n_part: int) -> list[np.ndarray]:
    return [c for c in np.array_split(np.arange(n), max(1, n_part)) if len(c)]


def replay_encode(ds, d: int) -> float:
    """Driver re-run of ``HashedLM.encode_batch`` as ``encode_records``
    runs it: one fresh encoder per partition of R and of S."""
    total = 0.0
    for sdf, pdf in ((ds.R, ds.r_pdf), (ds.S, ds.s_pdf)):
        texts = pdf.text.tolist()
        for idx in _chunks(len(texts), sdf.rdd.getNumPartitions()):
            t0 = time.perf_counter()
            HashedLM(d).encode_batch([texts[i] for i in idx])
            total += time.perf_counter() - t0
    return total


def replay_scoring(cap: Capture) -> tuple[float, float]:
    """→ (alignment-feature seconds, prediction seconds) of every traced
    ``score_pairs`` call, re-run on the driver with ``score_pairs``'s
    partition count and one fresh ``HashedLM`` per partition."""
    t_align = t_pred = 0.0
    for call in cap.scorings:
        store, n = call["store"], len(call["rid_r"])
        for idx in _chunks(n, max(2, min(16, n // 256 or 2))):
            rr = [call["rid_r"][i] for i in idx]
            ss = [call["rid_s"][i] for i in idx]
            er = store.r_emb[[store.r_index[r] for r in rr]]
            es = store.s_emb[[store.s_index[s] for s in ss]]
            t0 = time.perf_counter()
            align = alignment_features_batch(
                HashedLM(store.d), [store.r_texts[r] for r in rr],
                [store.s_texts[s] for s in ss],
            )
            t1 = time.perf_counter()
            for p in call["params"]:
                matcher.predict_from_params(p, er, es, align)
            t_align += t1 - t0
            t_pred += time.perf_counter() - t1
    return t_align, t_pred


def replay_knn(cap: Capture) -> float:
    """Driver re-run of ``knn_numpy`` as ``knn_join`` runs it for every
    traced retrieval: per member, per query partition."""
    total = 0.0
    for call in cap.retrievals:
        n_q = len(call["s_rids"])
        for r_emb, s_emb in zip(call["r_members"], call["s_members"]):
            for idx in _chunks(n_q, max(2, min(16, n_q // 64 or 2))):
                t0 = time.perf_counter()
                knn_numpy(s_emb[idx], r_emb, call["k"])
                total += time.perf_counter() - t0
    return total


def check_retrieval_oracle(cap: Capture) -> str | None:
    """Set equality of the last traced CAND with the numpy oracle's."""
    if not cap.retrievals:
        return None
    c = cap.retrievals[-1]
    want = oracle_cand(c["r_rids"], c["s_rids"], c["r_members"], c["s_members"],
                       c["k"], c["cand_size"])
    if want != c["cand"]:
        return (f"retrieval oracle mismatch: {len(c['cand'] - want)} pairs only in "
                f"Spark CAND, {len(want - c['cand'])} only in the oracle's")
    return None


def cand_overlap_prev(cap: Capture) -> float:
    """Mean share of round r's CAND already in round r-1's (0 if < 2 rounds)."""
    sets = [c["cand"] for c in cap.retrievals]
    shares = [len(b & a) / len(b) for a, b in zip(sets, sets[1:]) if b]
    return float(np.mean(shares)) if shares else 0.0


def probs_out_of_range(cap: Capture) -> int:
    """Number of scored probabilities outside [0, 1] (NaN counts)."""
    arrays = [c["probs"].ravel() for c in cap.scorings + cap.forest]
    return int(sum(np.count_nonzero(~((a >= 0.0) & (a <= 1.0))) for a in arrays))
