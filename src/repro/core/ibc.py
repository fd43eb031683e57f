"""Index-By-Committee retrieval (Algorithm 1, lines 9-25).

For each committee member: index the member embeddings of all r in R,
probe with every s in S for its k nearest neighbours (exact k-NN,
``repro.index.brute.knn_numpy``). One Spark job probes all members:
query positions are partitioned, the members' R and S matrices ride one
broadcast. Its N·k·|S| rows (small, growing with |S|, not |R|·|S|) are
merged on the driver: the union of retrieved pairs RP is deduplicated
keeping the minimum rank and distance, and the closest |CAND| pairs
form the candidate set, returned as a Spark DataFrame.

The same routine serves the single-embedding baselines (PairedFixed,
PairedAdapt, SentenceBERT) with a one-member "committee".
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.index.brute import knn_numpy


def l2_normalize(m: np.ndarray) -> np.ndarray:
    """Row-normalize so L2 k-NN is cosine retrieval (used for every
    blocking method so comparisons isolate the *embeddings*, not the
    metric)."""
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def retrieve_cand(
    spark: SparkSession,
    r_rids: list[str],
    s_rids: list[str],
    r_embs_by_member: list[np.ndarray],
    s_embs_by_member: list[np.ndarray],
    k: int,
    cand_size: int,
) -> DataFrame:
    """→ DataFrame(rid_r, rid_s, dist): the |CAND| closest retrieved pairs.

    ``*_embs_by_member[m]`` is the (n, d) member-m embedding matrix in
    rid order. S records are the queries, R is indexed — matching the
    paper's "create index on R, probe with each s in S". ``dist`` is
    squared L2 (the paper retrieves by L2, §4.2).
    """
    assert len(r_embs_by_member) == len(s_embs_by_member) >= 1
    n_s = len(s_rids)
    b = spark.sparkContext.broadcast(
        (np.stack(r_embs_by_member), np.stack(s_embs_by_member), int(k))
    )

    def probe(batches):
        R, S, kk = b.value
        for pdf in batches:
            qpos = pdf["id"].to_numpy()
            for m in range(len(R)):
                # column-major queries: their squared norms are summed in
                # the order the .bench_cache/ results were computed with,
                # so near-tied distances keep that order and CAND matches
                idx, dist = knn_numpy(np.asfortranarray(S[m, qpos]), R[m], kk)
                yield pd.DataFrame(
                    {
                        "member": m,
                        "qpos": np.repeat(qpos, idx.shape[1]),
                        "ipos": idx.ravel(),
                        "dist": dist.ravel(),
                    }
                )

    n_part = max(2, min(16, n_s // 64 or 2))
    try:
        rp = spark.range(0, n_s, 1, n_part).mapInPandas(
            probe, "member long, qpos long, ipos long, dist double"
        ).toPandas()
    finally:
        b.destroy()
    rp["rid_s"] = np.asarray(s_rids, dtype=object)[rp.qpos.to_numpy()]
    rp["rid_r"] = np.asarray(r_rids, dtype=object)[rp.ipos.to_numpy()]
    # rank each member's retrieved pairs by its own distances so the
    # merge across members is scale-free: each member's best pairs get
    # an equal claim on the candidate budget ("closest pairs from RP",
    # robust to members with different distance scales). Python string
    # order is code-point order, the same as Spark's UTF-8 byte order.
    rp = rp.sort_values(["member", "dist", "rid_s", "rid_r"])
    rp["rank"] = rp.groupby("member").cumcount()
    cand = (
        rp.groupby(["rid_s", "rid_r"], as_index=False)
        .agg(rank=("rank", "min"), dist=("dist", "min"))
        .sort_values(["rank", "dist", "rid_s", "rid_r"])
        .head(int(cand_size))
    )
    return spark.createDataFrame(
        cand[["rid_r", "rid_s", "dist"]], "rid_r string, rid_s string, dist double"
    )


def cand_size_for(ds_name: str, n_s: int, size: str = "default") -> int:
    """The paper's candidate-set sizing rules (§4.2, Table 6).

    Abt-Buy's S list is tiny so it uses 20·|S| by default (k=20); other
    datasets use 3·|S| (k=3). Table 6's sweep: small = 3·|DUPS| (handled
    by the caller, needs |DUPS|), medium = 3·|S| (10·|S| for Abt-Buy),
    large = 5·|S| (20·|S| for Abt-Buy).
    """
    abt = ds_name == "abt_buy"
    if size == "default":
        return (20 if abt else 3) * n_s
    if size == "medium":
        return (10 if abt else 3) * n_s
    if size == "large":
        return (20 if abt else 5) * n_s
    raise ValueError(size)


def knn_k_for(ds_name: str) -> int:
    return 20 if ds_name == "abt_buy" else 3
