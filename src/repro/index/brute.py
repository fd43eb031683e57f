"""Exact k-NN kernel: squared-L2 top-k of each query row, in numpy.

``repro.core.ibc.retrieve_cand`` runs it inside one Spark job over
partitioned queries for every committee member, against broadcast index
matrices. Exactness makes the DuckDB/numpy oracle checks in tests strict.
"""
from __future__ import annotations

import numpy as np


def _sq_dists(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(n_q, n_x) squared L2 distances."""
    q2 = (Q * Q).sum(axis=1)[:, None]
    x2 = (X * X).sum(axis=1)[None, :]
    d = q2 + x2 - 2.0 * (Q @ X.T)
    np.maximum(d, 0.0, out=d)
    return d


def knn_numpy(Q: np.ndarray, X: np.ndarray, k: int):
    """Exact top-k of each row of Q among the rows of X: returns
    (idx (n_q,k), dist (n_q,k)), nearest first."""
    k = min(k, X.shape[0])
    d = _sq_dists(Q, X)
    idx = np.argpartition(d, k - 1, axis=1)[:, :k]
    dd = np.take_along_axis(d, idx, axis=1)
    order = np.argsort(dd, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(dd, order, axis=1)
