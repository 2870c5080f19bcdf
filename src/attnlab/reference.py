"""Slow plain-loop evaluator of the masked attention layer.

Written against the layer's defining equations with scalar arithmetic
and explicit neighbor loops, sharing no code with the vectorized
implementation. Used to cross-check that implementation from an
independent path; keep it boring.
"""

from __future__ import annotations

import math

import numpy as np


def loop_graph_attention(H, adjacency, proj, attn_vec, leaky_slope: float):
    """Returns (updated_states, attention_matrix) as plain float64 arrays.

    The inputs are read as nested lists of Python floats, whose arithmetic
    is the same IEEE double arithmetic as numpy's float64 scalars, only
    without a numpy call per element.
    """
    H, adjacency, proj, attn_vec = (
        np.asarray(a, dtype=np.float64) for a in (H, adjacency, proj, attn_vec)
    )
    n, d_in = H.shape
    d_out = proj.shape[1]
    H, adjacency, proj, attn_vec = (a.tolist() for a in (H, adjacency, proj, attn_vec))

    g = [[0.0] * d_out for _ in range(n)]
    for i in range(n):
        for j in range(d_out):
            acc = 0.0
            for k in range(d_in):
                acc += H[i][k] * proj[k][j]
            g[i][j] = acc

    def score(i, j):
        acc = 0.0
        for k in range(d_out):
            acc += attn_vec[k] * g[i][k]
        for k in range(d_out):
            acc += attn_vec[d_out + k] * g[j][k]
        return acc if acc >= 0.0 else leaky_slope * acc

    alpha = [[0.0] * n for _ in range(n)]
    out = [[0.0] * d_out for _ in range(n)]
    for i in range(n):
        neighbors = [j for j in range(n) if adjacency[i][j] == 1.0]
        betas = [score(i, j) for j in neighbors]
        top = max(betas)
        exps = [math.exp(b - top) for b in betas]
        total = sum(exps)
        for j, e in zip(neighbors, exps):
            alpha[i][j] = e / total
        for k in range(d_out):
            acc = 0.0
            for j in neighbors:
                acc += alpha[i][j] * g[j][k]
            out[i][k] = acc if acc > 0.0 else 0.0
    return np.array(out).reshape(n, d_out), np.array(alpha).reshape(n, n)
