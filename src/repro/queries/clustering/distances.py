"""The TRACLUS three-component line-segment distance.

For two segments the distance combines (Lee et al., SIGMOD'07, Section 4):

* ``d_perp`` — perpendicular distance: the Lehmer mean
  ``(l1^2 + l2^2) / (l1 + l2)`` of the two projection distances of the
  shorter segment's endpoints onto the longer segment's line,
* ``d_para`` — parallel distance: the smaller of the two along-line offsets
  from the projections to the longer segment's endpoints,
* ``d_theta`` — angular distance: ``len(shorter) * sin(theta)`` for
  ``theta <= 90°`` and ``len(shorter)`` beyond.

The total is a weighted sum (all weights 1 by default, as in the paper).

:func:`segment_distance` is the per-pair definition;
:func:`segment_distance_blocks` evaluates it for a block of rows against
every segment at once. Both spell out the 2D dot products component by
component, in the same order, rather than through ``@`` (a BLAS dot may
fuse the multiply and the add). So they agree to the last bit, which
matters: the angle term ``sin(arccos(cos))`` turns a one-ulp difference in
``cos`` near 1 into about ``1e-8`` of the segment length.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

_EPS = 1e-12

#: Upper bound on the elements of one ``(rows, n)`` temporary of
#: :func:`segment_distance_blocks`; rows per block are derived from ``n``.
#: About 30 such temporaries are live at once, so a block peaks near
#: ``30 * 8 * _BLOCK_ELEMENTS`` bytes (~2 MB) whatever ``n`` is.
_BLOCK_ELEMENTS = 1 << 13


def segment_distance(
    seg_a: np.ndarray,
    seg_b: np.ndarray,
    w_perp: float = 1.0,
    w_para: float = 1.0,
    w_theta: float = 1.0,
) -> float:
    """TRACLUS distance between two 2D segments given as ``(2, 2)`` arrays."""
    (ax0, ay0), (ax1, ay1) = np.asarray(seg_a, dtype=float).tolist()
    (bx0, by0), (bx1, by1) = np.asarray(seg_b, dtype=float).tolist()
    adx, ady = ax1 - ax0, ay1 - ay0
    bdx, bdy = bx1 - bx0, by1 - by0
    a_sq, b_sq = adx * adx + ady * ady, bdx * bdx + bdy * bdy
    len_a, len_b = math.sqrt(a_sq), math.sqrt(b_sq)
    # By convention the longer segment is L_i, the shorter L_j.
    if len_a >= len_b:
        sx, sy, dx, dy, sq_len, longer_len = ax0, ay0, adx, ady, a_sq, len_a
        px0, py0, px1, py1 = bx0, by0, bx1, by1
        sdx, sdy, shorter_len = bdx, bdy, len_b
    else:
        sx, sy, dx, dy, sq_len, longer_len = bx0, by0, bdx, bdy, b_sq, len_b
        px0, py0, px1, py1 = ax0, ay0, ax1, ay1
        sdx, sdy, shorter_len = adx, ady, len_a

    # Projection parameters of the shorter segment's endpoints along
    # ``start + u * direction`` of the longer one.
    if sq_len <= _EPS:
        u1 = u2 = 0.0
    else:
        u1 = ((px0 - sx) * dx + (py0 - sy) * dy) / sq_len
        u2 = ((px1 - sx) * dx + (py1 - sy) * dy) / sq_len
    ex1, ey1 = px0 - (sx + u1 * dx), py0 - (sy + u1 * dy)
    ex2, ey2 = px1 - (sx + u2 * dx), py1 - (sy + u2 * dy)
    l_perp1 = math.sqrt(ex1 * ex1 + ey1 * ey1)
    l_perp2 = math.sqrt(ex2 * ex2 + ey2 * ey2)
    perp_sum = l_perp1 + l_perp2
    d_perp = (
        0.0
        if perp_sum <= _EPS
        else (l_perp1 * l_perp1 + l_perp2 * l_perp2) / perp_sum
    )

    l_para1 = min(abs(u1), abs(u2)) * longer_len
    l_para2 = min(abs(1.0 - u1), abs(1.0 - u2)) * longer_len
    d_para = min(l_para1, l_para2)

    if longer_len <= _EPS or shorter_len <= _EPS:
        d_theta = 0.0
    else:
        cos_theta = (dx * sdx + dy * sdy) / (longer_len * shorter_len)
        cos_theta = max(-1.0, min(1.0, cos_theta))
        theta = float(np.arccos(cos_theta))
        if theta <= np.pi / 2:
            d_theta = shorter_len * float(np.sin(theta))
        else:
            d_theta = shorter_len

    return w_perp * d_perp + w_para * d_para + w_theta * d_theta


# Rows of the per-segment column table built by segment_distance_blocks.
_X0, _Y0, _X1, _Y1, _DX, _DY, _SQ, _LEN = range(8)


def _divide(num: np.ndarray, den: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``num / den`` where ``ok``, else 0 (the scalar function's guards)."""
    return np.divide(num, den, out=np.zeros_like(num), where=ok)


def _distance_rows(cols: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``(hi - lo, n)`` distances from segments ``lo:hi`` to every segment."""
    n = cols.shape[1]
    row, col = cols[:, lo:hi, None], cols[:, None, :]
    # Row i is the scalar function's seg_a against columns j > i (the
    # upper-triangle pairing), so on equal lengths the lower index counts as
    # the longer segment.
    row_longer = (row[_LEN] > col[_LEN]) | (
        (row[_LEN] == col[_LEN]) & (np.arange(n) > np.arange(lo, hi)[:, None])
    )
    sx, sy, dx, dy, sq_len, longer_len = (
        np.where(row_longer, row[k], col[k]) for k in (_X0, _Y0, _DX, _DY, _SQ, _LEN)
    )
    px0, py0, px1, py1, sdx, sdy, shorter_len = (
        np.where(row_longer, col[k], row[k])
        for k in (_X0, _Y0, _X1, _Y1, _DX, _DY, _LEN)
    )

    has_line = sq_len > _EPS
    u1 = _divide((px0 - sx) * dx + (py0 - sy) * dy, sq_len, has_line)
    u2 = _divide((px1 - sx) * dx + (py1 - sy) * dy, sq_len, has_line)
    ex, ey = px0 - (sx + u1 * dx), py0 - (sy + u1 * dy)
    l_perp1 = np.sqrt(ex * ex + ey * ey)
    ex, ey = px1 - (sx + u2 * dx), py1 - (sy + u2 * dy)
    l_perp2 = np.sqrt(ex * ex + ey * ey)
    perp_sum = l_perp1 + l_perp2
    dist = _divide(l_perp1 * l_perp1 + l_perp2 * l_perp2, perp_sum, perp_sum > _EPS)

    l_para1 = np.minimum(np.abs(u1), np.abs(u2)) * longer_len
    l_para2 = np.minimum(np.abs(1.0 - u1), np.abs(1.0 - u2)) * longer_len
    dist += np.minimum(l_para1, l_para2)

    has_angle = (longer_len > _EPS) & (shorter_len > _EPS)
    cos_theta = _divide(dx * sdx + dy * sdy, longer_len * shorter_len, has_angle)
    np.clip(cos_theta, -1.0, 1.0, out=cos_theta)
    theta = np.arccos(cos_theta)
    d_theta = np.where(theta <= np.pi / 2, shorter_len * np.sin(theta), shorter_len)
    d_theta[~has_angle] = 0.0
    dist += d_theta

    dist[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
    return dist


def segment_distance_blocks(
    segments: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(lo, block)``: distances from ``segments[lo:lo + len(block)]``
    to every segment of an ``(n, 2, 2)`` stack.

    ``block[r, j]`` equals ``segment_distance(segments[i], segments[j])``
    for ``i = lo + r < j`` and ``segment_distance(segments[j],
    segments[i])`` for ``j < i``, so the result is exactly symmetric; the
    diagonal is 0. Rows per block are sized so that temporaries stay under
    :data:`_BLOCK_ELEMENTS` elements each; the ``n x n`` matrix is never
    held.
    """
    seg = np.asarray(segments, dtype=float).reshape(-1, 4)
    n = len(seg)
    cols = np.empty((8, n))
    cols[:4] = seg.T
    cols[_DX] = cols[_X1] - cols[_X0]
    cols[_DY] = cols[_Y1] - cols[_Y0]
    cols[_SQ] = cols[_DX] * cols[_DX] + cols[_DY] * cols[_DY]
    cols[_LEN] = np.sqrt(cols[_SQ])
    rows = max(1, _BLOCK_ELEMENTS // max(n, 1))
    for lo in range(0, n, rows):
        yield lo, _distance_rows(cols, lo, min(lo + rows, n))


def segment_distance_matrix(segments: np.ndarray) -> np.ndarray:
    """Symmetric pairwise TRACLUS distances for an ``(n, 2, 2)`` segment stack."""
    n = len(segments)
    dist = np.empty((n, n))
    for lo, block in segment_distance_blocks(segments):
        dist[lo : lo + len(block)] = block
    return dist
