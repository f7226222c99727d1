"""Vectorised check-node update kernels over NumPy arrays.

Both dense kernels operate on arrays whose *last* axis enumerates the edges
of one check (the check degree ``d``); any number of leading axes is
allowed.  The batch decoders call them with ``(batch, n_checks, d)``
tensors — one call per degree group (flooding) or per layer of
variable-disjoint checks (layered) — and every check's result depends only
on its own row of the last axis, so one call over many checks is
bit-identical to one call per check.

:func:`min_sum_update_segments` is the segment-reduction formulation over
:class:`~repro.sim.edges.EdgeIndex` flat edges (``ufunc.reduceat``): one
call for *all* checks regardless of their degrees, instead of one dense call
per degree group.

Sign convention (pinned by ``tests/test_kernels.py``): the sign of an LLR
is its IEEE-754 sign *bit* (``np.signbit``), so ``-0.0`` counts as negative
— matching the scalar reference in :mod:`repro.ldpc.checknode`.  The
previous ``arr < 0`` formulation silently treated ``-0.0`` as positive,
which made the sign product depend on how an exactly-zero magnitude was
produced.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError

#: Saturation applied to the tanh-domain leave-one-out product before the
#: final ``arctanh`` (keeps the output finite for near-certain inputs).
_TANH_CLIP = 0.999999999999


def _check_degree_axis(q):
    arr = np.asarray(q, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] < 2:
        raise DecodingError(
            "check update needs at least two edge messages on the last axis"
        )
    return arr


def min_sum_update(q, scaling: float = 0.75):
    """Normalized-min-sum check update (paper eq. (11)), vectorised.

    Parameters
    ----------
    q:
        Variable-to-check messages ``Q_{lk}``, shape ``(..., d)`` with the
        edges of each check on the last axis.
    scaling:
        Normalisation factor ``sigma <= 1`` (0.75 in the paper's PEs).

    Returns
    -------
    array
        Check-to-variable messages ``R_{lk}^{new}`` of the same shape: each
        edge sees ``sigma * prod_{n != k} sgn(Q_{ln}) * min_{n != k} |Q_{ln}|``.
        Matches :func:`repro.ldpc.checknode.min_sum_check_update` bit-for-bit
        on a single check (same first-occurrence ``argmin`` tie-breaking,
        same ``signbit`` convention for ``-0.0``).
    """
    arr = _check_degree_axis(q)
    degree = arr.shape[-1]
    magnitudes = np.abs(arr)
    signs = np.where(np.signbit(arr), -1.0, 1.0)
    argmin1 = np.argmin(magnitudes, axis=-1)
    min1 = np.take_along_axis(magnitudes, argmin1[..., None], axis=-1)[..., 0]
    masked = np.copy(magnitudes)
    np.put_along_axis(masked, argmin1[..., None], np.inf, axis=-1)
    min2 = np.amin(masked, axis=-1)
    # Magnitude seen by edge k is the min over the *other* edges: min2 for
    # the edge holding the global minimum, min1 everywhere else.
    is_argmin = np.arange(degree) == argmin1[..., None]
    result_magnitudes = np.where(is_argmin, min2[..., None], min1[..., None])
    # Sign seen by edge k excludes its own sign (dividing by +-1 == multiplying).
    result_signs = np.prod(signs, axis=-1)[..., None] * signs
    return scaling * result_signs * result_magnitudes


def min_sum_update_segments(v2c, row_ptr: np.ndarray, scaling: float = 0.75):
    """Normalized-min-sum over *flat* edges, one segment per check.

    The segment-reduction twin of :func:`min_sum_update`: instead of one
    dense ``(batch, n_checks_d, d)`` call per degree group, the whole
    ``(batch, n_edges)`` edge array is reduced with ``np.minimum.reduceat``
    and ``np.add.reduceat``, with checks delimited by ``row_ptr`` exactly as
    in :class:`~repro.sim.edges.EdgeIndex`.  Bit-identical to the dense kernel
    on every input: first-occurrence tie-breaking is reproduced by counting
    minima within each segment, and the sign product is reproduced from the
    parity of the per-segment negative count (``signbit`` convention, so
    ``-0.0`` counts as negative).

    Parameters
    ----------
    v2c:
        ``(batch, n_edges)`` variable-to-check messages, row-major flat
        edges.
    row_ptr:
        ``(n_rows + 1,)`` segment boundaries (``EdgeIndex.row_ptr``).
    scaling:
        Normalisation factor ``sigma <= 1``.
    """
    arr = np.asarray(v2c, dtype=np.float64)
    if arr.ndim != 2:
        raise DecodingError(
            f"segment min-sum expects a (batch, n_edges) array, got shape {arr.shape}"
        )
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    if row_ptr.ndim != 1 or row_ptr.size < 2 or int(row_ptr[-1]) != arr.shape[-1]:
        raise DecodingError("row_ptr does not delimit the flat edge axis")
    starts = row_ptr[:-1]
    degrees = np.diff(row_ptr)
    if int(degrees.min()) < 2:
        raise DecodingError(
            "check update needs at least two edge messages per check"
        )

    magnitudes = np.abs(arr)
    signs = np.where(np.signbit(arr), -1.0, 1.0)

    min1_seg = np.minimum.reduceat(magnitudes, starts, axis=-1)
    min1 = np.repeat(min1_seg, degrees, axis=-1)
    # First occurrence of the per-segment minimum: count matching edges with
    # a running sum, subtract the count accumulated before each segment.
    is_min = magnitudes == min1
    hits = np.cumsum(np.asarray(is_min, dtype=np.int64), axis=-1)
    before = hits[:, starts] - np.asarray(is_min[:, starts], dtype=np.int64)
    is_first = is_min & ((hits - np.repeat(before, degrees, axis=-1)) == 1)

    masked = np.where(is_first, np.inf, magnitudes)
    min2_seg = np.minimum.reduceat(masked, starts, axis=-1)
    min2 = np.repeat(min2_seg, degrees, axis=-1)
    result_magnitudes = np.where(is_first, min2, min1)

    # Per-segment sign product from the parity of the negative count: the
    # dense kernel's prod of +-1.0 floats is exact, so parity matches it
    # bit-for-bit.
    negatives = np.add.reduceat(np.asarray(np.signbit(arr), dtype=np.int64), starts, axis=-1)
    total_signs = np.where((negatives & 1) == 1, -1.0, 1.0)
    result_signs = np.repeat(total_signs, degrees, axis=-1) * signs
    return scaling * result_signs * result_magnitudes


def sum_product_update(q):
    """Exact sum-product (tanh-rule) check update, vectorised and stable.

    Uses exclusive prefix/suffix products of ``tanh(Q/2)`` for the
    leave-one-out product instead of dividing the total product by each
    factor.  The factors all have magnitude ``<= 1`` so the partial products
    only shrink — there is no overflow and no division by a near-zero
    ``tanh``, which removes the O(d^2) fallback loop the division approach
    needed when any message was close to zero.

    Parameters
    ----------
    q:
        Variable-to-check messages, shape ``(..., d)`` with the edges of each
        check on the last axis.  Values are clipped to ``[-30, 30]`` first
        (``tanh`` saturates to machine precision well before that).

    Returns
    -------
    array
        ``2 * arctanh(prod_{n != k} tanh(Q_{ln} / 2))`` per edge, with the
        product clipped away from ``+-1`` so the output stays finite.
    """
    arr = _check_degree_axis(q)
    clipped = np.clip(arr, -30.0, 30.0)
    tanh_half = np.tanh(clipped / 2.0)
    ones = np.ones_like(tanh_half[..., :1])
    # prefix[..., k] = prod of tanh_half[..., :k]; suffix[..., k] = prod of
    # tanh_half[..., k+1:]; their product is the leave-one-out product.
    prefix = np.concatenate(
        [ones, np.cumprod(tanh_half[..., :-1], axis=-1)], axis=-1
    )
    suffix = np.concatenate(
        [np.flip(np.cumprod(np.flip(tanh_half[..., 1:], axis=-1), axis=-1), axis=-1), ones],
        axis=-1,
    )
    leave_one_out = np.clip(prefix * suffix, -_TANH_CLIP, _TANH_CLIP)
    return 2.0 * np.arctanh(leave_one_out)
