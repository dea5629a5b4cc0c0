"""Affine rank certificates for sampled sets.

Everything here runs through one greedy row-elimination core over a stack
of row sets, with one pivot rule and one tolerance rule
(:func:`default_rank_tol`), so that rank decisions, independent-direction
bases and the determinant of a full-rank certificate can never disagree
with each other.  A certificate eliminates a stack of one set; the patch
profile of :func:`is_nowhere_flat` stacks a block of patches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .grid import SampledSet

#: Relative factor for the default rank tolerance (times the sup-norm scale).
DEFAULT_RANK_RTOL = 1e-9

#: Projection widths below this multiple of the rank tolerance count as flat.
#: Elimination can amplify a sup-norm residual by a small dimension-dependent
#: factor, so the duality threshold carries slack.
PROJECTION_SLACK = 8.0

#: Centre-sample pairs per block of :func:`is_nowhere_flat`.
_PATCH_BLOCK_PAIRS = 1 << 18


def as_points(samples: SampledSet | NDArray[np.float64]) -> NDArray[np.float64]:
    if isinstance(samples, SampledSet):
        pts = samples.points
    else:
        pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("expected a non-empty (m, n) point array")
    return pts


def default_rank_tol(points: NDArray[np.float64]) -> float:
    return DEFAULT_RANK_RTOL * float(np.abs(points).max())


@dataclass(frozen=True)
class EliminationResult:
    """Accepted rows of a greedy elimination, in acceptance order."""

    rank: int
    accepted: tuple[int, ...]
    pivot_values: tuple[float, ...]
    basis: NDArray[np.float64]


def _eliminate(
    work: NDArray[np.float64], lengths: NDArray[np.int64], tol: float
) -> tuple[NDArray[np.int64], list[NDArray[np.int64]], list[NDArray[np.float64]]]:
    """Greedy elimination of a stack of row sets, all at once and in place.

    ``work[j, b, i]`` is coordinate j of row i of set b; rows at and past
    ``lengths[b]`` pad set b to the common length and are never picked.
    Each round, every set still running accepts the row with its largest
    sup-norm residual (first on ties) if that residual exceeds ``tol``,
    pivots on the row's largest entry (first on ties) and subtracts
    ``factors * row[j]`` from every coordinate plane.  A set that stopped
    has its row zeroed and its pivot set to one, so the shared update
    leaves its residuals unchanged.  Returns the ranks and, per round, each
    set's picked row and pivot: the first ``rank[b]`` are set b's accepted.
    """
    n, sets, length = work.shape
    every = np.arange(sets)
    dead = np.arange(length) >= lengths[:, None]
    limit = np.minimum(lengths, n)
    rank = np.zeros(sets, dtype=np.int64)
    mags, scratch = np.empty((2, sets, length))
    accepted: list[NDArray[np.int64]] = []
    pivots: list[NDArray[np.float64]] = []
    running = rank < limit
    while running.any():
        np.abs(work[0], out=mags)
        for j in range(1, n):
            np.maximum(mags, np.abs(work[j], out=scratch), out=mags)
        mags[dead] = -1.0
        cand = np.argmax(mags, axis=1)
        running &= mags[every, cand] > tol
        live = np.flatnonzero(running)
        if not live.size:
            break
        rows = work[:, every, cand]
        rows[:, ~running] = 0.0
        col = np.argmax(np.abs(rows), axis=0)
        pivot = np.where(running, rows[col, every], 1.0)
        factors = work[col, every] / pivot[:, None]
        for j in range(n):
            np.multiply(factors, rows[j][:, None], out=scratch)
            work[j] -= scratch
        work[col[live], live] = 0.0
        work[:, live, cand[live]] = 0.0
        dead[live, cand[live]] = True
        accepted.append(cand)
        pivots.append(pivot)
        rank += running
        running &= rank < limit
    return rank, accepted, pivots


def greedy_row_elimination(vectors: NDArray[np.float64], tol: float) -> EliminationResult:
    """Select independent rows by Gaussian elimination with sup-norm tests.

    Repeatedly accepts the row with the globally largest residual against
    the rows accepted so far (pivot column: its largest residual entry,
    first on ties), until no residual exceeds ``tol`` in sup norm.  Returns
    the accepted rows as originally given.  This is the stack-of-one case
    of the core that :func:`is_nowhere_flat` runs on blocks of patches.
    """
    original = np.asarray(vectors, dtype=np.float64)
    if original.ndim != 2:
        raise ValueError("vectors must be a (k, n) array")
    if not np.isfinite(original).all():
        raise ValueError("vectors must be finite")
    k, n = original.shape
    # One contiguous residual plane per coordinate, so the sup norms and the
    # updates stream over rows instead of reducing short rows one by one.
    rank, rows, pivots = _eliminate(original.T.copy()[:, None, :], np.array([k]), tol)
    accepted = [int(r[0]) for r in rows]
    return EliminationResult(
        rank=int(rank[0]),
        accepted=tuple(accepted),
        pivot_values=tuple(float(p[0]) for p in pivots),
        basis=original[accepted].copy() if accepted else np.empty((0, n)),
    )


@dataclass(frozen=True)
class FlatnessReport:
    """Affine rank of a sampled set around its first point.

    ``det_abs`` is present (not None) exactly when the set has full affine
    dimension; it is then the volume of the parallelotope spanned by the
    basis.  ``complement`` holds orthonormal directions orthogonal to the
    basis span (the witness normals when flat).
    """

    affine_dim: int
    dim: int
    basis: NDArray[np.float64]
    det_abs: float | None
    tol: float
    base_point: NDArray[np.float64]
    complement: NDArray[np.float64]

    @property
    def flat(self) -> bool:
        return self.affine_dim < self.dim


def nonflat_certificate(samples: SampledSet | NDArray[np.float64]) -> FlatnessReport:
    """Greedy maximal independent difference vectors from the first sample.

    The elimination picks globally largest residuals, which favors long
    chords and so well-conditioned bases, at the tolerance
    :func:`default_rank_tol` of the samples.
    """
    pts = as_points(samples)
    n = pts.shape[1]
    tol = default_rank_tol(pts)
    diffs = pts[1:] - pts[0]
    result = greedy_row_elimination(diffs, tol)
    det_abs: float | None = None
    if result.rank == n:
        det_abs = 1.0
        for p in result.pivot_values:
            det_abs *= abs(p)
    if result.rank == 0:
        complement = np.eye(n)
    elif result.rank == n:
        complement = np.empty((0, n))
    else:
        _, _, vh = np.linalg.svd(result.basis, full_matrices=True)
        complement = vh[result.rank :]
    return FlatnessReport(
        affine_dim=result.rank,
        dim=n,
        basis=result.basis,
        det_abs=det_abs,
        tol=tol,
        base_point=pts[0].copy(),
        complement=complement,
    )


@dataclass(frozen=True)
class ProjectionFlatnessReport:
    """Thin-direction search: the dual description of flatness."""

    flat: bool
    width: float
    direction: NDArray[np.float64]
    tol: float
    threshold: float


def flatness_by_projection(
    samples: SampledSet | NDArray[np.float64],
    n_random: int = 100,
    extra_directions: NDArray[np.float64] | None = None,
) -> ProjectionFlatnessReport:
    """Search unit directions for one along which the samples are thin.

    A set is flat exactly when some direction sees a projection width of
    essentially zero, at the tolerance :func:`default_rank_tol` of the
    samples.  The ``n_random`` directions come from
    ``np.random.default_rng(0)``.  Random directions almost never hit an
    exact normal, so callers cross-checking a rank certificate should pass
    its ``complement`` rows via ``extra_directions``.
    """
    pts = as_points(samples)
    n = pts.shape[1]
    tol = default_rank_tol(pts)
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((n_random, n))
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 1e-12] / norms[norms > 1e-12, None]
    if extra_directions is not None and len(extra_directions):
        extra = np.asarray(extra_directions, dtype=np.float64)
        extra_norms = np.linalg.norm(extra, axis=1)
        extra = extra[extra_norms > 1e-12] / extra_norms[extra_norms > 1e-12, None]
        dirs = np.vstack([extra, dirs])
    centered = pts - pts[0]
    widths = np.ptp(centered @ dirs.T, axis=0)
    best = int(np.argmin(widths))
    threshold = PROJECTION_SLACK * n * tol
    return ProjectionFlatnessReport(
        flat=bool(widths[best] <= threshold),
        width=float(widths[best]),
        direction=dirs[best].copy(),
        tol=tol,
        threshold=threshold,
    )


def _check_patch_radius(rho: float, samples: SampledSet | NDArray[np.float64]) -> None:
    if rho <= 0:
        raise ValueError(f"patch radius must be positive, got {rho}")
    if isinstance(samples, SampledSet) and rho <= 2 * samples.density:
        raise ValueError(
            f"patch radius {rho} must exceed twice the sample density {samples.density}"
        )


def _patch_block(
    coords: NDArray[np.float64], centers: NDArray[np.int64], rho: float
) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
    """The rho-patches of ``centers`` as a padded stack for :func:`_eliminate`.

    ``coords`` is (n, m), one row per axis.  Patch b lists the differences
    to sample ``centers[b]`` in ascending sample order, then zero padding.
    """
    m = coords.shape[1]
    # One coordinate at a time into one buffer: a max over a short last
    # axis, or a fresh array per operation, costs several times more.
    near = np.ones((centers.size, m), dtype=bool)
    diff = np.empty(near.shape)
    for axis in coords:
        np.subtract(axis, axis[centers, None], out=diff)
        near &= np.abs(diff, out=diff) <= rho
    flat = np.flatnonzero(near)
    owner = flat // m
    lengths = np.bincount(owner, minlength=centers.size)
    width = int(lengths.max())
    starts = np.arange(centers.size) * width - np.cumsum(lengths) + lengths
    rows = np.repeat(centers, width)
    rows[np.arange(flat.size) + np.repeat(starts, lengths)] = flat - owner * m
    work = np.take(coords, rows.reshape(centers.size, width), axis=1)
    work -= coords[:, centers, None]
    return work, lengths


@dataclass(frozen=True)
class NowhereFlatReport:
    nowhere_flat: bool
    flat_centers: tuple[int, ...]
    rho: float
    tol: float


def is_nowhere_flat(samples: SampledSet | NDArray[np.float64], rho: float) -> NowhereFlatReport:
    """Check that no rho-patch of the samples is affinely rank-deficient.

    A centre's patch holds the differences to every sample within sup-norm
    rho of it, in ascending sample order, and its rank is taken at the
    tolerance :func:`default_rank_tol` of the whole sample.  Flat patches
    are reported by the index of their center sample (first one first).  A
    patch too sparse to span full rank counts as flat; the radius must
    exceed twice the sample density so patches hold genuine geometry.

    Centres go in blocks of ``max(1, 2**18 // m)`` for m samples.  A block's
    patches, padded to its largest, take one call of the elimination core
    of :func:`greedy_row_elimination`, so each rank is the one it gives the
    patch alone.  A block's arrays take at most about 8n + 64 bytes per
    centre-sample pair: (8n + 64) * 2**18 bytes (21 MB for n = 2) while
    m <= 2**18, and (8n + 64) * m bytes past that.
    """
    _check_patch_radius(rho, samples)
    pts = as_points(samples)
    m, n = pts.shape
    tol = default_rank_tol(pts)
    coords = pts.T.copy()
    block = max(1, _PATCH_BLOCK_PAIRS // m)
    flat_centers: list[int] = []
    for first in range(0, m, block):
        centers = np.arange(first, min(first + block, m))
        rank = _eliminate(*_patch_block(coords, centers, rho), tol)[0]
        flat_centers += centers[rank < n].tolist()
    return NowhereFlatReport(
        nowhere_flat=not flat_centers,
        flat_centers=tuple(flat_centers),
        rho=rho,
        tol=tol,
    )
