"""Affine rank certificates for sampled sets.

Everything here runs through one greedy row-elimination routine, with one
pivot rule and one tolerance rule (:func:`default_rank_tol`), so that rank
decisions, independent-direction bases and the determinant of a full-rank
certificate can never disagree with each other.
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


def greedy_row_elimination(vectors: NDArray[np.float64], tol: float) -> EliminationResult:
    """Select independent rows by Gaussian elimination with sup-norm tests.

    Repeatedly accepts the row with the globally largest residual against
    the rows accepted so far (pivot column: its largest residual entry,
    first on ties), until no residual exceeds ``tol`` in sup norm.  Returns
    the accepted rows as originally given.
    """
    original = np.asarray(vectors, dtype=np.float64)
    if original.ndim != 2:
        raise ValueError("vectors must be a (k, n) array")
    if not np.isfinite(original).all():
        raise ValueError("vectors must be finite")
    k, n = original.shape
    # One contiguous residual array per coordinate, so the sup norms and the
    # updates stream over rows instead of reducing short rows one by one.
    work = original.T.copy()
    mags = np.empty(k)
    scratch = np.empty(k)
    accepted: list[int] = []
    pivot_vals: list[float] = []
    while len(accepted) < min(n, k):
        np.abs(work[0], out=mags)
        for j in range(1, n):
            np.maximum(mags, np.abs(work[j], out=scratch), out=mags)
        mags[accepted] = -1.0
        cand = int(np.argmax(mags))
        if mags[cand] <= tol:
            break
        row = work[:, cand].copy()
        col = int(np.argmax(np.abs(row)))
        accepted.append(cand)
        pivot_vals.append(float(row[col]))
        factors = work[col] / row[col]
        for j in range(n):
            if j != col:
                np.multiply(factors, row[j], out=scratch)
                work[j] -= scratch
        work[col] = 0.0
        work[:, cand] = 0.0
    return EliminationResult(
        rank=len(accepted),
        accepted=tuple(accepted),
        pivot_values=tuple(pivot_vals),
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


def _patch_rows(pts: NDArray[np.float64], center: int, rho: float) -> NDArray[np.float64]:
    """Difference vectors of the samples within sup-norm rho of sample ``center``."""
    base = pts[center]
    near = np.abs(pts - base).max(axis=1) <= rho
    return pts[near] - base


def _check_patch_radius(rho: float, samples: SampledSet | NDArray[np.float64]) -> None:
    if rho <= 0:
        raise ValueError(f"patch radius must be positive, got {rho}")
    if isinstance(samples, SampledSet) and rho <= 2 * samples.density:
        raise ValueError(
            f"patch radius {rho} must exceed twice the sample density {samples.density}"
        )


@dataclass(frozen=True)
class NowhereFlatReport:
    nowhere_flat: bool
    flat_centers: tuple[int, ...]
    rho: float
    tol: float


def is_nowhere_flat(samples: SampledSet | NDArray[np.float64], rho: float) -> NowhereFlatReport:
    """Check that no rho-patch of the samples is affinely rank-deficient.

    Ranks are taken at the tolerance :func:`default_rank_tol` of the whole
    sample.  Flat patches are reported by the index of their center sample
    (first one first).  A patch too sparse to span full rank counts as
    flat; the radius must exceed twice the sample density so patches hold
    genuine geometry.
    """
    _check_patch_radius(rho, samples)
    pts = as_points(samples)
    n = pts.shape[1]
    tol = default_rank_tol(pts)
    flat_centers = []
    for center in range(pts.shape[0]):
        rows = _patch_rows(pts, center, rho)
        if greedy_row_elimination(rows, tol).rank < n:
            flat_centers.append(center)
    return NowhereFlatReport(
        nowhere_flat=not flat_centers,
        flat_centers=tuple(flat_centers),
        rho=rho,
        tol=tol,
    )
