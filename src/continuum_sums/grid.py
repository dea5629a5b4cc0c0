"""Uniform occupancy grids and exact Minkowski-sum arithmetic on them.

A grid cell is addressed by an integer index tuple; index ``i`` stands for the
lattice point ``origin + spacing * i`` and, for measure purposes, for the
closed box ``origin + spacing * [i, i + 1]`` along each axis.  Grid sums add
index sets (and therefore origins), so no resampling ever happens inside a
dilation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy import fft as _fft
from scipy import ndimage as _ndimage

Point = tuple[float, ...]

# Distances at or above this sentinel mean "no occupied cell exists".
DIST_INF = np.int32(2**30)

# Product of occupied-cell counts must stay below 2**52 so every convolution
# coefficient is an exact float64 integer with slack for FFT roundoff.
_FFT_EXACT_LIMIT = 2**52

# Auto dilation switches to the FFT route only when the plain shift-OR route
# would move more bytes than a transform of the output array, with this margin.
_FFT_ADVANTAGE = 4.0

# Set bits per byte value, for popcounts of packed occupancy.
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8
)

#: Above this many output cells :func:`minkowski_sum` may accumulate sparsely.
_DENSE_SUM_LIMIT = 2**24

#: Pair-sum chunk size (index keys) for the sparse accumulation route.
_SPARSE_CHUNK = 5_000_000


class DilationPrecisionError(ValueError):
    """FFT dilation would exceed the exact-integer range of float64."""


class CubeOutsideGridError(ValueError):
    """A cube reaches beyond the box a grid covers."""


class Semantics(Enum):
    """What the occupied cells of a :class:`GridSet` promise about the set.

    SAMPLE_COVER: every occupied cell contains at least one exact point of the
    underlying set; ``slack`` records the sup-norm sample density.
    OUTER: the underlying set is contained in the union of occupied cells
    dilated by ``slack`` (length units).
    INNER: the union of occupied cells is contained in the underlying set
    (up to the documented erosion contract); produced only by :func:`erode`.
    """

    SAMPLE_COVER = "sample_cover"
    OUTER = "outer"
    INNER = "inner"


@dataclass(frozen=True)
class GridGeometry:
    """Axis-aligned uniform grid: ``origin``, cell ``spacing`` and cell counts."""

    origin: Point
    spacing: float
    extents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.spacing <= 0 or not math.isfinite(self.spacing):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        if len(self.origin) != len(self.extents):
            raise ValueError("origin and extents must have the same dimension")
        if not self.extents or any(m <= 0 for m in self.extents):
            raise ValueError(f"extents must be positive, got {self.extents}")
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        object.__setattr__(self, "extents", tuple(int(m) for m in self.extents))

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def upper(self) -> Point:
        """Upper corner of the covered box (cells are closed unit boxes)."""
        return tuple(o + self.spacing * m for o, m in zip(self.origin, self.extents))

    def lattice_point(self, index: Sequence[int]) -> Point:
        return tuple(o + self.spacing * i for o, i in zip(self.origin, index))

    def cell_center(self, index: Sequence[int]) -> Point:
        return tuple(o + self.spacing * (i + 0.5) for o, i in zip(self.origin, index))

    def contains_point(self, p: Sequence[float]) -> bool:
        return all(o <= x <= u for o, x, u in zip(self.origin, p, self.upper))


def auto_geometry(points: NDArray[np.float64], h: float, pad_cells: int = 0) -> GridGeometry:
    """Smallest grid at spacing ``h`` whose box covers ``points``, plus padding."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (m, n) array")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    origin = tuple(float(x - pad_cells * h) for x in lo)
    extents = tuple(int(np.floor((b - a) / h)) + 1 + 2 * pad_cells for a, b in zip(lo, hi))
    return GridGeometry(origin=origin, spacing=float(h), extents=extents)


@dataclass(frozen=True)
class SampledSet:
    """Finite list of exact sample points with a sup-norm density bound.

    ``density`` is the promised eps: every point of the underlying set lies
    within sup-norm ``eps`` of some sample.  ``exact`` records that the samples
    themselves lie on the set (all built-in generators produce exact samples).
    An empty point list is allowed but must still be shaped (0, n).
    """

    points: NDArray[np.float64]
    density: float
    exact: bool = True

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] == 0:
            raise ValueError("points must be an (m, n) array with n >= 1")
        if not np.isfinite(pts).all():
            raise ValueError("sample points must be finite")
        if not (self.density >= 0 and math.isfinite(self.density)):
            raise ValueError(f"density must be finite and >= 0, got {self.density}")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def count(self) -> int:
        return int(self.points.shape[0])

    def translated(self, shift: Sequence[float]) -> "SampledSet":
        vec = np.asarray(shift, dtype=np.float64)
        return SampledSet(self.points + vec, self.density, self.exact)

    def linear_image(self, matrix: NDArray[np.float64]) -> "SampledSet":
        """Image under ``x -> matrix @ x``; density scales by the sup operator norm."""
        mat = np.asarray(matrix, dtype=np.float64)
        op_norm = float(np.abs(mat).sum(axis=1).max())
        return SampledSet(self.points @ mat.T, self.density * op_norm, self.exact)

    def sup_radius(self) -> float:
        """Largest sup-norm of any sample (0.0 for an empty list)."""
        if self.points.shape[0] == 0:
            return 0.0
        return float(np.abs(self.points).max())


@dataclass(frozen=True)
class GridSet:
    """Occupancy bitmap over a :class:`GridGeometry` with tagged semantics.

    ``slack`` means: sample density (SAMPLE_COVER), covering radius (OUTER),
    or 0.0 (INNER).  All length units, not cell counts.
    """

    geometry: GridGeometry
    occupancy: NDArray[np.bool_] = field(repr=False)
    semantics: Semantics
    slack: float = 0.0

    def __post_init__(self) -> None:
        occ = np.asarray(self.occupancy, dtype=bool)
        if occ.shape != self.geometry.extents:
            raise ValueError(
                f"occupancy shape {occ.shape} does not match extents {self.geometry.extents}"
            )
        if self.slack < 0 or not math.isfinite(self.slack):
            raise ValueError(f"slack must be finite and >= 0, got {self.slack}")
        object.__setattr__(self, "occupancy", occ)

    @property
    def dim(self) -> int:
        return self.geometry.dim

    @property
    def spacing(self) -> float:
        return self.geometry.spacing

    @property
    def occupied_count(self) -> int:
        return int(self.occupancy.sum())

    def occupied_indices(self) -> NDArray[np.int64]:
        return np.argwhere(self.occupancy)


def rasterize(
    samples: SampledSet,
    geometry: GridGeometry,
    semantics: Semantics = Semantics.SAMPLE_COVER,
) -> GridSet:
    """Mark the cells holding samples; OUTER additionally dilates by ceil(eps/h).

    Every sample must lie inside the geometry's box; the error names the first
    offender.  INNER cannot be rasterized directly (it is produced by erosion).
    """
    if samples.dim != geometry.dim:
        raise ValueError(f"sample dim {samples.dim} != grid dim {geometry.dim}")
    if semantics is Semantics.INNER:
        raise ValueError("INNER semantics is produced only by erode()")
    if semantics is Semantics.OUTER and not samples.exact:
        raise ValueError("OUTER rasterization requires exact samples")

    pts = samples.points
    origin = np.asarray(geometry.origin)
    upper = np.asarray(geometry.upper)
    inside = (pts >= origin).all(axis=1) & (pts <= upper).all(axis=1)
    if not inside.all():
        bad = tuple(float(x) for x in pts[np.argmin(inside)])
        raise ValueError(f"sample {bad} lies outside the grid box {geometry.origin}..{geometry.upper}")

    h = geometry.spacing
    idx = np.floor((pts - origin) / h).astype(np.int64)
    # A sample exactly on the upper face belongs to the last (closed) cell.
    np.minimum(idx, np.asarray(geometry.extents) - 1, out=idx)

    occ = np.zeros(geometry.extents, dtype=bool)
    occ[tuple(idx.T)] = True

    if semantics is Semantics.SAMPLE_COVER:
        return GridSet(geometry, occ, Semantics.SAMPLE_COVER, slack=samples.density)

    grow = int(math.ceil(samples.density / h))
    fat = PackedMask.pack(occ).padded(grow).dilate(grow).unpack()
    out_geom = GridGeometry(
        origin=tuple(o - grow * h for o in geometry.origin),
        spacing=h,
        extents=tuple(m + 2 * grow for m in geometry.extents),
    )
    return GridSet(out_geom, fat, Semantics.OUTER, slack=samples.density)


class PackedMask:
    """Occupancy bit-packed along the last axis, with box morphology on it.

    Bit ``t`` of byte ``b`` holds cell ``8 * b + t`` of the last axis (the
    layout of ``np.packbits(..., bitorder="little")``), and the byte axis is
    stored first, so a shift along any axis moves whole contiguous slabs.
    Bits past the last cell stay zero.  :meth:`dilate` and :meth:`erode` use
    the (2r+1)^n sup-norm box, keep the shape and count cells outside the
    array as empty: a dilated cell is within ``r`` of a set cell, an eroded
    cell has every cell within ``r`` inside the array and set.
    """

    def __init__(self, bits: NDArray[np.uint8], shape: tuple[int, ...]) -> None:
        self.bits = bits
        self.shape = shape

    @classmethod
    def pack(cls, occupancy: NDArray[np.bool_]) -> "PackedMask":
        occ = np.asarray(occupancy, dtype=bool)
        if occ.ndim == 0:
            raise ValueError("occupancy must have at least one axis")
        packed = np.packbits(occ, axis=-1, bitorder="little")
        return cls(np.ascontiguousarray(np.moveaxis(packed, -1, 0)), occ.shape)

    def unpack(self, window: Sequence[slice] | None = None) -> NDArray[np.bool_]:
        """Dense occupancy of the whole array, or of a box of unit-step slices."""
        if window is None:
            window = tuple(slice(None) for _ in self.shape)
        ranges = [s.indices(m) for s, m in zip(window, self.shape)]
        if any(step != 1 for _, _, step in ranges):
            raise ValueError("unpack windows must have unit step")
        start, stop, _ = ranges[-1]
        first = start // 8
        rows = (slice(first, max(first, -(-stop // 8))),)
        rows += tuple(slice(lo, hi) for lo, hi, _ in ranges[:-1])
        dense = np.unpackbits(
            np.moveaxis(self.bits[rows], 0, -1),
            axis=-1,
            count=max(stop - 8 * first, 0),
            bitorder="little",
        )
        return dense[..., start - 8 * first :].view(bool)

    def padded(self, pad: int) -> "PackedMask":
        """The mask inside ``pad`` empty cells on every side.

        Equals packing ``np.pad(occupancy, pad)`` without a dense copy: the
        packed rows are placed at the leading offsets, then moved ``pad``
        cells along the packed axis (whole bytes plus a bit shift).
        """
        if pad < 0:
            raise ValueError(f"pad must be >= 0, got {pad}")
        shape = tuple(m + 2 * pad for m in self.shape)
        bits = np.zeros((-(-shape[-1] // 8),) + shape[:-1], dtype=np.uint8)
        lead = tuple(slice(pad, pad + m) for m in self.shape[:-1])
        bits[(slice(0, self.bits.shape[0]),) + lead] = self.bits
        return PackedMask(_moved_bits(bits, pad), shape)

    def dilate(self, r: int) -> "PackedMask":
        """Box dilation by radius ``r`` cells (log-step shifted ORs)."""
        return self._box(r, np.bitwise_or)

    def erode(self, r: int) -> "PackedMask":
        """Box erosion by radius ``r`` cells (log-step shifted ANDs)."""
        return self._box(r, np.bitwise_and)

    def count(self) -> int:
        """Number of set cells."""
        return int(_POPCOUNT[self.bits].sum(dtype=np.int64))

    def any(self) -> bool:
        return bool(self.bits.any())

    def first(self) -> tuple[int, ...] | None:
        """Index of the first set cell in C order, or None when empty."""
        columns = self.bits.reshape(self.bits.shape[0], -1)
        live = columns.any(axis=0)
        if not live.any():
            return None
        col = int(np.argmax(live))
        byte_index = int(np.argmax(columns[:, col] != 0))
        byte = int(columns[byte_index, col])
        bit = (byte & -byte).bit_length() - 1
        lead = np.unravel_index(col, self.shape[:-1]) if len(self.shape) > 1 else ()
        return tuple(int(i) for i in lead) + (8 * byte_index + bit,)

    def _box(self, r: int, op: np.ufunc) -> "PackedMask":
        if r < 0:
            raise ValueError(f"box radius must be >= 0, got {r}")
        bits = self.bits.copy()
        if r == 0:
            return PackedMask(bits, self.shape)
        for axis in range(len(self.shape)):
            # Each output cell along the axis combines the window [i, i + r]
            # (built by doubling, reading only cells farther up, so the zero
            # fill is exactly "outside is empty") with the window [i - r, i].
            # For an erosion the lower window is the upper one moved up by r:
            # a window that leaves the array is empty either way.  For a
            # dilation a window reaching below the array still holds cells,
            # so the lower window is doubled on its own.
            if op is np.bitwise_and:
                self._window(bits, axis, r, -1, op)
                self._fold(bits, axis, r, op)
            else:
                lower = bits.copy()
                self._window(bits, axis, r, -1, op)
                self._window(lower, axis, r, 1, op)
                op(bits, lower, out=bits)
        return PackedMask(bits, self.shape)

    def _window(
        self, bits: NDArray[np.uint8], axis: int, r: int, direction: int, op: np.ufunc
    ) -> None:
        """In place: each cell combines the r + 1 cells from it going ``-direction``."""
        span = 1
        while span <= r:
            step = min(span, r + 1 - span)
            self._fold(bits, axis, direction * step, op)
            span += step

    def _fold(self, bits: NDArray[np.uint8], axis: int, shift: int, op: np.ufunc) -> None:
        """In place: cell i becomes ``op(cell i, cell i - shift)`` along ``axis``.

        Cells i - shift outside the array read as empty.
        """
        if axis == len(self.shape) - 1:
            op(bits, _moved_bits(bits, shift), out=bits)
            tail = self.shape[-1] % 8
            if tail:
                bits[-1] &= np.uint8((1 << tail) - 1)
            return
        k = axis + 1
        extent = bits.shape[k]
        keep = slice(shift, None) if shift > 0 else slice(0, extent + shift)
        take = slice(0, extent - shift) if shift > 0 else slice(-shift, None)
        hole = slice(0, shift) if shift > 0 else slice(extent + shift, None)
        if abs(shift) >= extent:
            keep = take = slice(0, 0)
            hole = slice(None)
        lead = (slice(None),) * k
        # ufuncs treat overlapping operands as if the inputs were copied first.
        op(bits[lead + (keep,)], bits[lead + (take,)], out=bits[lead + (keep,)])
        if op is np.bitwise_and:
            bits[lead + (hole,)] = 0


def _moved_bits(bits: NDArray[np.uint8], shift: int) -> NDArray[np.uint8]:
    """Packed rows whose cell i holds cell i - shift of the packed axis; zero fill."""
    rows = bits.shape[0]
    whole, part = divmod(abs(shift), 8)
    moved = np.zeros_like(bits)
    if whole >= rows:
        return moved
    # Multiplying by 2**part is the in-byte left shift; numpy's vectorised
    # multiply runs several times faster than its left shift on uint8.
    if shift > 0:
        np.multiply(bits[: rows - whole], np.uint8(1 << part), out=moved[whole:])
        if part:
            moved[whole + 1 :] |= bits[: rows - whole - 1] >> (8 - part)
    else:
        np.right_shift(bits[whole:], part, out=moved[: rows - whole])
        if part:
            moved[: rows - whole - 1] |= bits[whole + 1 :] * np.uint8(1 << (8 - part))
    return moved


def _combined_semantics(semantics: Semantics, slack: float, b: GridSet) -> tuple[Semantics, float]:
    """Semantics and slack of a sum whose left operand carries ``semantics``, ``slack``."""
    if semantics is not b.semantics:
        raise ValueError(
            f"cannot sum grids with mixed semantics {semantics.value} + {b.semantics.value}"
        )
    if semantics is Semantics.INNER:
        return Semantics.INNER, 0.0
    # One cell of slack accounts for the lattice-point snap inside each box.
    return semantics, slack + b.slack + b.spacing


def _sum_geometry(a: GridGeometry, b: GridGeometry) -> GridGeometry:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} != {b.dim}")
    if a.spacing != b.spacing:
        raise ValueError(f"grids must share spacing exactly, got {a.spacing} and {b.spacing}")
    return GridGeometry(
        origin=tuple(x + y for x, y in zip(a.origin, b.origin)),
        spacing=a.spacing,
        extents=tuple(p + q - 1 for p, q in zip(a.extents, b.extents)),
    )


def dilate_naive(a: GridSet, b: GridSet) -> GridSet:
    """Grid Minkowski sum by definition: occupied index sums, origins added.

    Shift-ORs the larger occupancy once per occupied cell of the smaller one,
    which is the direct reading of {i + j} and serves as the exact reference
    for the FFT route.
    """
    geom = _sum_geometry(a.geometry, b.geometry)
    semantics, slack = _combined_semantics(a.semantics, a.slack, b)
    shifts, body = (a, b) if a.occupied_count <= b.occupied_count else (b, a)
    out = np.zeros(geom.extents, dtype=bool)
    src = body.occupancy
    for cell in shifts.occupied_indices():
        window = tuple(slice(int(c), int(c) + m) for c, m in zip(cell, src.shape))
        out[window] |= src
    return GridSet(geom, out, semantics, slack)


def dilate_fft(a: GridSet, b: GridSet) -> GridSet:
    """FFT-convolution route; bit-identical to :func:`dilate_naive`.

    Convolution counts are integers bounded by the occupied-count product, so
    they are exact in float64 below 2**52; beyond that the call refuses with
    :class:`DilationPrecisionError` and the caller must fall back to the naive
    route.  A count is occupied when it exceeds 0.5, which is exactly the
    rounding test ``rint(count) >= 1`` (``rint(0.5) == 0``).

    A self-sum (the same raster twice, or two rasters with equal occupancy,
    whatever their origins: the index sums are the same) transforms once and
    squares the spectrum.  Output axes of extent 1 are dropped from the
    transform: both operands have extent 1 there, and a real transform along
    a length-1 last axis would make the whole spectrum complex-sized.
    """
    geom = _sum_geometry(a.geometry, b.geometry)
    semantics, slack = _combined_semantics(a.semantics, a.slack, b)
    if a.occupied_count * b.occupied_count >= _FFT_EXACT_LIMIT:
        raise DilationPrecisionError(
            "occupied-cell product exceeds the exact float64 range; use dilate_naive"
        )
    out_shape = geom.extents
    axes = [k for k, m in enumerate(out_shape) if m > 1] or [0]
    fast = [_fft.next_fast_len(out_shape[k]) for k in axes]
    workers = thread_count()

    def spectrum(occupancy: NDArray[np.bool_]) -> NDArray[np.complex128]:
        kept = occupancy.reshape([occupancy.shape[k] for k in axes])
        return _fft.rfftn(kept.astype(np.float64), fast, workers=workers)

    prod = spectrum(a.occupancy)
    if a is b or np.array_equal(a.occupancy, b.occupancy):
        np.multiply(prod, prod, out=prod)
    else:
        np.multiply(prod, spectrum(b.occupancy), out=prod)
    conv = _fft.irfftn(prod, fast, workers=workers)
    del prod
    occupied = conv[tuple(slice(0, out_shape[k]) for k in axes)] > 0.5
    return GridSet(geom, occupied.reshape(out_shape), semantics, slack)


def dilate(a: GridSet, b: GridSet) -> GridSet:
    """Minkowski sum choosing the cheaper exact route (FFT or shift-OR)."""
    small = min(a.occupied_count, b.occupied_count)
    if small == 0:
        return dilate_naive(a, b)
    out_cells = 1
    for p, q in zip(a.geometry.extents, b.geometry.extents):
        out_cells *= p + q - 1
    body_cells = max(int(np.prod(a.geometry.extents)), int(np.prod(b.geometry.extents)))
    naive_traffic = small * body_cells
    fft_traffic = out_cells * math.log2(max(out_cells, 2)) * 2
    if naive_traffic > _FFT_ADVANTAGE * fft_traffic:
        try:
            return dilate_fft(a, b)
        except DilationPrecisionError:
            pass
    return dilate_naive(a, b)


def minkowski_sum(rasters: Sequence[GridSet]) -> GridSet:
    """Grid Minkowski sum K_1 + ... + K_n, exactly ``dilate`` folded left to right.

    Geometry, semantics and slack are folded (and validated) over all inputs
    before a route is chosen, so every route returns the same grid set.  The
    cost model: when the output box exceeds ``_DENSE_SUM_LIMIT`` cells and the
    product of occupied counts (the most index-key pairs the sparse route can
    form) is below the output cell count, occupied index tuples are summed as
    flat keys in chunks of ``_SPARSE_CHUNK`` pairs and only the result is made
    dense; no dense intermediate is ever held.  Otherwise ``dilate`` is folded
    over the inputs, choosing FFT or shift-OR at each step.  A single input is
    returned as is.
    """
    rasters = list(rasters)
    if not rasters:
        raise ValueError("need at least one raster")
    geom = rasters[0].geometry
    semantics, slack = rasters[0].semantics, rasters[0].slack
    for r in rasters[1:]:
        geom = _sum_geometry(geom, r.geometry)
        semantics, slack = _combined_semantics(semantics, slack, r)
    out_cells = math.prod(geom.extents)
    pairs = math.prod(r.occupied_count for r in rasters)
    if len(rasters) == 1 or out_cells <= _DENSE_SUM_LIMIT or pairs >= out_cells:
        acc = rasters[0]
        for r in rasters[1:]:
            acc = dilate(acc, r)
        return acc
    weights = np.ones(geom.dim, dtype=np.int64)
    for i in range(geom.dim - 2, -1, -1):
        weights[i] = weights[i + 1] * geom.extents[i + 1]
    # Index sums never exceed the output extents, so key sums cannot carry
    # across axes and the flat keys add exactly like the index vectors.
    keys = np.unique(rasters[0].occupied_indices() @ weights)
    for r in rasters[1:]:
        if keys.size == 0:
            break
        other = np.unique(r.occupied_indices() @ weights)
        step = max(1, _SPARSE_CHUNK // max(len(other), 1))
        chunks = [
            np.unique((keys[i : i + step, None] + other[None, :]).ravel())
            for i in range(0, len(keys), step)
        ]
        keys = np.unique(np.concatenate(chunks))
    occupancy = np.zeros(geom.extents, dtype=bool)
    occupancy.reshape(-1)[keys] = True
    return GridSet(geom, occupancy, semantics, slack)


def nfold_sum(a: GridSet, n: int) -> GridSet:
    """n-fold grid sum a + ... + a; equals n-1 chained dilations."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return minkowski_sum([a] * n)


def negate(a: GridSet) -> GridSet:
    """Reflection through 0 of the occupied lattice points."""
    occ = a.occupancy[tuple(slice(None, None, -1) for _ in range(a.dim))].copy()
    origin = tuple(
        -(o + a.spacing * (m - 1)) for o, m in zip(a.geometry.origin, a.geometry.extents)
    )
    geom = GridGeometry(origin=origin, spacing=a.spacing, extents=a.geometry.extents)
    return GridSet(geom, occ, a.semantics, a.slack)


def erode(a: GridSet, r: int) -> GridSet:
    """Keep cells whose full r-cell sup-norm neighborhood is occupied.

    Requires OUTER input.  The result is tagged INNER exactly when
    ``r * h >= outer radius + h`` (the erosion outruns the outer slack);
    otherwise the semantics stays OUTER-derived, which callers must treat as
    "no inner guarantee".
    """
    if a.semantics is not Semantics.OUTER:
        raise ValueError("erode requires OUTER semantics")
    if r < 1:
        raise ValueError(f"erosion radius must be >= 1, got {r}")
    out = PackedMask.pack(a.occupancy).erode(r).unpack()
    guaranteed = r * a.spacing >= (a.slack + a.spacing) * (1.0 - 1e-9)
    if guaranteed:
        return GridSet(a.geometry, out, Semantics.INNER, slack=0.0)
    return GridSet(a.geometry, out, Semantics.OUTER, slack=a.slack)


@functools.cache
def _adjacency_structure(adjacency: str, dim: int) -> NDArray[np.bool_]:
    """The labeling structure for an adjacency, built once per dimension.

    The array is shared between calls, so it is read-only.
    """
    if adjacency == "face":
        structure = _ndimage.generate_binary_structure(dim, 1)
    elif adjacency == "chessboard":
        structure = np.ones((3,) * dim, dtype=bool)
    else:
        raise ValueError(f"unknown adjacency {adjacency!r}")
    structure.flags.writeable = False
    return structure


def connected_components(a: GridSet, adjacency: str = "face") -> list[set[tuple[int, ...]]]:
    """Occupied-cell components, in first-cell scan order.

    ``face`` adjacency (2n neighbors) is the default; ``chessboard`` also links
    diagonal cells, which is the right notion for rasters of eps-dense samples
    of connected sets whenever 2*eps <= h.
    """
    labels, count = _ndimage.label(a.occupancy, structure=_adjacency_structure(adjacency, a.dim))
    comps: list[set[tuple[int, ...]]] = [set() for _ in range(count)]
    for cell in np.argwhere(labels):
        comps[labels[tuple(cell)] - 1].add(tuple(int(c) for c in cell))
    return comps


def component_count(a: GridSet, adjacency: str = "face") -> int:
    _, count = _ndimage.label(a.occupancy, structure=_adjacency_structure(adjacency, a.dim))
    return int(count)


def is_grid_continuum(a: GridSet, adjacency: str = "face") -> bool:
    """True iff the occupied cells form exactly one non-empty component."""
    return component_count(a, adjacency) == 1


def cells_measure(count: int, spacing: float, dim: int) -> float:
    """Volume of ``count`` cells of side ``spacing`` in dimension ``dim``."""
    return float(count) * spacing**dim


def measure_estimate(a: GridSet) -> float:
    """Occupied volume: cell count times h^n, interpreted per the semantics tag."""
    return cells_measure(int(a.occupancy.sum()), a.spacing, a.dim)


def chessboard_distance_transform(mask: NDArray[np.bool_]) -> NDArray[np.int32]:
    """Exact sup-norm (chessboard) cell distance to the nearest True cell.

    scipy's chamfer transform with the full 3^n neighborhood, which is exact
    for the chessboard metric.  Cells of an all-False mask get
    :data:`DIST_INF`.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return np.full(mask.shape, DIST_INF, dtype=np.int32)
    out = _ndimage.distance_transform_cdt(~mask, metric="chessboard")
    return out.astype(np.int32, copy=False)


def _cube_cell_range(geometry: GridGeometry, center: Sequence[float], side: float) -> tuple[tuple[int, int], ...]:
    """Index range (inclusive) of cells whose interior meets the cube's interior."""
    if side <= 0:
        raise ValueError(f"cube side must be positive, got {side}")
    h = geometry.spacing
    ranges = []
    for k, (o, m) in enumerate(zip(geometry.origin, geometry.extents)):
        lo = center[k] - side / 2.0
        hi = center[k] + side / 2.0
        if lo < o - 1e-9 * h or hi > o + m * h + 1e-9 * h:
            raise CubeOutsideGridError(
                f"cube [{lo}, {hi}] exceeds grid box [{o}, {o + m * h}] on axis {k}"
            )
        i_min = int(math.floor((lo - o) / h + 1e-9))
        i_max = int(math.ceil((hi - o) / h - 1e-9)) - 1
        i_min = max(i_min, 0)
        i_max = min(i_max, m - 1)
        if i_max < i_min:
            raise ValueError(f"cube is thinner than one cell on axis {k}")
        ranges.append((i_min, i_max))
    return tuple(ranges)


def cube_coverage(a: GridSet, center: Sequence[float], side: float) -> bool:
    """True iff every cell meeting the cube is occupied."""
    window = tuple(slice(lo, hi + 1) for lo, hi in _cube_cell_range(a.geometry, center, side))
    return bool(a.occupancy[window].all())


def eps_density_margin(a: GridSet, center: Sequence[float], side: float) -> float:
    """Max over cube cells of the sup-norm distance (length units) to an occupied cell.

    0 means the cube is fully covered; ``inf`` means the grid is empty.
    """
    window = tuple(slice(lo, hi + 1) for lo, hi in _cube_cell_range(a.geometry, center, side))
    dist = chessboard_distance_transform(a.occupancy)
    worst = int(dist[window].max())
    if worst >= int(DIST_INF):
        return math.inf
    return worst * a.spacing


def thread_count() -> int:
    """Worker count from CONTINUUM_SUMS_THREADS (0 = auto, unset = 1)."""
    import os

    raw = os.environ.get("CONTINUUM_SUMS_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"CONTINUUM_SUMS_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"CONTINUUM_SUMS_THREADS must be >= 0, got {value}")
    if value == 0:
        return os.cpu_count() or 1
    return value
