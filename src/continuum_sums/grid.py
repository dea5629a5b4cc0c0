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
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np
from numpy.typing import NDArray
from scipy import fft as _fft

Point = tuple[float, ...]
_T = TypeVar("_T")
_U = TypeVar("_U")

# Product of occupied-cell counts must stay below 2**52 so every convolution
# coefficient is an exact float64 integer with slack for FFT roundoff.
_FFT_EXACT_LIMIT = 2**52

#: Most pair sums (index keys or runs) the sparse routes form at once.  A
#: chunk of 2**18 int64 sums is 2 MB.  At 2_000_000 sums (16 MB a chunk) the
#: chunks set most of the peak of the planar-cloud midpoint chain, whose
#: last run fold forms 3.3M pairs into 9.4M cells (100 MB traced by
#: tracemalloc; 51 MB at 2**18 with a whole-box difference array, 24 MB
#: with every run fold's difference array over two bands of
#: ``2 * _SPARSE_CHUNK`` cells, at least one output row each).
_SPARSE_CHUNK = 2**18

#: The key route's packed sink: a last fold whose output has more than this
#: many cells per pair sum ORs its pair keys into packed bits.  A bit set by
#: ``np.bitwise_or.at`` costs far more than a cell of a dense box to zero,
#: scatter into and pack, so the box wins when pair sums are many next to
#: the cells, and the sink when they are few.  Whole packed sums, dense box
#: against packed sink (best of 7, two cores): the 801^2 circle pair (1.2
#: cells a pair) 3.3 against 17.4 ms, the 151^3 tripod (41) 3.5 ms either
#: way, the 301^3 tripod (338) 21.2 against 8.9 ms, the 601^3 tripod
#: (2,694) 137 against 47 ms.
_PACKED_SINK_CELLS_PER_PAIR = 40

#: Bands of output rows (each about ``2 * _SPARSE_CHUNK`` cells) in the
#: difference-array window of a run fold, which moves up once per this many
#: bands less one.
_RUN_WINDOW_BANDS = 4

#: Most bytes of one slab of box morphology: dilations, erosions and counts
#: of a :class:`PackedMask` go one slab at a time, and a packed-axis bit
#: shift carries its bits through one scratch slab (a slab is one row or
#: plane of the array when that is larger).
_CARRY_BYTES = 2**20

#: A packed-axis fold of a mask larger than one slab gathers its live
#: columns (the lead-axis positions holding a set bit) when at most one
#: column in this many is live (see :func:`_box_packed_axis`).  A gathered
#: column costs more than a column folded in place, so a dense mask folds
#: faster whole.  Packed-axis box of a 41 x 323 x 323 mask (4.3 MB, random
#: live columns, best of 5, two cores), gathered against whole, r = 2: 1%
#: live 1.0 against 5.5 ms, 20% 4.7 against 5.9, 30% 7.1 against 6.0, 40%
#: 9.0 against 5.9; r = 8: 20% 5.2 against 8.0 ms.
_LIVE_COLUMN_SHARE = 5


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
    INNER: the union of occupied cells is contained in the underlying set.
    No package function produces it; the tag exists so that a sum of INNER
    grids, built by hand, stays INNER with slack 0 (acceptance criterion 01).
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

    def cells_of(self, points: NDArray[np.float64]) -> NDArray[np.int64]:
        """Index of the cell holding each point of the box: the floor of its
        offset in cells, and a point on the upper face in the last (closed) cell."""
        idx = np.floor((points - np.asarray(self.origin)) / self.spacing).astype(np.int64)
        np.minimum(idx, np.asarray(self.extents) - 1, out=idx)
        return idx

    def padded(self, cells: int) -> "GridGeometry":
        """This grid inside ``cells`` more cells on every side."""
        return GridGeometry(
            origin=tuple(o - cells * self.spacing for o in self.origin),
            spacing=self.spacing,
            extents=tuple(m + 2 * cells for m in self.extents),
        )

    def summed(self, other: "GridGeometry") -> "GridGeometry":
        """The grid of a sum of grids over ``self`` and ``other``: index sums
        add origins, and each axis spans both extents less one cell."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} != {other.dim}")
        if self.spacing != other.spacing:
            raise ValueError(
                f"grids must share spacing exactly, got {self.spacing} and {other.spacing}"
            )
        return GridGeometry(
            origin=tuple(x + y for x, y in zip(self.origin, other.origin)),
            spacing=self.spacing,
            extents=tuple(p + q - 1 for p, q in zip(self.extents, other.extents)),
        )


def auto_geometry(points: NDArray[np.float64], h: float, pad_cells: int = 0) -> GridGeometry:
    """Smallest grid at spacing ``h`` whose box covers ``points``, plus padding.

    Refused before any array is made: an axis whose cell count is infinite
    or past int64, and a grid whose cell count (the exact product of its
    padded extents) is past what one array can index.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (m, n) array")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extents = []
    for axis, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        span = (b - a) / h
        cells = math.floor(span) + 1 if math.isfinite(span) else math.inf
        if cells + 2 * pad_cells > np.iinfo(np.int64).max:
            raise ValueError(
                f"grid axis {axis} needs {cells + 2 * pad_cells:.3g} cells at h={h:g}, "
                "more than int64 holds"
            )
        extents.append(cells)
    padded = tuple(e + 2 * pad_cells for e in extents)
    if math.prod(padded) > np.iinfo(np.intp).max:
        raise ValueError(
            f"grid of extents {padded} at h={h:g} has {math.prod(padded)} cells, "
            "more than one array can index"
        )
    return GridGeometry(tuple(lo.tolist()), float(h), tuple(extents)).padded(pad_cells)


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
    or 0.0 (INNER).  All length units, not cell counts.  No package function
    produces an INNER grid; sums of INNER grids keep slack 0 (criterion 01).
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
        return int(np.count_nonzero(self.occupancy))

    def occupied_indices(self) -> NDArray[np.int64]:
        """The occupied cells' indices, (k, n) in C order: :func:`occupied_cells`."""
        return occupied_cells(self.occupancy)


def occupied_cells(occupancy: NDArray[np.bool_]) -> NDArray[np.int64]:
    """Indices of the set cells of ``occupancy`` as (k, n) int64 rows in C order.

    The values, dtype and order of ``np.argwhere``, read from the flat
    indices: on numpy 2.x, ``flatnonzero`` then ``unravel_index`` costs
    about a tenth of N-d ``argwhere`` (0.9 against 4.6 ms on a 107^3
    raster holding 15k cells).
    """
    return np.stack(np.unravel_index(np.flatnonzero(occupancy), occupancy.shape), axis=1)


def rasterize(
    samples: SampledSet,
    geometry: GridGeometry,
    semantics: Semantics = Semantics.SAMPLE_COVER,
) -> GridSet:
    """Mark the cells holding samples; OUTER additionally dilates by ceil(eps/h).

    Every sample must lie inside the geometry's box; the error names the first
    offender.  INNER is refused: no sample list bounds a set from below.
    """
    if samples.dim != geometry.dim:
        raise ValueError(f"sample dim {samples.dim} != grid dim {geometry.dim}")
    if semantics is Semantics.INNER:
        raise ValueError("INNER semantics cannot be rasterized from samples")
    if semantics is Semantics.OUTER and not samples.exact:
        raise ValueError("OUTER rasterization requires exact samples")

    pts = samples.points
    origin = np.asarray(geometry.origin)
    upper = np.asarray(geometry.upper)
    inside = (pts >= origin).all(axis=1) & (pts <= upper).all(axis=1)
    if not inside.all():
        bad = tuple(float(x) for x in pts[np.argmin(inside)])
        raise ValueError(f"sample {bad} lies outside the grid box {geometry.origin}..{geometry.upper}")

    occ = np.zeros(geometry.extents, dtype=bool)
    occ[tuple(geometry.cells_of(pts).T)] = True

    if semantics is Semantics.SAMPLE_COVER:
        return GridSet(geometry, occ, Semantics.SAMPLE_COVER, slack=samples.density)

    grow = int(math.ceil(samples.density / geometry.spacing))
    fat = PackedMask.pack(occ).padded(grow).dilate_in_place(grow).unpack()
    return GridSet(geometry.padded(grow), fat, Semantics.OUTER, slack=samples.density)


class PackedMask:
    """Occupancy bit-packed along the last axis, with box morphology on it.

    Bit ``t`` of byte ``b`` holds cell ``8 * b + t`` of the last axis (the
    layout of ``np.packbits(..., bitorder="little")``), and the byte axis is
    stored first, so a shift along any axis moves whole contiguous slabs.
    Bits past the last cell stay zero.  ``bits`` may hold only a box of the
    mask's ``shape``: its first cell is the mask's cell ``offset`` (a whole
    byte on the last axis), and every cell outside the box is empty.  An
    erosion is kept on such a box, which every method but :meth:`dilate`
    and :meth:`padded` (they raise ``ValueError``) reads in the coordinates
    of ``shape``.  :meth:`dilate` and :meth:`erode` use the
    (2r+1)^n sup-norm box, keep the shape and count cells outside the array
    as empty: a dilated cell is within ``r`` of a set cell, an eroded cell
    has every cell within ``r`` inside the array and set.  A cell's
    chessboard distance to the set is the smallest ``r`` whose dilation
    holds it.  Morphology and :meth:`count` work one slab of at most
    ``_CARRY_BYTES`` at a time (or one row or plane of the array, when that
    is larger), and their cost follows what they read: a fold along the
    packed axis of a sparse mask reads its live columns only, the lead-axis
    positions holding a set bit, and an erosion reads the set bytes' box.
    """

    def __init__(
        self, bits: NDArray[np.uint8], shape: tuple[int, ...], offset: tuple[int, ...] | None = None
    ) -> None:
        self.bits = bits
        self.shape = shape
        self.offset = (0,) * len(shape) if offset is None else offset

    @classmethod
    def pack(cls, occupancy: NDArray[np.bool_]) -> "PackedMask":
        occ = np.asarray(occupancy, dtype=bool)
        if occ.ndim == 0:
            raise ValueError("occupancy must have at least one axis")
        # Packing along the moved axis writes the byte axis first directly;
        # the copy is a no-op unless the input's layout was carried over.
        bits = np.packbits(np.moveaxis(occ, -1, 0), axis=0, bitorder="little")
        return cls(np.ascontiguousarray(bits), occ.shape)

    def unpack(self, window: Sequence[slice] | None = None) -> NDArray[np.bool_]:
        """Dense occupancy of the whole array, or of a box of unit-step slices."""
        if window is None:
            window = tuple(slice(None) for _ in self.shape)
        ranges = [s.indices(m) for s, m in zip(window, self.shape)]
        if any(step != 1 for _, _, step in ranges):
            raise ValueError("unpack windows must have unit step")
        # The window cut to the box, in the box's cells.
        origin = self.offset
        extents = self.bits.shape[1:] + (min(8 * self.bits.shape[0], self.shape[-1] - origin[-1]),)
        cut = []
        for (lo, hi, _), o, e in zip(ranges, origin, extents):
            start = min(max(lo - o, 0), e)
            cut.append((start, max(min(hi - o, e), start)))
        start, stop = cut[-1]
        first = start // 8
        rows = (slice(first, max(first, -(-stop // 8))),)
        rows += tuple(slice(lo, hi) for lo, hi in cut[:-1])
        dense = np.unpackbits(
            np.moveaxis(self.bits[rows], 0, -1),
            axis=-1,
            count=max(stop - 8 * first, 0),
            bitorder="little",
        )[..., start - 8 * first :].view(bool)
        size = tuple(max(hi - lo, 0) for lo, hi, _ in ranges)
        if dense.shape == size:
            return dense
        out = np.zeros(size, dtype=bool)
        at = tuple(
            slice(o + lo - w, o + hi - w) for (lo, hi), o, (w, _, _) in zip(cut, origin, ranges)
        )
        out[at] = dense
        return out

    def padded(self, pad: int) -> "PackedMask":
        """The mask inside ``pad`` empty cells on every side.

        Equals packing ``np.pad(occupancy, pad)`` without a dense copy, built
        in the one result array: each packed row is written at the leading
        offsets, moved ``pad`` cells along the packed axis (whole bytes plus
        a bit shift), and the bits it carries into the next byte are ORed in
        one slab of planes at a time.
        """
        if pad < 0:
            raise ValueError(f"pad must be >= 0, got {pad}")
        if self.bits.shape != (-(-self.shape[-1] // 8),) + self.shape[:-1]:
            raise ValueError("a mask kept on a box cannot be dilated or padded")
        src = self.bits
        shape = tuple(m + 2 * pad for m in self.shape)
        bits = np.zeros((-(-shape[-1] // 8),) + shape[:-1], dtype=np.uint8)
        lead = tuple(slice(pad, pad + m) for m in self.shape[:-1])
        rows = src.shape[0]
        whole, part = divmod(pad, 8)
        np.multiply(src, np.uint8(1 << part), out=bits[(slice(whole, whole + rows),) + lead])
        # Bits carried past the last byte would lie beyond the last cell, so
        # they are zero and need no row.
        carried = min(rows, bits.shape[0] - whole - 1)
        if part and carried > 0:
            dest = bits[(slice(whole + 1, whole + 1 + carried),) + lead]
            scratch = _slab_scratch(src.shape)
            _or_slabs(dest, src[:carried], np.right_shift, np.uint8(8 - part), scratch)
        return PackedMask(bits, shape)

    def dilate(self, r: int) -> "PackedMask":
        """Box dilation by radius ``r`` cells (log-step shifted ORs), in a copy."""
        return PackedMask(np.array(self.bits), self.shape).dilate_in_place(r)

    def dilate_in_place(self, r: int) -> "PackedMask":
        """:meth:`dilate`, built in this mask's own array, which the mask gives up.

        An array of at most one slab is folded along every axis in one
        chain through one more array of its size.  A larger one has its
        packed axis folded first, by :func:`_box_packed_axis`: a dilation
        keeps the set of live columns, so when few are live only they are
        gathered, folded and scattered back, and otherwise the array is
        folded one slab of the first lead axis at a time.  Its lead axes are
        then folded one slab of byte rows at a time.  Each slab passes
        through two slab-sized buffers and is written back, so the dilation
        holds the array and two slabs (and the list of live columns when it
        gathers them).  The mask keeps no bits, so using it afterwards
        raises ``AttributeError``.
        """
        if r < 0:
            raise ValueError(f"box radius must be >= 0, got {r}")
        if self.bits.shape != (-(-self.shape[-1] // 8),) + self.shape[:-1]:
            raise ValueError("a mask kept on a box cannot be dilated or padded")
        bits = np.ascontiguousarray(self.bits)
        del self.bits
        tail = self.shape[-1] % 8
        if bits.nbytes <= _CARRY_BYTES:
            # One slab: every fold in one chain through one spare array.
            bits = _box(bits, (np.empty_like(bits), bits), tail, r, np.bitwise_or, range(bits.ndim))
        else:
            _box_packed_axis(bits, tail, r, np.bitwise_or)
            _box_in_place(bits, tail, r, np.bitwise_or, range(1, bits.ndim), 0)
        return PackedMask(bits, self.shape)

    def erode(self, r: int) -> "PackedMask":
        """Box erosion by radius ``r`` cells (log-step shifted ANDs), kept on its live box.

        The erosion reads only the bounding box of the set bytes.  Cells
        outside that box are empty, so a window leaving it is empty either
        way and the result is exact; a box thinner than 2r + 1 cells on some
        axis erodes to nothing at once.  A box of at most one slab is folded
        along every axis in one chain through two arrays of its size, and
        the result holds that box.  A larger box has its lead axes folded
        first, one slab of byte rows at a time; each slab is cropped to the
        bounding box of its own set bytes before it is folded, and keeps only
        the bounding box of what survives.  The packed axis, whose folds
        cost four numpy passes where a lead-axis fold costs one, is then
        folded in place on the union of those boxes, which the result holds,
        by :func:`_box_packed_axis` (an erosion along it never makes an
        empty column live, so it too may read the live columns only).
        Either way the result is kept on its box, with its offset: no array
        of the whole shape is made.
        """
        if r < 0:
            raise ValueError(f"box radius must be >= 0, got {r}")
        box = _live_box(self.bits)
        offset, extents = self._sub(box) if box is not None else ((), (0,))
        if min(extents) < 2 * r + 1:
            return PackedMask(np.zeros((0,) * len(self.shape), np.uint8), self.shape)
        crop = self.bits[box]
        tail = extents[-1] % 8
        if crop.nbytes <= _CARRY_BYTES:
            # One slab: every axis in one chain through two new arrays, the
            # packed axis first, whose folds read the crop without a copy.
            # Cells within r of the box's lead faces erode away.
            if r:
                spare = (np.empty(crop.shape, np.uint8), np.empty(crop.shape, np.uint8))
                done = _box(crop, spare, tail, r, np.bitwise_and, range(crop.ndim))
            else:
                done = np.array(crop)
            inner = (slice(None),) + tuple(slice(r, m - r) for m in crop.shape[1:])
            offset = tuple(o + r for o in offset[:-1]) + offset[-1:]
            return PackedMask(done[inner], self.shape, offset)
        cuts, size = _slabs(crop.shape, 0)
        buffers = np.empty((2, size), np.uint8)
        kept = []
        for cut in cuts:
            # Each slab is cropped to its own live box, which is exact: the
            # cells outside it are empty either way.
            held = _live_box(crop[cut])
            if held is None:
                continue
            part = crop[cut][held]
            a, b = (buf[: part.size].reshape(part.shape) for buf in buffers)
            b[...] = part
            done = _box(b, (a, b), tail, r, np.bitwise_and, range(1, crop.ndim))
            live = _live_box(done)
            if live is not None:
                corner = [h.start + s.start for h, s in zip(held, live)]
                corner[0] += cut[0].start
                kept.append((tuple(corner), done[live].copy()))
        del buffers
        if not kept:
            return PackedMask(np.zeros((0,) * len(self.shape), np.uint8), self.shape)
        low = [min(c[k] for c, _ in kept) for k in range(len(self.shape))]
        high = [max(c[k] + p.shape[k] for c, p in kept) for k in range(len(self.shape))]
        bits = np.zeros([hi - lo for lo, hi in zip(low, high)], np.uint8)
        while kept:
            corner, part = kept.pop()
            at = tuple(slice(c - lo, c - lo + m) for c, lo, m in zip(corner, low, part.shape))
            bits[at] = part
        union = tuple(slice(s.start + lo, s.start + hi) for s, lo, hi in zip(box, low, high))
        offset, extents = self._sub(union)
        _box_packed_axis(bits, extents[-1] % 8, r, np.bitwise_and)
        return PackedMask(bits, self.shape, offset)

    def count(self) -> int:
        """Number of set cells, counted one slab at a time.

        A contiguous slab is counted as 64-bit words plus its last few
        bytes, several times faster than byte by byte (0.48 against 2.2 ms
        on a 4.28 MB mask); a slab of a mask kept on a non-contiguous view
        is copied first.
        """
        cuts, _ = _slabs(self.bits.shape, 0)
        total = 0
        for cut in cuts:
            flat = np.ravel(self.bits[cut])
            words = flat.size // 8 * 8
            total += int(np.bitwise_count(flat[:words].view(np.uint64)).sum(dtype=np.int64))
            total += int(np.bitwise_count(flat[words:]).sum(dtype=np.int64))
        return total

    def any(self) -> bool:
        return bool(self.bits.any())

    def all_set(self, window: Sequence[slice]) -> bool:
        """Whether every cell of a box of unit-step slices is set, read from the packed bytes.

        Equals ``unpack(window).all()`` without unpacking: the window's byte
        rows must hold every bit, less the cells before its first cell in
        the first byte and after its last cell in the last.
        """
        ranges = [s.indices(m) for s, m in zip(window, self.shape)]
        if any(step != 1 for _, _, step in ranges):
            raise ValueError("windows must have unit step")
        if any(lo >= hi for lo, hi, _ in ranges):
            return True
        # In the box's cells: a window leaving the box holds an empty cell.
        cut = [(lo - o, hi - o) for (lo, hi, _), o in zip(ranges, self.offset)]
        extents = self.bits.shape[1:] + (8 * self.bits.shape[0],)
        if any(lo < 0 or hi > e for (lo, hi), e in zip(cut, extents)):
            return False
        lo, hi = cut[-1]
        rows = self.bits[(slice(lo // 8, -(-hi // 8)),) + tuple(slice(a, b) for a, b in cut[:-1])]
        need = np.full((len(rows),) + (1,) * (rows.ndim - 1), 0xFF, dtype=np.uint8)
        need[0] &= np.uint8(0xFF << lo % 8 & 0xFF)
        need[-1] &= np.uint8(0xFF >> -hi % 8)
        return bool(((rows & need) == need).all())

    def first(self) -> tuple[int, ...] | None:
        """Index of the first set cell in C order, or None when empty."""
        columns = self.bits.reshape(self.bits.shape[0], math.prod(self.bits.shape[1:]))
        live = columns.any(axis=0)
        if not live.any():
            return None
        col = int(np.argmax(live))
        byte_index = int(np.argmax(columns[:, col] != 0))
        byte = int(columns[byte_index, col])
        bit = (byte & -byte).bit_length() - 1
        lead = np.unravel_index(col, self.bits.shape[1:]) if len(self.shape) > 1 else ()
        index = tuple(int(i) for i in lead) + (8 * byte_index + bit,)
        return tuple(i + o for i, o in zip(index, self.offset))

    def _sub(self, box: tuple[slice, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """First cell and cell extents of ``box``, a box of ``bits`` (byte axis first)."""
        lead = tuple(o + s.start for o, s in zip(self.offset[:-1], box[1:]))
        start = self.offset[-1] + 8 * box[0].start
        stop = min(self.offset[-1] + 8 * box[0].stop, self.shape[-1])
        extents = tuple(s.stop - s.start for s in box[1:]) + (max(stop - start, 0),)
        return lead + (start,), extents


def _live_box(bits: NDArray[np.uint8]) -> tuple[slice, ...] | None:
    """Bounding box of the non-zero bytes of ``bits`` (byte axis first), or None when empty."""
    lead: tuple[slice, ...] = ()
    if bits.ndim > 1:
        plane = np.bitwise_or.reduce(bits, axis=0)
        for axis in range(plane.ndim):
            others = tuple(k for k in range(plane.ndim) if k != axis)
            live = (plane.any(axis=others) if others else plane).nonzero()[0]
            if live.size == 0:
                return None
            lead += (slice(int(live[0]), int(live[-1]) + 1),)
    crop = bits[(slice(None),) + lead]
    rows = crop.any(axis=tuple(range(1, crop.ndim))) if crop.ndim > 1 else crop
    live = rows.nonzero()[0]
    if live.size == 0:
        return None
    return (slice(int(live[0]), int(live[-1]) + 1),) + lead


def _slabs(shape: tuple[int, ...], axis: int) -> tuple[list[tuple[slice, ...]], int]:
    """Cuts of an array of ``shape`` into slabs along ``axis``, and the largest slab's size.

    A slab holds at most ``_CARRY_BYTES`` bytes, or one index of ``axis``
    when that is larger; an array with no such axis is one slab.
    """
    if axis >= len(shape):
        return [(slice(None),) * len(shape)], math.prod(shape)
    per = math.prod(shape[:axis] + shape[axis + 1 :])
    step = max(1, _CARRY_BYTES // max(per, 1))
    head = (slice(None),) * axis
    cuts = [head + (slice(i, i + step),) for i in range(0, shape[axis], step)]
    return cuts, per * min(step, shape[axis])


def _box_in_place(
    bits: NDArray[np.uint8], tail: int, r: int, op: np.ufunc, axes: Sequence[int], across: int
) -> None:
    """Fold ``bits`` by :func:`_box` along ``axes``, in place, one slab along ``across`` at a time.

    The slabs pass through two reused buffers of the largest slab's size.
    """
    if not r or not axes:
        return
    cuts, size = _slabs(bits.shape, across)
    buffers = np.empty((2, size), np.uint8)
    for cut in cuts:
        view = bits[cut]
        spare = tuple(buf[: view.size].reshape(view.shape) for buf in buffers)
        _box(view, spare, tail, r, op, axes, out=view)


def _box_packed_axis(bits: NDArray[np.uint8], tail: int, r: int, op: np.ufunc) -> None:
    """Fold the C-contiguous ``bits`` by :func:`_box` along the byte axis, in place.

    A column (one lead-axis position) with no set bit stays empty under
    either fold, so when at most one column in ``_LIVE_COLUMN_SHARE`` is
    live, the live columns are gathered into slabs of at most
    ``_CARRY_BYTES``, folded and scattered back.  Otherwise the whole
    array is folded one slab of its first lead axis at a time.
    """
    if not r:
        return
    columns = bits.reshape(bits.shape[0], -1)
    held = columns.any(axis=0)
    if _LIVE_COLUMN_SHARE * np.count_nonzero(held) > held.size:
        del held
        _box_in_place(bits, tail, r, op, (0,), 1)
        return
    live = np.flatnonzero(held)
    del held
    rows = bits.shape[0]
    step = max(1, _CARRY_BYTES // rows)
    buffers = np.empty((2, rows * min(step, len(live))), np.uint8)
    for i in range(0, len(live), step):
        cut = live[i : i + step]
        part, spare = (buf[: rows * len(cut)].reshape(rows, len(cut)) for buf in buffers)
        np.take(columns, cut, axis=1, out=part)
        columns[:, cut] = _box(part, (spare, part), tail, r, op, (0,))


def _box(
    src: NDArray[np.uint8],
    spare: tuple[NDArray[np.uint8], NDArray[np.uint8]],
    tail: int,
    r: int,
    op: np.ufunc,
    axes: Sequence[int],
    out: NDArray[np.uint8] | None = None,
) -> NDArray[np.uint8]:
    """The box dilation (OR) or erosion (AND) of the packed ``src`` by ``r`` along ``axes``.

    ``axes`` index ``src``'s dimensions: 0 is the byte axis, whose last
    byte holds ``tail`` cells (all 8 when ``tail`` is 0).  Along each axis
    every cell first combines the window [i, i + r], built by doubling and
    reading only cells farther up, so the zero fill is exactly "outside is
    empty".  Then it combines the same window moved up by r, [i - r, i].
    For an erosion a moved window that leaves the array is empty either
    way.  For a dilation cell i < r takes the window of cell 0 instead,
    [0, r], which lies inside [i - r, i + r] and, with [i, i + r], covers
    its cells in the array.

    The folds read ``src`` first and then alternate between the two
    ``spare`` arrays of its shape (``src`` may be the second of them).  The
    last fold writes into ``out`` when it is given (which may be ``src``),
    and the array holding the result is returned.  A lead-axis fold needs
    C-contiguous arrays.  A fold along the byte axis also holds the bits
    that cross a byte boundary, in one scratch slab of at most
    ``_CARRY_BYTES`` (or one plane).
    """
    shifts = []
    span = 1
    while span <= r:
        step = min(span, r + 1 - span)
        shifts.append(-step)
        span += step
    folds = [(axis, shift) for axis in axes for shift in shifts + [r]] if r else []
    scratch = _slab_scratch(src.shape) if 0 in axes else None
    for i, (axis, shift) in enumerate(folds):
        dest = out if out is not None and i == len(folds) - 1 else spare[i % 2]
        _fold(src, dest, scratch, tail, axis, shift, op)
        src = dest
    return src


def _fold(
    src: NDArray[np.uint8],
    out: NDArray[np.uint8],
    scratch: NDArray[np.uint8] | None,
    tail: int,
    axis: int,
    shift: int,
    op: np.ufunc,
) -> None:
    """Write ``op(cell i, cell i - shift)`` of ``src`` along ``axis`` into ``out``.

    ``axis`` indexes ``src``'s dimensions, the byte axis first.  A cell
    i - shift above the array reads as empty.  One below it reads as empty
    for an AND and as cell 0 for an OR, as :func:`_box` needs.  ``scratch``
    is a :func:`_slab_scratch` of ``src``'s shape, used by byte-axis folds.
    """
    is_or = op is np.bitwise_or
    if axis == 0:
        _moved_bits(src, out, scratch, shift)
        if shift > 0 and is_or:
            cell0 = (src[0] & np.uint8(1)) * np.uint8(0xFF)
            whole, part = divmod(shift, 8)
            out[:whole] |= cell0
            if part and whole < out.shape[0]:
                out[whole] |= cell0 & np.uint8((1 << part) - 1)
        op(out, src, out=out)
        if tail:
            out[-1] &= np.uint8((1 << tail) - 1)
        return
    lead = (slice(None),) * axis
    extent = src.shape[axis]
    t = min(abs(shift), extent)
    if t < extent:
        # One flat shift by t slabs: the cells it pairs across the axis's
        # end are exactly the edge cells, rewritten below.  A short inner
        # axis runs several times faster flat than as strided rows.
        step = t * math.prod(src.shape[axis + 1 :])
        flat, dest = src.reshape(-1), out.reshape(-1)
        if shift > 0:
            op(flat[step:], flat[:-step], out=dest[step:])
        else:
            op(flat[:-step], flat[step:], out=dest[:-step])
    edge = slice(0, t) if shift > 0 else slice(extent - t, None)
    if not is_or:
        out[lead + (edge,)] = 0
    elif shift > 0:
        np.bitwise_or(src[lead + (edge,)], src[lead + (slice(0, 1),)], out=out[lead + (edge,)])
    else:
        out[lead + (edge,)] = src[lead + (edge,)]


def _moved_bits(
    bits: NDArray[np.uint8], out: NDArray[np.uint8], scratch: NDArray[np.uint8], shift: int
) -> None:
    """Write into ``out`` the packed rows whose cell i is cell i - shift; zero fill.

    ``scratch`` is a :func:`_slab_scratch` of ``bits``'s shape.
    """
    rows = bits.shape[0]
    whole, part = divmod(abs(shift), 8)
    if whole >= rows:
        out[...] = 0
        return
    # Multiplying by 2**part is the in-byte left shift; numpy's vectorised
    # multiply runs several times faster than its left shift on uint8.
    if shift > 0:
        np.multiply(bits[: rows - whole], np.uint8(1 << part), out=out[whole:])
        out[:whole] = 0
        if part:
            carried = bits[: rows - whole - 1]
            _or_slabs(out[whole + 1 :], carried, np.right_shift, np.uint8(8 - part), scratch)
    else:
        np.right_shift(bits[whole:], np.uint8(part), out=out[: rows - whole])
        out[rows - whole :] = 0
        if part:
            low = slice(0, rows - whole - 1)
            _or_slabs(out[low], bits[whole + 1 :], np.multiply, np.uint8(1 << (8 - part)), scratch)


def _slab_scratch(shape: tuple[int, ...]) -> NDArray[np.uint8]:
    """Scratch for :func:`_or_slabs` on arrays of ``shape``: one slab of planes.

    A slab holds at most ``_CARRY_BYTES``, or one plane when a plane is
    larger, so the scratch stays small next to the arrays it serves.
    """
    plane = math.prod(shape[1:])
    return np.empty((min(shape[0], max(1, _CARRY_BYTES // max(plane, 1))),) + shape[1:], np.uint8)


def _or_slabs(
    out: NDArray[np.uint8],
    src: NDArray[np.uint8],
    op: np.ufunc,
    arg: np.uint8,
    scratch: NDArray[np.uint8],
) -> None:
    """``out |= op(src, arg)``, one slab of ``scratch``'s planes at a time."""
    step = len(scratch)
    for i in range(0, len(src), step):
        slab = scratch[: min(step, len(src) - i)]
        op(src[i : i + step], arg, out=slab)
        out[i : i + step] |= slab


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


def dilate_naive(a: GridSet, b: GridSet) -> GridSet:
    """Grid Minkowski sum by definition: occupied index sums, origins added.

    Shift-ORs the larger occupancy once per occupied cell of the smaller one,
    which is the direct reading of {i + j}: the exact reference for the FFT
    route.
    """
    geom = a.geometry.summed(b.geometry)
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

    This is :func:`minkowski_sum`'s dense fold, and the route that acceptance
    criterion 01 holds to :func:`dilate_naive` cell for cell.  Convolution
    counts are integers bounded by the occupied-count product, so they are
    exact in float64 below 2**52; beyond that the call refuses with
    :class:`DilationPrecisionError` (a ``ValueError``, so the CLI exits 2).
    The box product bounds the occupied product, so occupied cells
    are counted only when the box product reaches the limit.  A count is
    occupied when it exceeds 0.5, which is exactly the rounding test
    ``rint(count) >= 1`` (``rint(0.5) == 0``).
    """
    geom = a.geometry.summed(b.geometry)
    semantics, slack = _combined_semantics(a.semantics, a.slack, b)
    if (
        a.occupancy.size * b.occupancy.size >= _FFT_EXACT_LIMIT
        and a.occupied_count * b.occupied_count >= _FFT_EXACT_LIMIT
    ):
        raise DilationPrecisionError(
            "occupied-cell product exceeds the exact float64 range of an FFT sum; "
            "coarsen h or sum fewer cells"
        )
    fast = [_fft.next_fast_len(m) for m in geom.extents]
    prod = _fft.rfftn(a.occupancy.astype(np.float64), fast)
    prod *= _fft.rfftn(b.occupancy.astype(np.float64), fast)
    conv = _fft.irfftn(prod, fast)
    del prod
    occupied = conv[tuple(slice(0, m) for m in geom.extents)] > 0.5
    return GridSet(geom, occupied, semantics, slack)


def _sorted_distinct(keys: NDArray[np.int64]) -> NDArray[np.int64]:
    """The distinct keys in ascending order, the array ``np.unique`` returns.

    Sorts, then keeps each key that differs from its left neighbour; on
    numpy 2.x this is far cheaper than ``np.unique``'s hash-based path.
    """
    keys = np.sort(keys, axis=None)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _pair_sums(keys: NDArray[np.int64], other: NDArray[np.int64]) -> Iterator[NDArray[np.int64]]:
    """Every key plus every ``other`` key, in chunks of at most ``_SPARSE_CHUNK`` sums.

    Rows ``[i, i + step)`` of ``keys`` meet the columns of ``other`` in
    blocks, split along the columns too when one row alone exceeds the
    chunk.  When ``keys is other`` (a fold of one object with itself) the
    rows meet columns ``[i:]`` only: sums commute, so each unordered pair is
    formed once, plus the lower triangle inside each block of rows.
    """
    same = keys is other
    i = 0
    while i < len(keys):
        cols = other[i:] if same else other
        step = max(1, _SPARSE_CHUNK // max(len(cols), 1))
        rows = keys[i : i + step, None]
        for j in range(0, len(cols), _SPARSE_CHUNK):
            yield (rows + cols[None, j : j + _SPARSE_CHUNK]).ravel()
        i += step


#: Runs as flat ``[start, end)`` keys: the start array and the end array.
_Runs = tuple[NDArray[np.int64], NDArray[np.int64]]


def _runs(occupancy: NDArray[np.bool_], weights: NDArray[np.int64], axis: int) -> _Runs:
    """Maximal runs of occupied cells along ``axis``, as flat ``[start, end)`` keys.

    Every axis after ``axis`` has extent 1 in the output, hence in
    ``occupancy``, so ``weights[axis]`` is 1 and the keys of one run are
    consecutive.
    """
    rows = occupancy.reshape(-1, occupancy.shape[axis])
    # The edges of the runs, read from flat indices (see :func:`occupied_cells`).
    edges = np.diff(rows, axis=1, prepend=False, append=False)
    row, col = np.divmod(np.flatnonzero(edges), edges.shape[1])
    row_keys = np.zeros(1, dtype=np.int64)
    for m, w in zip(occupancy.shape[:axis], weights[:axis]):
        row_keys = (row_keys[:, None] + np.arange(m, dtype=np.int64) * w).ravel()
    keys = row_keys[row] + col
    return keys[::2], keys[1::2]


def _run_pair_sums(runs: _Runs, other: _Runs) -> Iterator[_Runs]:
    """Every run plus every ``other`` run, in chunks of at most ``_SPARSE_CHUNK`` pairs.

    ``[s1, e1) + [s2, e2)`` is the one run ``[s1 + s2, e1 + e2 - 1)``.  The
    ends are summed as given, so a runs tuple summed with itself keeps its
    identity and forms each unordered pair once (see :func:`_pair_sums`).
    """
    for starts, ends in zip(_pair_sums(runs[0], other[0]), _pair_sums(runs[1], other[1])):
        ends -= 1
        yield starts, ends


def each_once(items: Sequence[_T], make: Callable[[_T], _U]) -> list[_U]:
    """``make`` of every item, called once per distinct object, in item order.

    Repeated items get the one made object, so a fold can tell a sum of an
    object with itself by identity.
    """
    made: dict[int, _U] = {}
    for item in items:
        if id(item) not in made:
            made[id(item)] = make(item)
    return [made[id(item)] for item in items]


def _key_sum(
    rasters: list[GridSet], extents: tuple[int, ...], weights: NDArray[np.int64], packed: bool
) -> NDArray[np.bool_] | PackedMask:
    """Occupancy of the sum, from the flat index keys of the occupied cells.

    With ``packed``, a last fold that has more than
    ``_PACKED_SINK_CELLS_PER_PAIR`` output cells per pair sum writes each
    pair key as one bit of a :class:`PackedMask`; every other last fold
    scatters into a dense box.
    """
    # Operand indices lie below the output extents: C order gives ascending keys.
    keyed = each_once(rasters, lambda r: r.occupied_indices() @ weights)
    keys = keyed[0]
    for other in keyed[1:-1]:
        chunks = [_sorted_distinct(c) for c in _pair_sums(keys, other)]
        # No chunk means an empty operand, hence an empty sum.
        keys = _sorted_distinct(np.concatenate(chunks)) if chunks else keys[:0]
    last = keyed[-1]
    out_cells = math.prod(extents)
    if packed and out_cells > _PACKED_SINK_CELLS_PER_PAIR * len(keys) * len(last):
        # Key lead * width + col is cell col of C-order row lead, which is bit
        # col & 7 of byte (col >> 3) * lead_cells + lead of the packed array.
        width = extents[-1]
        lead_cells = out_cells // width
        bits = np.zeros((-(-width // 8),) + extents[:-1], dtype=np.uint8)
        flat_bits = bits.reshape(-1)
        for chunk in _pair_sums(keys, last):
            lead, col = np.divmod(chunk, width)
            lead += (col >> 3) * lead_cells
            bit = (col & 7).astype(np.uint8)
            np.left_shift(np.uint8(1), bit, out=bit)
            np.bitwise_or.at(flat_bits, lead, bit)
        return PackedMask(bits, extents)
    occupancy = np.zeros(extents, dtype=bool)
    flat = occupancy.reshape(-1)
    for chunk in _pair_sums(keys, last):
        flat[chunk] = True
    return occupancy


def _banded_run_pairs(
    runs: _Runs, other: _Runs, span: int
) -> Iterator[tuple[int, NDArray[np.int64], NDArray[np.int64]]]:
    """Every run plus every ``other`` run, by band of ``span`` output keys.

    Keys use the output's row width and a band is whole output rows, so the
    sum of two runs lies in the output row that is the sum of their rows,
    and band p of ``runs`` plus band q of ``other`` lands in bands d and
    d + 1, d = p + q.  Each pair of occupied bands is formed by
    :func:`_run_pair_sums` on its keys less their band's first key, so its
    pair runs are ``[start, end)`` keys less ``d * span``.  Yields
    ``(d, starts, ends)`` in nondecreasing d, in chunks of at most
    ``_SPARSE_CHUNK`` pairs.  When ``runs is other`` band p meets only bands
    q >= p, and itself as one runs tuple, so each unordered pair is formed
    once.
    """
    if not len(runs[0]) or not len(other[0]):
        return

    def banded(r: _Runs) -> tuple[list[int], list[_Runs]]:
        # The occupied bands, and the runs of each less its first key.  Starts
        # ascend, so runs whose first and last start share a band are one band.
        low, high = int(r[0][0]) // span, int(r[0][-1]) // span
        if low == high:
            return [low], [(r[0] - low * span, r[1] - low * span)]
        band_of = r[0] // span
        cut = np.flatnonzero(np.diff(band_of)) + 1
        first = band_of * span
        parts = zip(np.split(r[0] - first, cut), np.split(r[1] - first, cut))
        return band_of[np.r_[0, cut]].tolist(), list(parts)

    left_bands, left = banded(runs)
    same = runs is other
    right_bands, right = (left_bands, left) if same else banded(other)
    meetings = sorted(
        (p + q, i, j)
        for i, p in enumerate(left_bands)
        for j, q in enumerate(right_bands)
        if not same or j >= i
    )
    for d, i, j in meetings:
        for starts, ends in _run_pair_sums(left[i], right[j]):
            yield d, starts, ends


def _run_fold(runs: _Runs, other: _Runs, extents: tuple[int, ...], width: int) -> NDArray[np.bool_]:
    """Occupancy over ``extents`` of every run plus every ``other`` run.

    ``width`` is the output's extent along the run axis, the row width of
    the run keys.  Run starts and ends are counted in a difference array
    over a window of ``_RUN_WINDOW_BANDS`` bands of output rows (see
    :func:`_banded_run_pairs`).  The pairs of band d land in bands d and
    d + 1, so once band d + 1 leaves the window, no later pair lands before
    band d: the cumulative sum of the window's rows before it marks their
    output cells, and the rest of the window moves up with the count it
    carries.  The window thus moves once per several bands, not once a band.
    """
    out_cells = math.prod(extents)
    rows = out_cells // width
    band = max(1, 2 * _SPARSE_CHUNK // width)
    window = min(_RUN_WINDOW_BANDS * band, rows)
    # A cell is covered by at most as many pair runs as the fold forms.
    wide = len(runs[0]) * len(other[0]) >= 2**31
    counts = np.zeros(window * width + 1, dtype=np.int64 if wide else np.int32)
    # A step of the array's own type keeps ``ufunc.at`` on its fast path.
    one = counts.dtype.type(1)
    occupancy = np.empty(out_cells, dtype=bool)
    done = 0

    def write(n: int) -> None:
        # Mark the window's first n rows, then move the rest up.
        nonlocal done
        cells = n * width
        head = counts[:cells]
        np.cumsum(head, out=head)
        np.greater(head, 0, out=occupancy[done * width : done * width + cells])
        done += n
        if done < rows:
            carry = head[-1]
            counts[: counts.size - cells] = counts[cells:]
            counts[counts.size - cells :] = 0
            counts[0] += carry

    for d, starts, ends in _banded_run_pairs(runs, other, band * width):
        while min((d + 2) * band, rows) - done > window:
            write(min(d * band - done, window))
        at = counts[(d * band - done) * width :]
        np.add.at(at, starts, one)
        np.subtract.at(at, ends, one)
    while done < rows:
        write(min(window, rows - done))
    return occupancy.reshape(extents)


def _run_sum(
    operands: list[_Runs], extents: tuple[int, ...], weights: NDArray[np.int64], axis: int
) -> NDArray[np.bool_]:
    """Occupancy of the sum, from the runs along ``axis`` of the operands (one per summand).

    Every fold is a :func:`_run_fold` over the output box: the first sums
    the first two operands, and each later one the runs of the occupancy
    so far with the next operand.  Keys use the output's row width, so a
    sum of two runs in one row each is one run in one row.
    """
    width = extents[axis]
    occupancy = _run_fold(operands[0], operands[1], extents, width)
    for other in operands[2:]:
        occupancy = _run_fold(_runs(occupancy, weights, axis), other, extents, width)
    return occupancy


def _folded_frame(rasters: list[GridSet]) -> tuple[GridGeometry, Semantics, float]:
    """Geometry, semantics and slack of the sum, folded and validated over all inputs."""
    if not rasters:
        raise ValueError("need at least one raster")
    geom = rasters[0].geometry
    semantics, slack = rasters[0].semantics, rasters[0].slack
    for r in rasters[1:]:
        geom = geom.summed(r.geometry)
        semantics, slack = _combined_semantics(semantics, slack, r)
    return geom, semantics, slack


def _summed(
    rasters: list[GridSet], geom: GridGeometry, packed: bool
) -> NDArray[np.bool_] | PackedMask:
    """Occupancy of the sum of two or more rasters over ``geom``, by the route rules.

    The one rule set of :func:`minkowski_sum` and :func:`packed_minkowski_sum`;
    ``packed`` only lets the key route's last fold pick its packed sink.
    """
    out_cells = math.prod(geom.extents)
    # Index sums never exceed the output extents, so key sums cannot carry
    # across axes and the flat keys add exactly like the index vectors.
    weights = np.ones(geom.dim, dtype=np.int64)
    for i in range(geom.dim - 2, -1, -1):
        weights[i] = weights[i + 1] * geom.extents[i + 1]
    if math.prod(each_once(rasters, lambda r: r.occupied_count)) < out_cells:
        return _key_sum(rasters, geom.extents, weights, packed)
    axis = max((k for k, m in enumerate(geom.extents) if m > 1), default=0)
    runs = each_once(rasters, lambda r: _runs(r.occupancy, weights, axis))
    if math.prod(len(starts) for starts, _ in runs) < out_cells:
        return _run_sum(runs, geom.extents, weights, axis)
    return functools.reduce(dilate_fft, rasters).occupancy


def minkowski_sum(rasters: Sequence[GridSet]) -> GridSet:
    """Grid Minkowski sum K_1 + ... + K_n, exactly ``dilate_naive`` folded left to right.

    Geometry, semantics and slack are folded (and validated) over all inputs
    before a route is chosen, so every route returns the same grid set.  Each
    route is chosen from counts known before any sum (the occupied cells of
    each distinct raster object are counted once), weighing pairs against
    output cells:

    1. When the product of occupied counts (the most index-key pairs a sum
       can form) is below the output cell count, occupied index tuples are
       summed as flat keys.  Each operand's keys and each earlier fold's
       keys are deduplicated by sorting and dropping equal neighbours; the
       last fold scatters its pair keys straight into the output occupancy.
       For :func:`packed_minkowski_sum` a last fold with more than
       ``_PACKED_SINK_CELLS_PER_PAIR`` (40) output cells per pair sum ORs
       each pair key into packed bits instead, so no dense box is made; a
       bit costs far more than a box cell, so a sum with fewer cells per
       pair sum keeps the box.
    2. Otherwise, when the product of run counts is below the output cell
       count, maximal runs of occupied cells along the last output axis of
       extent > 1 are summed: two runs sum to exactly one run, in one
       output row.  Every fold counts run starts and ends in a difference
       array over two bands of output rows, each about
       ``2 * _SPARSE_CHUNK`` cells and at least one row, and writes each
       finished band's cumulative sum straight into an occupancy over the
       output box; a fold after the first sums the runs of that occupancy
       with the next operand.  Beyond the output a fold holds that array
       and two chunks of pair runs, not an array the size of the box.
    3. Otherwise :func:`dilate_fft` is folded over the inputs; a fold whose
       occupied-count product leaves the FFT's exact range raises its
       :class:`DilationPrecisionError`.

    Both sparse routes form their pairs in chunks of at most
    ``_SPARSE_CHUNK`` sums, and extract keys or runs once per distinct
    raster object, so no dense intermediate is ever held.  A fold of one
    raster object with itself (``[a, a]``, or the first fold of
    ``[a] * n``) forms each unordered pair once.  A single input is
    returned as is.
    """
    rasters = list(rasters)
    geom, semantics, slack = _folded_frame(rasters)
    if len(rasters) == 1:
        return rasters[0]
    occupancy = _summed(rasters, geom, packed=False)
    return GridSet(geom, occupancy, semantics, slack)


def packed_minkowski_sum(rasters: Sequence[GridSet]) -> tuple[GridGeometry, PackedMask]:
    """The geometry and packed occupancy of :func:`minkowski_sum` of ``rasters``.

    Same routes and the same cells; a key-route sum whose last fold is
    sparse next to its box is written straight into packed bits, and every
    other sum is packed from its dense occupancy.
    """
    rasters = list(rasters)
    geom, _, _ = _folded_frame(rasters)
    cells = rasters[0].occupancy if len(rasters) == 1 else _summed(rasters, geom, packed=True)
    return geom, cells if isinstance(cells, PackedMask) else PackedMask.pack(cells)


def nfold_sum(a: GridSet, n: int) -> GridSet:
    """n-fold grid sum a + ... + a; equals n-1 chained dilations."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return minkowski_sum([a] * n)


def component_roots(
    nodes: int, first: NDArray[np.intp], second: NDArray[np.intp]
) -> NDArray[np.intp]:
    """The root of each node of a graph: the smallest node of its component.

    The graph has ``nodes`` nodes and the edges ``(first[e], second[e])``.
    Union-find by hook-and-jump (Y. Shiloach and U. Vishkin, "An O(log n)
    parallel connectivity algorithm", J. Algorithms 1982), each pass an
    array operation: every edge that joins two trees hooks the larger root
    under the smaller one, then every node jumps to its root.  An edge
    inside one tree stays inside it, so each pass keeps only the edges that
    joined two trees.  A node's parent never exceeds it, so the root of a
    component is its smallest node.
    """
    parent = np.arange(nodes)
    while True:
        a, b = parent[first], parent[second]
        apart = a != b
        if not apart.any():
            return parent
        first, second, a, b = first[apart], second[apart], a[apart], b[apart]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped


def component_count(a: GridSet) -> int:
    """Number of face-connected components of the occupied cells.

    Reads the runs of occupied cells along the last axis (:func:`_runs`),
    each one node.  Two runs in rows that differ by one along another axis
    share a face exactly when their cells overlap, that is when one holds
    the cell beside the other's first cell; so each run's first cell looks
    one step up and one step down every other axis (not past the axis's
    ends, where a key would wrap into the next row) and searches the run
    starts for the run holding that cell.  :func:`component_roots` then
    joins the linked runs.
    """
    occupancy = a.occupancy
    strides = np.cumprod((1,) + occupancy.shape[:0:-1], dtype=np.int64)[::-1]
    starts, ends = _runs(occupancy, strides, occupancy.ndim - 1)
    first, second = [], []
    for stride, extent in zip(strides[:-1].tolist(), occupancy.shape[:-1]):
        along = starts // stride % extent
        for step, edge in ((stride, extent - 1), (-stride, 0)):
            beside = starts + step
            run = np.searchsorted(starts, beside, side="right") - 1
            linked = (along != edge) & (ends[run] > beside) & (run >= 0)
            first.append(np.flatnonzero(linked))
            second.append(run[linked])
    if not first:
        return len(starts)
    roots = component_roots(len(starts), np.concatenate(first), np.concatenate(second))
    return int(np.count_nonzero(roots == np.arange(len(starts))))


def is_grid_continuum(a: GridSet) -> bool:
    """True iff the occupied cells form exactly one non-empty face component."""
    return component_count(a) == 1


def cells_measure(count: int, spacing: float, dim: int) -> float:
    """Volume of ``count`` cells of side ``spacing`` in dimension ``dim``."""
    return float(count) * spacing**dim


def measure_estimate(a: GridSet) -> float:
    """Occupied volume: cell count times h^n, interpreted per the semantics tag."""
    return cells_measure(a.occupied_count, a.spacing, a.dim)


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


def covering_radius(
    occupied: PackedMask, window: Sequence[slice], limit: int | None = None
) -> float:
    """Smallest box-dilation radius (cells) of ``occupied`` that covers ``window``.

    That is the largest chessboard distance from a window cell to a set cell:
    0 for a fully set window, ``inf`` for an empty mask.  Dilations compose,
    so each trial grows the last one that fell short.  Without ``limit`` the
    radius gallops up from 1, then bisects.  A ``limit`` whose dilation is
    known to cover bisects [0, limit] on the window grown by ``limit`` per
    side (cut to the box of the window and the mask), which holds every
    nearest set cell.  With a ``limit`` the window
    may leave the mask, as when it is given in the coordinates of a padded
    copy less the padding: cells outside the mask are empty.
    """
    if limit is not None:
        # Cut to the box of the window and the mask: no set cell lies beyond.
        # On the packed axis the cut is widened to whole bytes of the mask,
        # so it is a copy of byte rows; the cells this adds are the mask's.
        crop = [
            (max(s.start - limit, min(s.start, 0)), min(s.stop + limit, max(s.stop, m)))
            for s, m in zip(window, occupied.shape)
        ]
        crop[-1] = (crop[-1][0] // 8 * 8, -(-crop[-1][1] // 8) * 8)
        # The cut and the mask's bits, byte axis first, in bytes of the mask.
        cut = [(lo // 8, hi // 8) for lo, hi in crop[-1:]] + crop[:-1]
        held = (occupied.offset[-1] // 8,) + occupied.offset[:-1]
        bits = np.zeros([hi - lo for lo, hi in cut], dtype=np.uint8)
        meet = [
            (max(lo, o), min(hi, o + e))
            for (lo, hi), o, e in zip(cut, held, occupied.bits.shape)
        ]
        if all(a < b for a, b in meet):
            bits[tuple(slice(a - lo, b - lo) for (a, b), (lo, _) in zip(meet, cut))] = (
                occupied.bits[tuple(slice(a - o, b - o) for (a, b), o in zip(meet, held))]
            )
        window = tuple(slice(s.start - lo, s.stop - lo) for s, (lo, _) in zip(window, crop))
        occupied = PackedMask(bits, tuple(hi - lo for lo, hi in crop))
    if occupied.all_set(window):
        return 0
    if not occupied.any():
        return math.inf
    lo, kept, hi, step = 0, occupied, limit, 1
    while hi is None or hi - lo > 1:
        r = lo + step if hi is None else (lo + hi) // 2
        trial = kept.dilate(r - lo)
        if trial.all_set(window):
            hi = r
        else:
            lo, kept, step = r, trial, 2 * step
    return hi


def eps_density_margin(
    occupied: PackedMask, geometry: GridGeometry, center: Sequence[float], side: float
) -> float:
    """Max over cube cells of the sup-norm distance (length units) to an occupied cell.

    ``occupied`` is the grid's occupancy over ``geometry``, packed.  The
    :func:`covering_radius` of the cube's cells in the whole grid, times the
    spacing: 0 means the cube is fully covered, ``inf`` an empty grid.
    """
    window = tuple(slice(lo, hi + 1) for lo, hi in _cube_cell_range(geometry, center, side))
    return covering_radius(occupied, window) * geometry.spacing

