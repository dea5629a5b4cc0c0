"""Shifted-lattice coverings, measure chains, midpoint iteration, separators.

The constructions here assume their inputs were normalized so the certified
independent directions are the standard basis vectors (the verify module does
that); each set must contain the origin and stretch one unit along its axis so
the shifted copies chain into grid continua.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .grid import (
    CubeOutsideGridError,
    GridSet,
    PackedMask,
    SampledSet,
    Semantics,
    auto_geometry,
    component_roots,
    eps_density_margin,
    measure_estimate,
    minkowski_sum,
    occupied_cells,
    rasterize,
)

#: Refuse midpoint steps whose occupancy grid would exceed this many cells.
_MIDPOINT_CELL_GUARD = 2**26

#: Maximum factors for separator instances (product-grid memory).
_MAX_SEPARATOR_DIM = 3


@dataclass(frozen=True)
class ShiftConstruction:
    """Shift lattice data: delta, s, l with l > s + (n-1) delta.

    ``delta`` bounds the sup-norm of every point of every input set (sample
    maximum plus sampling density, so it bounds the true sets, not just the
    samples).  ``lattice_axis[i]`` holds the 2l+1 shifts k*e_i and
    ``lattice_full`` their (2l+1)^n sums.
    """

    n: int
    delta: float
    s: int
    l: int
    eps: float
    lattice_axis: tuple[NDArray[np.float64], ...]
    lattice_full: NDArray[np.float64]

    def valid(self) -> bool:
        return self.l > self.s + (self.n - 1) * self.delta


def shift_construction(sets: Sequence[SampledSet], s: int) -> ShiftConstruction:
    """Choose the lattice size l for the shifted covering of [-s, s]^n."""
    if not sets:
        raise ValueError("need at least one sampled set")
    n = sets[0].dim
    if any(k.dim != n for k in sets):
        raise ValueError("all sets must share one ambient dimension")
    if len(sets) != n:
        raise ValueError(f"need exactly {n} sets in dimension {n}, got {len(sets)}")
    if s < 1 or int(s) != s:
        raise ValueError(f"s must be a positive integer, got {s}")
    for i, k in enumerate(sets):
        if k.count == 0:
            raise ValueError(f"set {i} has no samples")
        nearest = float(np.abs(k.points).max(axis=1).min())
        if nearest > k.density:
            raise ValueError(
                f"set {i} must contain the origin: nearest sample at sup distance "
                f"{nearest} exceeds density {k.density}"
            )
    eps = max(k.density for k in sets)
    delta = max(k.sup_radius() + k.density for k in sets)
    l = math.floor(s + (n - 1) * delta) + 1
    axes = []
    for i in range(n):
        shifts = np.zeros((2 * l + 1, n))
        shifts[:, i] = np.arange(-l, l + 1)
        axes.append(shifts)
    grids = np.meshgrid(*(np.arange(-l, l + 1),) * n, indexing="ij")
    full = np.stack([g.ravel() for g in grids], axis=1).astype(np.float64)
    return ShiftConstruction(
        n=n,
        delta=delta,
        s=int(s),
        l=l,
        eps=eps,
        lattice_axis=tuple(axes),
        lattice_full=full,
    )


def _shifted_factor_samples(k: SampledSet, shifts: NDArray[np.float64]) -> SampledSet:
    pts = (k.points[None, :, :] + shifts[:, None, :]).reshape(-1, k.dim)
    return SampledSet(points=pts, density=k.density, exact=k.exact)


def shifted_sum_raster(
    construction: ShiftConstruction, sets: Sequence[SampledSet], h: float
) -> GridSet:
    """Sample-cover raster of (K_1 + Z_1) + ... + (K_n + Z_n) at spacing h."""
    factors = [
        _shifted_factor_samples(k, shifts)
        for k, shifts in zip(sets, construction.lattice_axis)
    ]
    return minkowski_sum([rasterize(f, auto_geometry(f.points, h)) for f in factors])


@dataclass(frozen=True)
class ClaimReport:
    """Coverage of [-s, s]^n by the rasterized shifted sum.

    ``sum_cells`` holds that sum raster, packed; it is left out of the repr
    and of comparisons.
    """

    covered: bool
    margin: float
    threshold: float
    passed: bool
    h: float
    sum_cells: PackedMask = field(repr=False, compare=False)


def verify_claim(
    construction: ShiftConstruction, sets: Sequence[SampledSet], h: float
) -> ClaimReport:
    """Check that the shifted sum covers the cube [-s, s]^n at spacing h.

    The pass bound n*(eps + h) adds one sampling and one rasterization slack
    per summand.  A flat (rank-deficient) family leaves the cube partly or
    wholly outside the sum's grid; that reports an infinite margin rather
    than an error.  Any other error propagates.
    """
    if not construction.valid():
        raise ValueError(
            f"invalid construction: l={construction.l} must exceed "
            f"s + (n-1)*delta = {construction.s + (construction.n - 1) * construction.delta}"
        )
    if len(sets) != construction.n:
        raise ValueError("set count does not match the construction")
    total = shifted_sum_raster(construction, sets, h)
    center = np.zeros(construction.n)
    side = 2.0 * construction.s
    threshold = construction.n * (construction.eps + h)
    sum_cells = PackedMask.pack(total.occupancy)
    try:
        margin = eps_density_margin(sum_cells, total.geometry, center, side)
    except CubeOutsideGridError:
        margin = math.inf
    return ClaimReport(
        covered=margin == 0.0,
        margin=margin,
        threshold=threshold,
        passed=margin <= threshold,
        h=h,
        sum_cells=sum_cells,
    )


@dataclass(frozen=True)
class MeasureChainReport:
    """The squeeze (2s)^n <= outer(K (+) Z) <= outer(K) * (2l+1)^n."""

    cube_volume: float
    sum_measure: float
    factor_measure: float
    lattice_count: int
    lower_ok: bool
    upper_ok: bool
    implied_lower_bound: float


def claim_measure_chain(
    construction: ShiftConstruction, sets: Sequence[SampledSet], h: float
) -> MeasureChainReport:
    """Measure chain on Outer rasters at spacing h.

    The implied lower bound (2s/(2l+1))^n for the measure of K itself is
    reported rather than maximized over growing s, l.
    """
    if not construction.valid():
        raise ValueError("invalid construction")
    acc = minkowski_sum(
        [rasterize(k, auto_geometry(k.points, h, pad_cells=1), Semantics.OUTER) for k in sets]
    )
    lattice = SampledSet(points=construction.lattice_full, density=0.0)
    z_raster = rasterize(lattice, auto_geometry(lattice.points, h), Semantics.OUTER)
    total = minkowski_sum([acc, z_raster])
    cube_volume = (2.0 * construction.s) ** construction.n
    sum_measure = measure_estimate(total)
    factor_measure = measure_estimate(acc)
    count = (2 * construction.l + 1) ** construction.n
    return MeasureChainReport(
        cube_volume=cube_volume,
        sum_measure=sum_measure,
        factor_measure=factor_measure,
        lattice_count=count,
        lower_ok=cube_volume <= sum_measure,
        upper_ok=sum_measure <= factor_measure * count + 1e-9,
        implied_lower_bound=(2.0 * construction.s / (2 * construction.l + 1))
        ** construction.n,
    )


@dataclass(frozen=True)
class MidpointChain:
    """The rasters of T, (T + T) / 2, ... and the first step whose probe held.

    The probe reads an OUTER raster, which bounds the set from above only, so
    ``interior_found_at`` witnesses interior of the raster, not of the set:
    the 121 points of a 0.1-lattice in the unit square, with density 0.05 and
    rasterized OUTER at h = 0.01, are found at step 0.
    """

    steps: tuple[GridSet, ...]
    interior_found_at: int | None


def _has_inner_ball(grid: GridSet, radius_cells: int) -> bool:
    """Is some cell surrounded by occupied cells out to the given radius?

    That is, is the box erosion by the radius non-empty?  Cells beyond the
    grid border count as unoccupied, so a grid thinner than the ball on some
    axis, or with fewer occupied cells than the ball's (2r + 1)^n, holds
    none and is not packed.
    """
    side = 2 * radius_cells + 1
    if min(grid.geometry.extents) < side or grid.occupied_count < side**grid.dim:
        return False
    return PackedMask.pack(grid.occupancy).erode(radius_cells).any()


def midpoint_iterate(t: GridSet, k: int) -> MidpointChain:
    """Iterate T -> (T + T) / 2 on successively halved grids.

    Each step sums T with itself through :func:`minkowski_sum`, which picks
    the route.  Index sums land exactly on the half-spacing lattice, so each
    step is exact: same origin, spacing h/2, extents 2m-1.  The raster slack
    sigma becomes sigma + h_next.
    ``interior_found_at`` is the first step whose raster has a cell with every
    cell within r = ceil(sigma/h) + 1 occupied: the occupied cells then hold
    a sup-norm cube of half-width (r + 1/2) h >= sigma + 3h/2, wider than the
    slack by more than a cell.  That is interior of the OUTER raster, which
    bounds the set from above only, not interior of the set (see
    :class:`MidpointChain`).  Step j has extents 2^j (m - 1) + 1, so the
    memory guard refuses an oversized chain before the first sum.
    """
    if not 1 <= k <= 20:
        raise ValueError(f"iteration count must be in [1, 20], got {k}")
    if t.semantics is not Semantics.OUTER:
        raise ValueError("midpoint iteration needs an Outer raster")
    extents = t.geometry.extents
    for step in range(1, k + 1):
        extents = tuple(2 * e - 1 for e in extents)
        if math.prod(extents) > _MIDPOINT_CELL_GUARD:
            raise ValueError(
                f"memory guard: step {step} would need {math.prod(extents)} cells"
            )
    steps = [t]

    def probe(step: int, grid: GridSet) -> int | None:
        radius = math.ceil(grid.slack / grid.geometry.spacing) + 1
        if _has_inner_ball(grid, radius):
            return step
        return None

    found = probe(0, t)
    current = t
    for step in range(1, k + 1):
        doubled = minkowski_sum([current, current])
        half_spacing = doubled.geometry.spacing / 2
        geometry = type(doubled.geometry)(
            origin=tuple(o / 2 for o in doubled.geometry.origin),
            spacing=half_spacing,
            extents=doubled.geometry.extents,
        )
        current = GridSet(
            geometry=geometry,
            occupancy=doubled.occupancy,
            semantics=Semantics.OUTER,
            slack=doubled.slack / 2,
        )
        steps.append(current)
        if found is None:
            found = probe(step, current)
    return MidpointChain(steps=tuple(steps), interior_found_at=found)


@dataclass(frozen=True, eq=False)
class SeparatorInstance:
    """Band separators on a product of grid continua.

    ``factors[j]`` is factor j's boolean occupancy array, and
    :attr:`factor_cells` derives its occupied cells in C order.  For axis k,
    the separator S_k collects the product cells whose potential sum lies
    within ``band_radius[k]`` of ``band_center[k]``, the summand for factor
    j being ``potentials[k][j]`` at its cell.  Faces are indices into the
    C-ordered cells of factor k: a product cell is in F_k^- when its k-th
    factor cell is one ``faces_neg[k]`` names.  Instances hold arrays, so
    they compare and hash by identity.

    Construction refuses, with a ``ValueError`` naming the field, anything
    but this contract: 1..3 factors, each a boolean ndarray with n axes and
    an occupied cell; ``potentials[k][j]`` a 1-D float64 array holding one
    finite value per occupied cell of factor j; ``band_center`` and
    ``band_radius`` finite float64 arrays of shape (n,); ``faces_neg[k]``
    and ``faces_pos[k]`` non-empty 1-D integer arrays with entries in
    [0, cells of factor k).
    """

    factors: tuple[NDArray[np.bool_], ...]
    potentials: tuple[tuple[NDArray[np.float64], ...], ...]
    band_center: NDArray[np.float64]
    band_radius: NDArray[np.float64]
    faces_neg: tuple[NDArray[np.int64], ...]
    faces_pos: tuple[NDArray[np.int64], ...]

    def __post_init__(self) -> None:
        n = len(self.factors)
        if not 1 <= n <= _MAX_SEPARATOR_DIM:
            raise ValueError(f"separator instances support 1..{_MAX_SEPARATOR_DIM} factors")
        counts = []
        for j, factor in enumerate(self.factors):
            if not (isinstance(factor, np.ndarray) and factor.dtype == bool and factor.ndim == n):
                raise ValueError(f"factors[{j}] must be a boolean array with {n} axes")
            counts.append(int(np.count_nonzero(factor)))
            if not counts[j]:
                raise ValueError(f"factors[{j}] has no occupied cell")
        if len(self.potentials) != n or any(len(row) != n for row in self.potentials):
            raise ValueError(f"potentials must hold {n} rows of {n} arrays")
        for k, row in enumerate(self.potentials):
            for j, values in enumerate(row):
                if not _finite_floats(values, counts[j]):
                    raise ValueError(
                        f"potentials[{k}][{j}] must hold one finite float64 per occupied cell"
                        f" of factor {j} ({counts[j]})"
                    )
        for name in ("band_center", "band_radius"):
            if not _finite_floats(getattr(self, name), n):
                raise ValueError(f"{name} must be {n} finite float64 values")
        for name in ("faces_neg", "faces_pos"):
            faces = getattr(self, name)
            if len(faces) != n:
                raise ValueError(f"{name} must hold {n} faces")
            for k, face in enumerate(faces):
                if not (
                    isinstance(face, np.ndarray)
                    and face.ndim == 1
                    and np.issubdtype(face.dtype, np.integer)
                ):
                    raise ValueError(f"{name}[{k}] must be a 1-D integer array")
                if not len(face):
                    raise ValueError(f"axis {k}: empty face set")
                if face.min() < 0 or face.max() >= counts[k]:
                    raise ValueError(f"{name}[{k}] must index the {counts[k]} cells of factor {k}")

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def factor_cells(self) -> tuple[NDArray[np.int64], ...]:
        """Each factor's occupied cells in C order: ``np.argwhere`` of its occupancy."""
        return tuple(occupied_cells(f) for f in self.factors)


def _finite_floats(values: object, length: int) -> bool:
    """Whether ``values`` is a 1-D float64 array of ``length`` finite values."""
    return (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.shape == (length,)
        and bool(np.isfinite(values).all())
    )


@dataclass(frozen=True)
class SeparatorValidation:
    """Why each band genuinely separates its faces.

    ``max_step[k]`` bounds the change of the axis-k potential sum along one
    product-graph step (all factors may move to a chessboard neighbor at
    once).  A path from strictly below the band to strictly above it would
    need a single jump wider than the whole band, so none exists; integral
    potentials widen the effective band to the next integers.
    """

    max_step: NDArray[np.float64]
    integral: NDArray[np.bool_]
    face_below: NDArray[np.float64]
    face_above: NDArray[np.float64]


def _adjacent_pairs(
    cells: NDArray[np.int64], starts: NDArray[np.intp]
) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """Chessboard-adjacent pairs of cells within each of several cell lists.

    ``cells`` holds non-empty lists of distinct cells of one dimension one
    after another, list i from row ``starts[i]`` on.  Returns row pairs
    ``(first, second)``, each unordered pair of adjacent rows once.  A
    list's cells are keyed in its bounding box grown by one cell on every
    side, the boxes laid end to end, so the key of a neighbour lies in its
    own list's box and names a cell only if the list holds it.  Each cell's
    neighbours are found by searching the sorted keys for its key plus half
    the neighbour offsets (the other half give the same pairs reversed).
    """
    rows, dim = cells.shape
    lo = np.minimum.reduceat(cells, starts) - 1
    widths = np.maximum.reduceat(cells, starts) - lo + 2
    if np.prod(widths.astype(np.float64), axis=1).sum() >= 2.0**62:
        raise ValueError("cell indices span too many keys to search")
    weights = np.ones_like(widths)
    for a in range(dim - 2, -1, -1):
        weights[:, a] = weights[:, a + 1] * widths[:, a + 1]
    boxes = weights[:, 0] * widths[:, 0]
    sizes = np.diff(starts, append=rows)
    cell_weights = np.repeat(weights, sizes, axis=0)
    shifted = cells - np.repeat(lo, sizes, axis=0)
    keys = np.repeat(np.cumsum(boxes) - boxes, sizes) + (shifted * cell_weights).sum(axis=1)
    order = np.argsort(keys)
    ordered = keys[order]
    # One of each pair o, -o of neighbour offsets: those whose first nonzero entry is +1.
    offsets = np.array(
        [o for o in itertools.product((-1, 0, 1), repeat=dim) if next((v for v in o if v), 0) == 1],
        dtype=np.int64,
    ).reshape(-1, dim)
    queries = (keys[:, None] + cell_weights @ offsets.T).ravel()
    found = np.minimum(np.searchsorted(ordered, queries), rows - 1)
    hits = np.flatnonzero(ordered[found] == queries)
    return hits // len(offsets), order[found[hits]]


def _integral_entries(values: NDArray[np.float64]) -> NDArray[np.bool_]:
    """Which finite entries ``np.allclose(values, np.round(values), atol=1e-9)`` finds close."""
    rounded = np.round(values)
    return np.abs(values - rounded) <= 1e-9 + 1e-5 * np.abs(rounded)


@dataclass(frozen=True)
class _Batch:
    """Separator instances laid out flat, for the grouped validation and scan.

    Instance i has ``dims[i]`` factors, the factors after those of the
    instances before it.  Factor f's ``sizes[f]`` cells follow those of the
    factors before it as rows of ``cells`` (C order, n columns and then
    zeros) and as columns of ``potentials``, whose row k holds the axis-k
    potentials (0 past the instance's n).  ``centers[i, k]`` and
    ``radii[i, k]`` hold band k.  ``faces[0]`` lists the potential columns
    that the F^- face of each factor reads (factor f's after factor f - 1's,
    ``face_sizes[0, f]`` of them), and ``faces[1]`` and ``face_sizes[1]``
    those of F^+.
    """

    dims: NDArray[np.intp]
    sizes: NDArray[np.intp]
    cells: NDArray[np.int64]
    potentials: NDArray[np.float64]
    centers: NDArray[np.float64]
    radii: NDArray[np.float64]
    faces: tuple[NDArray[np.intp], NDArray[np.intp]]
    face_sizes: NDArray[np.intp]


def _packed(instances: Sequence[SeparatorInstance]) -> _Batch:
    """One or more instances laid out as a :class:`_Batch`."""
    bands = np.zeros((2, len(instances), _MAX_SEPARATOR_DIM))
    cells, potentials, faces = [], [], ([], [])
    row = 0
    for i, instance in enumerate(instances):
        n = instance.n
        bands[:, i, :n] = instance.band_center, instance.band_radius
        for j, own in enumerate(instance.factor_cells):
            cells.append(np.pad(own, ((0, 0), (0, _MAX_SEPARATOR_DIM - n))))
            potentials.append(np.zeros((_MAX_SEPARATOR_DIM, len(own))))
            potentials[-1][:n] = [values[j] for values in instance.potentials]
            for side, face in enumerate((instance.faces_neg[j], instance.faces_pos[j])):
                faces[side].append(row + face.astype(np.intp))
            row += len(own)
    return _Batch(
        dims=np.array([instance.n for instance in instances], dtype=np.intp),
        sizes=np.array([len(c) for c in cells], dtype=np.intp),
        cells=np.concatenate(cells),
        potentials=np.concatenate(potentials, axis=1),
        centers=bands[0],
        radii=bands[1],
        faces=(np.concatenate(faces[0]), np.concatenate(faces[1])),
        face_sizes=np.array([[len(f) for f in side] for side in faces], dtype=np.intp),
    )


def _validations(batch: _Batch) -> tuple[SeparatorValidation, dict[int, ValueError]]:
    """What :func:`validate_separators` finds for each instance of a batch, found together.

    Returns the validation's fields as (instance, axis) arrays, of which
    instance i owns its first n columns, and the error of each instance
    that fails.  Every check runs once over the whole batch: adjacent cell
    pairs come from one :func:`_adjacent_pairs` call per factor
    dimension, and give every step bound by one ``maximum.reduceat`` and
    every factor's components by :func:`component_roots` on the face-adjacent pairs;
    potential extremes and integrality are ``reduceat`` over the factors,
    face extremes ``reduceat`` over the faces, and the band checks compare
    (axis, instance) arrays, with float operations in the order of a single
    validation.  An instance's error is that of its first failing check, in
    :func:`validate_separators`'s order.
    """
    count, factors = len(batch.dims), len(batch.sizes)
    owner = np.repeat(np.arange(count), batch.dims)
    slot = np.arange(factors) - np.repeat(np.cumsum(batch.dims) - batch.dims, batch.dims)
    starts = np.cumsum(batch.sizes) - batch.sizes
    factor_rows = np.repeat(np.arange(factors), batch.sizes)
    ndims = batch.dims[owner]
    pots = batch.potentials
    steps = np.zeros((_MAX_SEPARATOR_DIM, factors))
    edges = [np.zeros(0, dtype=np.intp)] * 2
    for d in np.unique(ndims).tolist():
        rows = np.flatnonzero(ndims[factor_rows] == d)
        sizes = batch.sizes[ndims == d]
        pairs = _adjacent_pairs(batch.cells[rows, :d], np.cumsum(sizes) - sizes)
        first, second = rows[pairs[0]], rows[pairs[1]]
        if len(first):
            # Pairs come in ascending first rows, hence grouped by factor; a
            # factor with no pair (one cell) keeps the bound 0.
            owners = factor_rows[first]
            cut = np.flatnonzero(np.diff(owners, prepend=-1))
            jumps = np.abs(pots[:, first] - pots[:, second])
            steps[:, owners[cut]] = np.maximum.reduceat(jumps, cut, axis=1)
        face = np.abs(batch.cells[first] - batch.cells[second]).sum(axis=1) == 1
        edges = [np.concatenate([edges[0], first[face]]), np.concatenate([edges[1], second[face]])]
    roots = component_roots(len(factor_rows), *edges) == np.arange(len(factor_rows))
    components = np.bincount(factor_rows[roots], minlength=factors)
    integral = np.logical_and.reduceat(_integral_entries(pots), starts, axis=1)

    def by_slot(values: NDArray, fill: object) -> NDArray:
        """Per-factor ``values`` (last axis) as (..., instance, slot) with ``fill`` past n."""
        out = np.full(values.shape[:-1] + (count, _MAX_SEPARATOR_DIM), fill, dtype=values.dtype)
        out[..., owner, slot] = values
        return out

    # Python's max and sum over the factors, in their order; a sum skips the
    # axis's own factor: (0.0 + h_a) + h_b.
    level = by_slot(steps, 0.0).max(axis=-1)
    highest = np.maximum.reduceat(pots, starts, axis=1)
    extremes = by_slot(np.stack([highest, np.minimum.reduceat(pots, starts, axis=1)]), 0.0)
    others = np.zeros((2, _MAX_SEPARATOR_DIM, count))
    for j in range(_MAX_SEPARATOR_DIM):
        own = (np.arange(_MAX_SEPARATOR_DIM) == j)[:, None]
        others = others + np.where(own, 0.0, extremes[..., j])
    face_extremes = []
    for side, extreme in enumerate((np.maximum, np.minimum)):
        sizes = batch.face_sizes[side]
        values = pots[np.repeat(slot, sizes), batch.faces[side]]
        face_extremes.append(extreme.reduceat(values, np.cumsum(sizes) - sizes))
    below, above = by_slot(np.array(face_extremes), 0.0).transpose(0, 2, 1) + others
    center, radius = batch.centers.T, batch.radii.T
    is_integral = (
        by_slot(integral, True).all(axis=-1)
        & (np.abs(center - np.rint(center)) < 1e-9)
        & (np.abs(radius - np.rint(radius)) < 1e-9)
    )
    jump = batch.dims * level
    leaps = jump > 2 * radius + np.where(is_integral, 1.0, 0.0) + 1e-12
    apart = ~((below < center - radius) & (above > center + radius))
    axes = np.arange(_MAX_SEPARATOR_DIM)[:, None] < batch.dims
    # Per instance: each factor's component check, then axis by axis the jump and the straddle.
    bands = (np.stack([leaps, apart], axis=1) & axes[:, None]).reshape(2 * _MAX_SEPARATOR_DIM, -1)
    fails = np.concatenate([by_slot(components, 1) != 1, bands.T], axis=1)
    failed = {}
    for i in np.flatnonzero(fails.any(axis=1)).tolist():
        check = int(fails[i].argmax())
        if check < _MAX_SEPARATOR_DIM:
            failed[i] = ValueError(f"factor {check} is not a connected grid continuum")
            continue
        k, straddle = divmod(check - _MAX_SEPARATOR_DIM, 2)
        c, r = float(center[k, i]), float(radius[k, i])
        failed[i] = ValueError(
            f"axis {k}: faces do not straddle the band "
            f"({float(below[k, i])} .. {float(above[k, i])} around {c} +- {r})"
            if straddle
            else f"axis {k}: a product step can move the potential sum by {float(jump[k, i])}, "
            f"wide enough to leap the band of half-width {r}"
        )
    report = SeparatorValidation(
        max_step=level.T, integral=is_integral.T, face_below=below.T, face_above=above.T
    )
    return report, failed


def validate_separators(instance: SeparatorInstance) -> SeparatorValidation:
    """Check that every band separates its faces; raise ``ValueError`` on the first that fails.

    Three checks, in order: each factor is one face-connected component;
    then axis by axis, a product step (every factor one chessboard step,
    the largest potential change over adjacent occupied cells) cannot leap
    the band, and the faces straddle the band.  The instance's shape was
    checked when it was built (:class:`SeparatorInstance`).  The
    one-instance call of the batched validation (:func:`_validations`),
    which :func:`_drawn` runs once per batch of random instances: every
    check is an array operation over all of the batch's instances.
    """
    report, failed = _validations(_packed([instance]))
    if failed:
        raise failed[0]
    fields = (report.max_step, report.integral, report.face_below, report.face_above)
    return SeparatorValidation(*(field[0, : instance.n].copy() for field in fields))


def _in_band(
    potentials: Sequence[NDArray[np.float64]],
    center: NDArray[np.float64],
    radius: NDArray[np.float64],
) -> NDArray[np.bool_]:
    """The scan's membership rule: ``abs(((p_0 + p_1) + p_2) - c) <= r + 1e-12``.

    ``potentials`` holds each factor's axis-k potentials of the product
    cells, and ``center`` and ``radius`` band k's.
    """
    total = potentials[0]
    for p in potentials[1:]:
        total = total + p
    return np.abs(total - center) <= radius + 1e-12


def _extended(
    batch: _Batch, member: NDArray[np.intp], columns: list[NDArray[np.intp]]
) -> tuple[NDArray[np.intp], list[NDArray[np.intp]]]:
    """Partial product cells, each extended by every cell of its next factor, in C order.

    A partial product cell of instance ``member[c]`` holds cell
    ``columns[j][c]`` (a column of the batch's potentials) of each of its
    first j factors; each is followed by its extensions, one per cell of
    factor ``len(columns)`` in order.
    """
    factor = (np.cumsum(batch.dims) - batch.dims)[member] + len(columns)
    sizes = batch.sizes[factor]
    parent = np.repeat(np.arange(len(member)), sizes)
    within = np.arange(len(parent)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    first = (np.cumsum(batch.sizes) - batch.sizes)[factor]
    return member[parent], [c[parent] for c in columns] + [first[parent] + within]


def _shared_cells(batch: _Batch) -> NDArray[np.bool_]:
    """Whether each instance of a batch has a product cell in every band (:func:`_in_band`).

    Per factor count, over all of the batch's instances with that count at
    once: the products of all factors but the last are listed, those that
    no cell of the last factor can bring into every band are dropped, and
    the rest are extended by the last factor and checked band by band.  The
    drop is exact: the rule's sums are monotone in the last factor's
    potential, so a partial product misses band k for every such cell when
    it misses it at the largest and the smallest of them.
    """
    shared = np.zeros(len(batch.dims), dtype=bool)
    starts = np.cumsum(batch.sizes) - batch.sizes
    lowest = np.minimum.reduceat(batch.potentials, starts, axis=1)
    highest = np.maximum.reduceat(batch.potentials, starts, axis=1)
    for n in np.unique(batch.dims).tolist():
        member, columns = np.flatnonzero(batch.dims == n), []
        for _ in range(n - 1):
            member, columns = _extended(batch, member, columns)
        if columns:
            last = (np.cumsum(batch.dims) - batch.dims)[member] + n - 1
            reachable = np.ones(len(member), dtype=bool)
            for k in range(n):
                partial = batch.potentials[k, columns[0]]
                for c in columns[1:]:
                    partial = partial + batch.potentials[k, c]
                center, radius = batch.centers[member, k], batch.radii[member, k] + 1e-12
                reachable &= ((partial + highest[k, last]) - center >= -radius) & (
                    (partial + lowest[k, last]) - center <= radius
                )
            member, columns = member[reachable], [c[reachable] for c in columns]
        member, columns = _extended(batch, member, columns)
        inside = np.ones(len(member), dtype=bool)
        for k in range(n):
            pots = [batch.potentials[k, c] for c in columns]
            inside &= _in_band(pots, batch.centers[member, k], batch.radii[member, k])
        shared[member[inside]] = True
    return shared


def separation_by_search(instance: SeparatorInstance, axis: int) -> bool:
    """Product-graph flood fill: does S_axis block every F^- to F^+ path?

    Independent of the band-jump route: expands reachability through the
    strong product of the factor adjacency graphs, one factor at a time,
    never entering separator cells.  The separator is band ``axis`` by the
    rule the batched scan applies (:func:`_in_band`), broadcast here over
    this one instance's whole product.
    """
    n = instance.n
    factor_cells = instance.factor_cells
    counts = [len(c) for c in factor_cells]
    adjacency = []
    for count, cells in zip(counts, factor_cells):
        first, second = _adjacent_pairs(cells, np.zeros(1, np.intp))
        matrix = np.eye(count, dtype=np.float32)
        matrix[first, second] = matrix[second, first] = 1.0
        adjacency.append(matrix)
    blocked = _in_band(
        [p.reshape(-1, *[1] * (n - 1 - j)) for j, p in enumerate(instance.potentials[axis])],
        instance.band_center[axis],
        instance.band_radius[axis],
    )
    reached = np.zeros(counts, dtype=bool)
    neg = np.zeros(counts, dtype=bool)
    idx = [slice(None)] * n
    idx[axis] = instance.faces_neg[axis]
    neg[tuple(idx)] = True
    reached |= neg & ~blocked
    while True:
        grown = reached
        for j in range(n):
            moved = np.moveaxis(grown, j, 0)
            flat = moved.reshape(counts[j], -1).astype(np.float32)
            expanded = (adjacency[j] @ flat) > 0.5
            grown = np.moveaxis(expanded.reshape(moved.shape), 0, j)
        grown = (grown | reached) & ~blocked
        if (grown == reached).all():
            break
        reached = grown
    pos = np.zeros(counts, dtype=bool)
    idx = [slice(None)] * n
    idx[axis] = instance.faces_pos[axis]
    pos[tuple(idx)] = True
    return not bool((reached & pos).any())


def hl_discrete_check(instance: SeparatorInstance) -> bool:
    """Do the n separator bands share a product cell?

    Lays the instance out once, validates it as :func:`validate_separators`
    does (an invalid instance raises instead of reporting a proposition
    failure), then scans its product for a cell in every band
    (:func:`_shared_cells`).
    """
    batch = _packed([instance])
    _, failed = _validations(batch)
    if failed:
        raise failed[0]
    return bool(_shared_cells(batch)[0])


def _face_indices(occupancy: NDArray[np.bool_], face_cells: NDArray[np.int64]) -> NDArray[np.int64]:
    """Ascending positions of ``face_cells``, occupied cells each, in the C-ordered cell list.

    A cell's position is the running count of occupied cells up to it, less one.
    """
    flat = np.unique(np.ravel_multi_index(tuple(face_cells.T), occupancy.shape))
    return np.cumsum(occupancy.ravel())[flat] - 1


def build_sum_separators(
    construction: ShiftConstruction,
    sets: Sequence[SampledSet],
    target: Sequence[float],
    h: float,
) -> SeparatorInstance:
    """Separator bands for a target the rasterized sum fails to reach.

    Factor j is the occupancy of the OUTER raster of K_j + Z_j; the axis-k
    potential of a factor cell is its center's k-th coordinate, so the band around y_k collects
    the product cells whose summed image straddles the hyperplane pr_k = y_k
    (half-width n*h/2: a sum of n cells spans a cube of side n*h).  Faces
    come from the extreme lattice copies K_j -l*e_j and K_j +l*e_j.
    """
    n = construction.n
    if not 1 <= n <= _MAX_SEPARATOR_DIM:
        raise ValueError(f"separator instances support 1..{_MAX_SEPARATOR_DIM} factors")
    y = np.asarray(target, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"target must be a {n}-vector")
    total = shifted_sum_raster(construction, sets, h)
    if (
        total.geometry.contains_point(y)
        and total.occupancy[tuple(total.geometry.cells_of(y[None, :])[0])]
    ):
        raise ValueError(f"target {tuple(float(v) for v in y)} lies inside the rasterized sum")
    factors = []
    faces_neg = []
    faces_pos = []
    centers = []
    for j, k in enumerate(sets):
        factor_samples = _shifted_factor_samples(k, construction.lattice_axis[j])
        # Outer semantics bridges sampling gaps, keeping each factor connected.
        raster = rasterize(
            factor_samples, auto_geometry(factor_samples.points, h), Semantics.OUTER
        )
        cells = raster.occupied_indices()
        factors.append(raster.occupancy)
        lo_copy = k.points + construction.lattice_axis[j][0]
        hi_copy = k.points + construction.lattice_axis[j][-1]
        faces_neg.append(_face_indices(raster.occupancy, raster.geometry.cells_of(lo_copy)))
        faces_pos.append(_face_indices(raster.occupancy, raster.geometry.cells_of(hi_copy)))
        origin = np.asarray(raster.geometry.origin)
        centers.append(origin + (cells + 0.5) * h)
    potentials = tuple(
        tuple(centers[j][:, k].copy() for j in range(n)) for k in range(n)
    )
    return SeparatorInstance(
        factors=tuple(factors),
        potentials=potentials,
        band_center=y.copy(),
        band_radius=np.full(n, n * h / 2),
        faces_neg=tuple(faces_neg),
        faces_pos=tuple(faces_pos),
    )


#: Each walk visits ``rng.integers(*_WALK_SIZES)`` cells.
_WALK_SIZES = (10, 26)


def _walk_cells(
    n: NDArray[np.intp], axis: NDArray[np.intp], steps: NDArray[np.intp], draws: NDArray[np.float64]
) -> tuple[NDArray[np.int64], NDArray[np.intp], NDArray[np.int64]]:
    """The walks of one round, stepped together.

    Walk w runs in ``n[w]`` dimensions along ``axis[w]`` and reads the next
    ``3 * steps[w]`` of ``draws``: a draw below 0.7 steps forward along its
    axis, and [0.7, 1) is split evenly among the 2n unit steps -e_0, +e_0,
    ..., -e_{n-1}, +e_{n-1}.  The walk stops once ``steps[w]`` cells are
    visited, that is at the first position that brings its count of
    distinct positions to ``steps[w]``, or at its last.  A position is one
    int holding its coordinates (each within ``3 * _WALK_SIZES[1]`` of 0)
    as digits, so one sort of walk-and-position keys marks each position's
    first visit and lists every walk's cells in C order.  Returns the
    walks' cells one walk after another, lowest corner at 0 (three
    columns, 0 past n), each walk's cell count and its extents (1 past n).
    """
    reach = 3 * _WALK_SIZES[1]
    base = 2 * reach + 1
    strides = base ** np.arange(_MAX_SEPARATOR_DIM - 1, -1, -1)
    walk = np.repeat(np.arange(len(steps)), 3 * steps)
    forward = draws < 0.7
    side = ((draws - 0.7) * (2 * n[walk] / 0.3)).astype(np.int64)
    moved = strides[np.where(forward, axis[walk], side // 2)]
    # Each walk's positions: its start, then one per draw.
    lengths = 3 * steps + 1
    offsets = np.cumsum(lengths) - lengths
    moves = np.zeros(int(lengths.sum()), dtype=np.int64)
    moves[np.arange(len(draws)) + walk + 1] = np.where(forward | (side % 2 == 1), moved, -moved)
    owner = np.repeat(np.arange(len(steps)), lengths)
    travelled = np.cumsum(moves)
    keys = owner * base**_MAX_SEPARATOR_DIM + reach * strides.sum()
    keys += travelled - np.repeat(travelled[offsets], lengths)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[order] = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    seen = np.cumsum(new)
    seen -= np.repeat(seen[offsets] - 1, lengths)
    t = np.arange(len(keys)) - np.repeat(offsets, lengths)
    cut = lengths - 1
    full = np.flatnonzero(new & (seen == np.repeat(steps, lengths)))
    cut[owner[full]] = t[full]
    kept = order[(new & (t <= cut[owner]))[order]]
    coords = keys[kept, None] // strides % base
    counts = np.bincount(owner[kept], minlength=len(steps))
    begins = np.cumsum(counts) - counts
    low = np.minimum.reduceat(coords, begins)
    extents = np.maximum.reduceat(coords, begins) - low + 1
    return coords - np.repeat(low, counts, axis=0), counts, extents


def _drawn(specs: Sequence[tuple[int, int]]) -> _Batch:
    """The validated batch of each spec's :func:`random_separator_instance`, in spec order.

    Each spec draws from its own ``np.random.default_rng(seed)``: per
    candidate, factor j = 0..n-1 takes ``integers(*_WALK_SIZES)`` and then
    ``random(3 * steps)``.  A round draws one candidate for every spec
    still open, steps all their walks by :func:`_walk_cells` and runs the
    gap test on all their extents; a spec whose candidate fails is redrawn
    from its stream in the next round, for at most 64 rounds.  The batch
    then has every factor's cells, coordinate potentials and faces at
    once, and one :func:`_validations` call checks it.  A spec with an
    unsupported n or a negative seed is refused before any draw.
    """
    for n, seed in specs:
        if not 1 <= n <= _MAX_SEPARATOR_DIM:
            raise ValueError(f"separator instances support 1..{_MAX_SEPARATOR_DIM} factors")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
    rngs = [np.random.default_rng(seed) for _, seed in specs]
    dims = np.array([n for n, _ in specs], dtype=np.intp)
    count = len(specs)
    centers = np.zeros((count, _MAX_SEPARATOR_DIM))
    # Each round's passing walks: their spec, cells and cell counts (first an
    # empty round, so that no specs make an empty batch).
    rounds = [
        (
            np.zeros(0, dtype=np.intp),
            np.zeros((0, _MAX_SEPARATOR_DIM), dtype=np.int64),
            np.zeros(0, dtype=np.intp),
        )
    ]
    open_specs = np.arange(count)
    for _attempt in range(64):
        if not len(open_specs):
            break
        steps: list[int] = []
        draws = []
        for s in open_specs.tolist():
            for _ in range(specs[s][0]):
                steps.append(int(rngs[s].integers(*_WALK_SIZES)))
                draws.append(rngs[s].random(3 * steps[-1]))
        owner = np.repeat(np.arange(len(open_specs)), dims[open_specs])
        axis = np.arange(len(owner)) - np.repeat(
            np.cumsum(dims[open_specs]) - dims[open_specs], dims[open_specs]
        )
        cells, sizes, extents = _walk_cells(
            dims[open_specs][owner], axis, np.array(steps), np.concatenate(draws)
        )
        # Coordinate potentials from 0 put axis k's faces at ``below``, the
        # other factors' axis-k extents less one each, summed, and ``above``,
        # factor k's own axis-k extent less one.
        spans = np.zeros((len(open_specs), _MAX_SEPARATOR_DIM, _MAX_SEPARATOR_DIM), dtype=np.int64)
        spans[owner, axis] = extents - 1
        above = np.diagonal(spans, axis1=1, axis2=2)
        below = spans.sum(axis=1) - above
        axes_past_n = np.arange(_MAX_SEPARATOR_DIM) >= dims[open_specs][:, None]
        passed = ((above - below > 4) | axes_past_n).all(axis=1)
        centers[open_specs[passed]] = np.rint((below + above)[passed] / 2)
        kept = passed[owner]
        rounds.append((open_specs[owner[kept]], cells[np.repeat(kept, sizes)], sizes[kept]))
        open_specs = open_specs[~passed]
    if len(open_specs):
        raise RuntimeError(
            f"no valid random instance after 64 attempts (seed {specs[open_specs[0]][1]})"
        )
    spec_of, cells, sizes = (np.concatenate(parts) for parts in zip(*rounds))
    # Factors in spec order: each spec's factors passed in one round, in order.
    order = np.argsort(spec_of, kind="stable")
    begins = np.cumsum(sizes) - sizes
    sizes = sizes[order]
    moved = np.repeat(begins[order] - (np.cumsum(sizes) - sizes), sizes)
    cells = cells[moved + np.arange(sizes.sum())]
    factors = len(sizes)
    factor_rows = np.repeat(np.arange(factors), sizes)
    slot = np.arange(factors) - np.repeat(np.cumsum(dims) - dims, dims)
    # Factor j's faces are its cells at either end of its own axis j.
    own = cells[np.arange(len(cells)), slot[factor_rows]]
    ends = np.maximum.reduceat(own, np.cumsum(sizes) - sizes)
    faces = [np.flatnonzero(face) for face in (own == 0, own == ends[factor_rows])]
    batch = _Batch(
        dims=dims,
        sizes=sizes,
        cells=cells,
        potentials=np.ascontiguousarray(cells.T, dtype=np.float64),
        centers=centers,
        radii=np.ones((count, _MAX_SEPARATOR_DIM)),
        faces=(faces[0], faces[1]),
        face_sizes=np.array([np.bincount(factor_rows[f], minlength=factors) for f in faces]),
    )
    _, failed = _validations(batch)
    if failed:
        i = min(failed)
        raise RuntimeError(
            f"random separator instance ({specs[i][0]}, {specs[i][1]}) failed validation"
        ) from failed[i]
    return batch


def random_bands_share_cell(specs: Sequence[tuple[int, int]]) -> list[bool]:
    """Whether the bands of each spec's :func:`random_separator_instance` share a cell.

    Every spec is drawn and validated in one batch (:func:`_drawn`), then
    the batch is scanned: one array scan per factor count, over the batch's
    potentials, with no instance built.
    """
    return _shared_cells(_drawn(specs)).tolist()


def random_separator_instance(n: int, seed: int) -> SeparatorInstance:
    """The random valid band-separator instance of ``(n, seed)``.

    Factor j is a random-walk grid continuum stretched along axis j, held
    as the occupancy of its bounding box; the axis-k potentials are plain
    cell coordinates (integral and 1-Lipschitz under chessboard steps), the
    band sits at an integer level inside the verified face gap with
    half-width 1, and faces are the coordinate extremes of the stretched
    factor.  The walks are drawn from ``np.random.default_rng(seed)``, each
    step forward along the factor's axis with probability 0.7, else a unit
    step along a uniform axis and sign.  A candidate with a face gap under
    5 is redrawn, up to 64 times, then RuntimeError is raised.  One that
    passes is valid by construction: unit-step walks are face-connected, a
    product step moves the summed potential by at most n <= 3 = 2 * 1 + 1,
    and the rounded band center lies 2 or more from each face.  It is read
    off the one-spec batch of :func:`_drawn`, which still validates it and
    names the spec in a RuntimeError chained from any validation error.
    """
    batch = _drawn([(n, seed)])
    cuts = np.cumsum(batch.sizes)[:-1]
    factors = []
    for cells in np.split(batch.cells[:, :n], cuts):
        factors.append(np.zeros(cells.max(axis=0) + 1, dtype=bool))
        factors[-1][tuple(cells.T)] = True
    neg, pos = (
        [rows - start for rows, start in zip(np.split(side, np.cumsum(sizes)[:-1]), [0, *cuts])]
        for side, sizes in zip(batch.faces, batch.face_sizes)
    )
    return SeparatorInstance(
        factors=tuple(factors),
        potentials=tuple(tuple(np.split(batch.potentials[k], cuts)) for k in range(n)),
        band_center=batch.centers[0, :n].copy(),
        band_radius=np.ones(n),
        faces_neg=tuple(neg),
        faces_pos=tuple(pos),
    )
