"""Shifted-lattice coverings, measure chains, midpoint iteration, separators.

The constructions here assume their inputs were normalized so the certified
independent directions are the standard basis vectors (the verify module does
that); each set must contain the origin and stretch one unit along its axis so
the shifted copies chain into grid continua.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .grid import (
    CubeOutsideGridError,
    GridGeometry,
    GridSet,
    PackedMask,
    SampledSet,
    Semantics,
    auto_geometry,
    eps_density_margin,
    is_grid_continuum,
    measure_estimate,
    minkowski_sum,
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
    axis holds none and is not packed.
    """
    if min(grid.geometry.extents) < 2 * radius_cells + 1:
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


@dataclass(frozen=True)
class SeparatorInstance:
    """Band separators on a product of grid continua.

    Factor j occupies cells ``factor_cells[j]`` (lexicographic order).  For
    axis k, the separator S_k collects the product cells whose potential sum
    lies within ``band_radius[k]`` of ``band_center[k]``, where the summand
    for factor j is ``potentials[k][j]`` evaluated at its cell.  Faces are
    index lists into factor k's cell list; a product cell belongs to F_k^-
    when its k-th factor cell is listed in ``faces_neg[k]``.
    """

    factors: tuple[GridSet, ...]
    factor_cells: tuple[NDArray[np.int64], ...]
    potentials: tuple[tuple[NDArray[np.float64], ...], ...]
    band_center: NDArray[np.float64]
    band_radius: NDArray[np.float64]
    faces_neg: tuple[NDArray[np.int64], ...]
    faces_pos: tuple[NDArray[np.int64], ...]
    target: NDArray[np.float64] | None = None

    @property
    def n(self) -> int:
        return len(self.factors)


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


def _adjacent_pairs(cells: NDArray[np.int64]) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """Index pairs (both orders) of chessboard-adjacent cells in a cell list."""
    diff = np.abs(cells[:, None, :] - cells[None, :, :]).max(axis=2)
    return np.nonzero(diff == 1)


def _adjacent_potential_step(
    pairs: tuple[NDArray[np.intp], NDArray[np.intp]], values: NDArray[np.float64]
) -> float:
    """Largest |value difference| over chessboard-adjacent occupied cells."""
    first, second = pairs
    if len(first) == 0:
        return 0.0
    return float(np.abs(values[first] - values[second]).max())


def _is_integral(values: NDArray[np.float64]) -> bool:
    """``np.allclose(values, np.round(values), atol=1e-9)``, written out.

    Infinities equal their own rounding; NaN is never integral.
    """
    rounded = np.round(values)
    exact = values == rounded
    if exact.all():
        return True
    with np.errstate(invalid="ignore"):
        close = np.abs(values - rounded) <= 1e-9 + 1e-5 * np.abs(rounded)
    return bool((close | exact).all())


def validate_separators(instance: SeparatorInstance) -> SeparatorValidation:
    """Check the band-jump preconditions; raise on an invalid instance."""
    n = instance.n
    if not 1 <= n <= _MAX_SEPARATOR_DIM:
        raise ValueError(f"separator instances support 1..{_MAX_SEPARATOR_DIM} factors")
    for j, factor in enumerate(instance.factors):
        if not is_grid_continuum(factor):
            raise ValueError(f"factor {j} is not a connected grid continuum")
        if len(instance.factor_cells[j]) != factor.occupied_count:
            raise ValueError(f"factor {j} cell list does not match its occupancy")
        for k in range(n):
            if len(instance.potentials[k][j]) != len(instance.factor_cells[j]):
                raise ValueError(f"axis {k}: factor {j} potentials do not match its cell list")
    pairs = [_adjacent_pairs(cells) for cells in instance.factor_cells]
    max_step = np.zeros(n)
    integral = np.zeros(n, dtype=bool)
    face_below = np.zeros(n)
    face_above = np.zeros(n)
    for k in range(n):
        pots = instance.potentials[k]
        steps = [_adjacent_potential_step(pairs[j], pots[j]) for j in range(n)]
        level = float(max(steps))
        max_step[k] = level
        center = float(instance.band_center[k])
        radius = float(instance.band_radius[k])
        is_integral = all(
            _is_integral(p) for p in pots
        ) and abs(center - round(center)) < 1e-9 and abs(radius - round(radius)) < 1e-9
        integral[k] = is_integral
        # One product step moves every factor at most one cell.
        jump = n * level
        allowed = 2 * radius + (1.0 if is_integral else 0.0)
        if jump > allowed + 1e-12:
            raise ValueError(
                f"axis {k}: a product step can move the potential sum by {jump}, "
                f"wide enough to leap the band of half-width {radius}"
            )
        if len(instance.faces_neg[k]) == 0 or len(instance.faces_pos[k]) == 0:
            raise ValueError(f"axis {k}: empty face set")
        others_max = sum(float(pots[j].max()) for j in range(n) if j != k)
        others_min = sum(float(pots[j].min()) for j in range(n) if j != k)
        below = float(pots[k][instance.faces_neg[k]].max()) + others_max
        above = float(pots[k][instance.faces_pos[k]].min()) + others_min
        face_below[k] = below
        face_above[k] = above
        if not (below < center - radius and above > center + radius):
            raise ValueError(
                f"axis {k}: faces do not straddle the band "
                f"({below} .. {above} around {center} +- {radius})"
            )
    return SeparatorValidation(
        max_step=max_step, integral=integral, face_below=face_below, face_above=face_above
    )


def _band_masks(instance: SeparatorInstance, k: int) -> NDArray[np.bool_]:
    """Boolean product-array of S_k over factor cell indices."""
    n = instance.n
    counts = [len(c) for c in instance.factor_cells]
    total = instance.potentials[k][0].reshape(
        counts[0], *([1] * (n - 1))
    ).astype(np.float64)
    for j in range(1, n):
        shape = [1] * n
        shape[j] = counts[j]
        total = total + instance.potentials[k][j].reshape(shape)
    return np.abs(total - instance.band_center[k]) <= instance.band_radius[k] + 1e-12


def separation_by_search(instance: SeparatorInstance, axis: int) -> bool:
    """Product-graph flood fill: does S_axis block every F^- to F^+ path?

    Independent of the band-jump route: expands reachability through the
    strong product of the factor adjacency graphs, one factor at a time,
    never entering separator cells.
    """
    n = instance.n
    counts = [len(c) for c in instance.factor_cells]
    adjacency = []
    for count, cells in zip(counts, instance.factor_cells):
        matrix = np.eye(count, dtype=np.float32)
        matrix[_adjacent_pairs(cells)] = 1.0
        adjacency.append(matrix)
    blocked = _band_masks(instance, axis)
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


def bands_share_cell(instance: SeparatorInstance) -> bool:
    """Scan the product for a cell in every band; no validation.

    Only meaningful for an instance :func:`validate_separators` accepted
    (:func:`random_separator_instance` returns only such instances).
    """
    mask = _band_masks(instance, 0)
    for k in range(1, instance.n):
        mask &= _band_masks(instance, k)
    return bool(mask.any())


def hl_discrete_check(instance: SeparatorInstance) -> bool:
    """Do the n separator bands share a product cell?

    Validates the instance first with :func:`validate_separators` (an invalid
    instance raises instead of reporting a proposition failure), then runs
    :func:`bands_share_cell`.
    """
    validate_separators(instance)
    return bands_share_cell(instance)


def _cells_of_points(grid: GridSet, points: NDArray[np.float64]) -> NDArray[np.int64]:
    geo = grid.geometry
    idx = np.floor((points - np.asarray(geo.origin)) / geo.spacing).astype(np.int64)
    idx = np.minimum(idx, np.asarray(geo.extents) - 1)
    return idx


def _face_indices(
    cells: NDArray[np.int64], face_cells: NDArray[np.int64]
) -> NDArray[np.int64]:
    """Positions of face cells inside the lexicographically ordered cell list."""
    n = cells.shape[1]
    weights = np.ones(n, dtype=np.int64)
    span = cells.max(axis=0) + 1
    for i in range(n - 2, -1, -1):
        weights[i] = weights[i + 1] * span[i + 1]
    keys = cells @ weights
    face_keys = np.unique(face_cells @ weights)
    order = np.argsort(keys)
    pos = np.searchsorted(keys[order], face_keys)
    hits = pos < len(keys)
    pos = pos[hits]
    face_keys = face_keys[hits]
    matched = keys[order][pos] == face_keys
    return np.sort(order[pos[matched]])


def build_sum_separators(
    construction: ShiftConstruction,
    sets: Sequence[SampledSet],
    target: Sequence[float],
    h: float,
) -> SeparatorInstance:
    """Separator bands for a target the rasterized sum fails to reach.

    Factor j is the raster of K_j + Z_j; the axis-k potential of a factor
    cell is its center's k-th coordinate, so the band around y_k collects
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
        and total.occupancy[tuple(_cells_of_points(total, y[None, :])[0])]
    ):
        raise ValueError(f"target {tuple(float(v) for v in y)} lies inside the rasterized sum")
    factors = []
    factor_cells = []
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
        factors.append(raster)
        factor_cells.append(cells)
        lo_copy = k.points + construction.lattice_axis[j][0]
        hi_copy = k.points + construction.lattice_axis[j][-1]
        faces_neg.append(_face_indices(cells, _cells_of_points(raster, lo_copy)))
        faces_pos.append(_face_indices(cells, _cells_of_points(raster, hi_copy)))
        origin = np.asarray(raster.geometry.origin)
        centers.append(origin + (cells + 0.5) * h)
    potentials = tuple(
        tuple(centers[j][:, k].copy() for j in range(n)) for k in range(n)
    )
    return SeparatorInstance(
        factors=tuple(factors),
        factor_cells=tuple(factor_cells),
        potentials=potentials,
        band_center=y.copy(),
        band_radius=np.full(n, n * h / 2),
        faces_neg=tuple(faces_neg),
        faces_pos=tuple(faces_pos),
        target=y.copy(),
    )


def random_separator_instance(
    n: int, seed: int, size_range: tuple[int, int] = (10, 26)
) -> SeparatorInstance:
    """A random valid band-separator instance on n blob factors.

    Factor j is a random-walk grid continuum stretched along axis j; the
    axis-k potentials are plain cell coordinates (integral and 1-Lipschitz
    under chessboard steps), the band sits at an integer level inside the
    verified face gap with half-width 1, and faces are the coordinate
    extremes of the stretched factor.  Every returned instance has passed
    :func:`validate_separators` here (a candidate it rejects is redrawn), so
    callers can go straight to :func:`bands_share_cell`.
    """
    if not 1 <= n <= _MAX_SEPARATOR_DIM:
        raise ValueError(f"separator instances support 1..{_MAX_SEPARATOR_DIM} factors")
    rng = np.random.default_rng(seed)
    for attempt in range(64):
        factors = []
        factor_cells = []
        ok = True
        for j in range(n):
            steps = int(rng.integers(*size_range))
            pos = [0] * n
            visited = {tuple(pos)}
            # March mostly along axis j so its own extent dominates.
            for _ in range(steps * 3):
                if rng.random() < 0.7:
                    pos[j] += 1
                else:
                    axis = int(rng.integers(n))
                    # The same draw as rng.choice((-1, 1)), at under a third of its cost.
                    pos[axis] += (-1, 1)[int(rng.integers(2))]
                visited.add(tuple(pos))
                if len(visited) >= steps:
                    break
            # Sorted tuples are the lexicographic (C scan) order of the cells.
            cells = np.array(sorted(visited), dtype=np.int64)
            cells -= cells.min(axis=0)
            extents = tuple(int(e) for e in cells.max(axis=0) + 1)
            occupancy = np.zeros(extents, dtype=bool)
            occupancy[tuple(cells.T)] = True
            grid = GridSet(
                geometry=GridGeometry(
                    origin=(0.0,) * n, spacing=1.0, extents=extents
                ),
                occupancy=occupancy,
                semantics=Semantics.SAMPLE_COVER,
                slack=0.5,
            )
            factors.append(grid)
            factor_cells.append(cells)
        potentials = tuple(
            tuple(factor_cells[j][:, k].astype(np.float64) for j in range(n))
            for k in range(n)
        )
        centers = np.zeros(n)
        faces_neg = []
        faces_pos = []
        for k in range(n):
            own = potentials[k][k]
            others_max = sum(float(potentials[k][j].max()) for j in range(n) if j != k)
            others_min = sum(float(potentials[k][j].min()) for j in range(n) if j != k)
            below = float(own.min()) + others_max
            above = float(own.max()) + others_min
            if above - below <= 4:
                ok = False
                break
            centers[k] = round((below + above) / 2)
            faces_neg.append(np.flatnonzero(own == own.min()).astype(np.int64))
            faces_pos.append(np.flatnonzero(own == own.max()).astype(np.int64))
        if not ok:
            continue
        instance = SeparatorInstance(
            factors=tuple(factors),
            factor_cells=tuple(factor_cells),
            potentials=potentials,
            band_center=centers,
            band_radius=np.ones(n),
            faces_neg=tuple(faces_neg),
            faces_pos=tuple(faces_pos),
        )
        try:
            validate_separators(instance)
        except ValueError:
            continue
        return instance
    raise RuntimeError(f"no valid random instance after 64 attempts (seed {seed})")
