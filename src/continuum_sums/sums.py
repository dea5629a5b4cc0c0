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
    component_counts,
    eps_density_margin,
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


@dataclass(frozen=True, eq=False)
class SeparatorInstance:
    """Band separators on a product of grid continua.

    ``factors[j]`` is factor j's boolean occupancy array, and
    :attr:`factor_cells` derives its occupied cells in C order.  For axis k,
    the separator S_k collects the product cells whose potential sum lies
    within ``band_radius[k]`` of ``band_center[k]``, the summand for factor
    j being ``potentials[k][j]`` at its cell.  Faces index factor k's cells
    as numpy reads them; a product cell is in F_k^- when ``faces_neg[k]``
    picks its k-th factor cell.  Instances hold arrays, so they compare and
    hash by identity.
    """

    factors: tuple[NDArray[np.bool_], ...]
    potentials: tuple[tuple[NDArray[np.float64], ...], ...]
    band_center: NDArray[np.float64]
    band_radius: NDArray[np.float64]
    faces_neg: tuple[NDArray[np.int64], ...]
    faces_pos: tuple[NDArray[np.int64], ...]

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def factor_cells(self) -> tuple[NDArray[np.int64], ...]:
        """Each factor's occupied cells in C order: ``np.argwhere`` of its occupancy."""
        return tuple(np.argwhere(f) for f in self.factors)


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

    ``cells`` holds non-empty lists of one dimension one after another, list
    i from row ``starts[i]`` on.  Returns row pairs ``(first, second)``,
    each unordered pair of adjacent rows once.  A list's cells are keyed in
    its bounding box grown by one cell on every side, the boxes laid end to
    end, so the key of a neighbour lies in its own list's box and names a
    cell only if the list holds it.  Each cell's neighbours are found by
    searching the sorted keys for its key plus half the neighbour offsets
    (the other half give the same pairs reversed).
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
    left = np.searchsorted(ordered, queries, "left")
    hits = np.searchsorted(ordered, queries, "right") - left
    # A listed cell twice over is two hits, consecutive in the sorted keys.
    first = np.repeat(np.arange(rows), hits.reshape(rows, -1).sum(axis=1))
    within = np.arange(first.size) - np.repeat(np.cumsum(hits) - hits, hits)
    return first, order[np.repeat(left, hits) + within]


def _integral_entries(values: NDArray[np.float64]) -> NDArray[np.bool_]:
    """Which entries ``np.allclose(values, np.round(values), atol=1e-9)`` finds close.

    Infinities equal their own rounding; NaN is never integral.
    """
    rounded = np.round(values)
    with np.errstate(invalid="ignore"):
        close = np.abs(values - rounded) <= 1e-9 + 1e-5 * np.abs(rounded)
    return close | (values == rounded)


def _checked_cells(instance: SeparatorInstance, components: list[int]) -> list[NDArray[np.int64]]:
    """Each factor's occupied cells in C order, after the checks of each factor's structure.

    In factor order: one face component, and one potential per occupied
    cell on every axis.
    """
    cells = list(instance.factor_cells)
    for j, c in enumerate(cells):
        if components[j] != 1:
            raise ValueError(f"factor {j} is not a connected grid continuum")
        for k in range(instance.n):
            if len(instance.potentials[k][j]) != len(c):
                raise ValueError(f"axis {k}: factor {j} potentials do not match its cell list")
    return cells


def _band_report(
    instance: SeparatorInstance,
    steps: list[list[float]],
    integral: list[list[bool]],
    highest: list[list[float]],
    lowest: list[list[float]],
) -> SeparatorValidation:
    """The band checks of one instance, axis by axis, from its grouped reductions.

    ``steps[k][j]``, ``integral[k][j]``, ``highest[k][j]`` and ``lowest[k][j]``
    describe factor j's axis-k potentials.  The faces are read here, each
    as numpy indexes factor k's axis-k potentials with it.
    """
    n = instance.n
    max_step: list[float] = []
    integral_axes: list[bool] = []
    face_below: list[float] = []
    face_above: list[float] = []
    for k in range(n):
        level = float(max(steps[k]))
        max_step.append(level)
        center = float(instance.band_center[k])
        radius = float(instance.band_radius[k])
        is_integral = all(integral[k]) and abs(center - round(center)) < 1e-9 and abs(
            radius - round(radius)
        ) < 1e-9
        integral_axes.append(is_integral)
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
        own = np.asarray(instance.potentials[k][k])
        below = float(own[instance.faces_neg[k]].max())
        above = float(own[instance.faces_pos[k]].min())
        below += sum(highest[k][j] for j in range(n) if j != k)
        above += sum(lowest[k][j] for j in range(n) if j != k)
        face_below.append(below)
        face_above.append(above)
        if not (below < center - radius and above > center + radius):
            raise ValueError(
                f"axis {k}: faces do not straddle the band "
                f"({below} .. {above} around {center} +- {radius})"
            )
    return SeparatorValidation(
        max_step=np.array(max_step, dtype=np.float64),
        integral=np.array(integral_axes, dtype=bool),
        face_below=np.array(face_below, dtype=np.float64),
        face_above=np.array(face_above, dtype=np.float64),
    )


def _band_checks(
    instances: Sequence[SeparatorInstance], cells: dict[int, list[NDArray[np.int64]]]
) -> dict[int, SeparatorValidation | Exception]:
    """The band checks of the instances whose factors passed, with every array reduction grouped.

    ``cells[i]`` holds instance i's factor cells, ``np.argwhere`` of each
    occupancy.  Factors are laid end to end, grouped by dimension, and their
    axis-k potentials form row k of one array (zeros past an instance's n).
    Steps come from one ``maximum.at`` over the adjacent pairs of each
    dimension, and integrality and the potential extremes from ``reduceat``
    over the factors; :func:`_band_report` reads each instance's faces.
    """
    slots = sorted((c.shape[1], i, j) for i, lists in cells.items() for j, c in enumerate(lists))
    if not slots:
        return {}
    factor_of = {(i, j): f for f, (_, i, j) in enumerate(slots)}
    lists = [cells[i][j] for _, i, j in slots]
    sizes = np.array([len(c) for c in lists])
    starts = np.cumsum(sizes) - sizes
    axes = max(instances[i].n for i in cells)
    zeros = np.zeros(int(sizes.max()))
    pots = np.stack(
        [
            np.concatenate(
                [
                    instances[i].potentials[k][j] if k < instances[i].n else zeros[: len(c)]
                    for (_, i, j), c in zip(slots, lists)
                ]
            )
            for k in range(axes)
        ]
    ).astype(np.float64, copy=False)
    factor_rows = np.repeat(np.arange(len(slots)), sizes)
    steps = np.zeros((axes, len(slots)))
    dims = [d for d, _, _ in slots]
    for d in sorted(set(dims)):
        lo, hi = dims.index(d), len(dims) - dims[::-1].index(d)
        first, second = _adjacent_pairs(np.concatenate(lists[lo:hi]), starts[lo:hi] - starts[lo])
        first += starts[lo]
        second += starts[lo]
        np.maximum.at(steps.T, factor_rows[first], np.abs(pots[:, first] - pots[:, second]).T)
    highest = np.maximum.reduceat(pots, starts, axis=1).tolist()
    lowest = np.minimum.reduceat(pots, starts, axis=1).tolist()
    integral = np.logical_and.reduceat(_integral_entries(pots), starts, axis=1).tolist()
    steps_by_factor = steps.tolist()
    outcomes: dict[int, SeparatorValidation | Exception] = {}
    for i in cells:
        instance = instances[i]
        fs = [factor_of[i, j] for j in range(instance.n)]
        try:
            outcomes[i] = _band_report(
                instance,
                [[row[f] for f in fs] for row in steps_by_factor],
                [[row[f] for f in fs] for row in integral],
                [[row[f] for f in fs] for row in highest],
                [[row[f] for f in fs] for row in lowest],
            )
        except Exception as exc:  # this instance's outcome, raised by its caller
            outcomes[i] = exc
    return outcomes


def _validations(
    instances: Sequence[SeparatorInstance],
) -> list[SeparatorValidation | Exception]:
    """What :func:`validate_separators` returns or raises for each instance, found together.

    The checks run in the order of a single validation, and an instance's
    outcome never depends on the others: every factor's face components are
    counted in one :func:`~continuum_sums.grid.component_counts` call, then
    each instance's factor structure is checked, then :func:`_band_checks`
    groups the band checks.
    """
    outcomes: list[SeparatorValidation | Exception | None] = [None] * len(instances)
    live = []
    for i, instance in enumerate(instances):
        if 1 <= instance.n <= _MAX_SEPARATOR_DIM:
            live.append(i)
        else:
            outcomes[i] = ValueError(
                f"separator instances support 1..{_MAX_SEPARATOR_DIM} factors"
            )
    components = iter(component_counts([f for i in live for f in instances[i].factors]))
    cells: dict[int, list[NDArray[np.int64]]] = {}
    for i in live:
        counts = [next(components) for _ in instances[i].factors]
        try:
            cells[i] = _checked_cells(instances[i], counts)
        except Exception as exc:  # this instance's outcome, raised by its caller
            outcomes[i] = exc
    for i, outcome in _band_checks(instances, cells).items():
        outcomes[i] = outcome
    return outcomes  # type: ignore[return-value]


def validate_separators(instance: SeparatorInstance) -> SeparatorValidation:
    """Check the band-jump preconditions; raise on an invalid instance.

    In order: 1..3 factors; factor by factor, one face component and one
    potential per occupied cell on every axis; then axis by axis, a
    product step (every factor one chessboard step, the largest potential
    change over adjacent occupied cells) cannot leap the band, both faces
    are non-empty, and the faces, read as numpy indexing reads them,
    straddle the band.
    The one-instance call of the grouped validation that
    :func:`random_separator_instances` runs over a whole batch.
    """
    (outcome,) = _validations([instance])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _band_masks(instance: SeparatorInstance, k: int) -> NDArray[np.bool_]:
    """Boolean product-array of S_k over factor cell indices."""
    n = instance.n
    total = instance.potentials[k][0].reshape(-1, *([1] * (n - 1))).astype(np.float64)
    for j in range(1, n):
        shape = [1] * n
        shape[j] = -1
        total = total + instance.potentials[k][j].reshape(shape)
    return np.abs(total - instance.band_center[k]) <= instance.band_radius[k] + 1e-12


def separation_by_search(instance: SeparatorInstance, axis: int) -> bool:
    """Product-graph flood fill: does S_axis block every F^- to F^+ path?

    Independent of the band-jump route: expands reachability through the
    strong product of the factor adjacency graphs, one factor at a time,
    never entering separator cells.
    """
    n = instance.n
    factor_cells = instance.factor_cells
    counts = [len(c) for c in factor_cells]
    adjacency = []
    for count, cells in zip(counts, factor_cells):
        matrix = np.eye(count, dtype=np.float32)
        if count:
            first, second = _adjacent_pairs(cells, np.zeros(1, np.intp))
            matrix[first, second] = matrix[second, first] = 1.0
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
    (:func:`random_separator_instances` returns only such instances).
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


#: One walk: the cell coordinates along each axis (cells in lexicographic
#: order), their lowest values and the factor's extents.
_Walk = tuple[list[list[int]], list[int], list[int]]


#: Each walk visits ``rng.integers(*_WALK_SIZES)`` cells.
_WALK_SIZES = (10, 26)


def _walk(rng: np.random.Generator, n: int, j: int) -> _Walk:
    """One random-walk factor stretched along axis j, drawn from ``rng``.

    ``steps = rng.integers(*_WALK_SIZES)``, then one ``rng.random(3 * steps)``
    array: a draw below 0.7 steps forward along axis j, and [0.7, 1) is
    split evenly among the 2n unit steps -e_0, +e_0, ..., -e_{n-1},
    +e_{n-1}.  The walk stops once ``steps`` cells are visited.  A position
    is one int holding its coordinates (each within ``3 * _WALK_SIZES[1]``
    of 0) as digits, so the sorted keys are the lexicographic (C scan)
    order of the cells.
    """
    steps = int(rng.integers(*_WALK_SIZES))
    reach = 3 * _WALK_SIZES[1]
    base = 2 * reach + 1
    strides = [base ** (n - 1 - a) for a in range(n)]
    key = reach * sum(strides)
    visited = {key}
    forward = strides[j]
    sides = [sign * stride for stride in strides for sign in (-1, 1)]
    # For n <= 3 even the largest draw, 1 - 2**-53, maps below 2n.
    scale = 2 * n / 0.3
    for draw in rng.random(3 * steps).tolist():
        if len(visited) >= steps:
            break
        key += forward if draw < 0.7 else sides[int((draw - 0.7) * scale)]
        visited.add(key)
    keys = sorted(visited)
    coords = [[k // stride % base for k in keys] for stride in strides]
    lows = [min(c) for c in coords]
    extents = [max(c) - low + 1 for c, low in zip(coords, lows)]
    return coords, lows, extents


def _gapped_walks(rng: np.random.Generator, n: int) -> tuple[list[_Walk], list[int]] | None:
    """The first n walks from ``rng`` whose face gaps all exceed 4, and their band centers.

    A candidate's walks are drawn from ``rng`` by :func:`_walk`, factor j
    along axis j in order, and the next candidate goes on in the same
    stream.  With coordinate potentials shifted to start at 0, axis k's
    faces sit at ``below``, the other factors' axis-k extents less one
    each, summed, and ``above``, factor k's own axis-k extent less one; so
    the gap test needs only the walks' extents.  None once 64 candidates
    have failed.
    """
    for _ in range(64):
        walks = [_walk(rng, n, j) for j in range(n)]
        centers = []
        for k in range(n):
            below = sum(walks[j][2][k] - 1 for j in range(n) if j != k)
            above = walks[k][2][k] - 1
            if above - below <= 4:
                break
            centers.append(round((below + above) / 2))
        else:
            return walks, centers
    return None


def _built_instances(
    n: int, candidates: list[tuple[list[_Walk], list[int]]]
) -> list[SeparatorInstance]:
    """The candidates of one dimension as instances, their arrays made together.

    Every factor's potentials and face lists are slices of arrays made for
    the whole batch, and its occupancy is a view of its own stretch of one
    flat buffer.
    """
    walks = [w for ws, _ in candidates for w in ws]
    sizes = np.array([len(w[0][0]) for w in walks])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    factor_rows = np.repeat(np.arange(len(walks)), sizes)
    coords = np.array([[v for w in walks for v in w[0][a]] for a in range(n)], dtype=np.int64)
    coords -= np.array([w[1] for w in walks], dtype=np.int64).T[:, factor_rows]
    cells = coords.T
    potentials = coords.astype(np.float64)
    extents = np.array([w[2] for w in walks], dtype=np.int64)
    strides = np.ones_like(extents)
    for a in range(n - 2, -1, -1):
        strides[:, a] = strides[:, a + 1] * extents[:, a + 1]
    boxes = strides[:, 0] * extents[:, 0]
    box_ends = np.cumsum(boxes)
    buffer = np.zeros(int(box_ends[-1]), dtype=bool)
    buffer[(box_ends - boxes)[factor_rows] + (cells * strides[factor_rows]).sum(axis=1)] = True
    # Factor j's faces are its cells at either end of its own axis j.
    own_axis = np.arange(len(walks)) % n
    own = cells[np.arange(len(cells)), own_axis[factor_rows]]
    local = np.arange(len(cells), dtype=np.int64) - starts[factor_rows]
    faces = []
    for side in (own == 0, own == (extents[np.arange(len(walks)), own_axis] - 1)[factor_rows]):
        found = local[side]
        bounds = np.cumsum(np.bincount(factor_rows[side], minlength=len(walks))).tolist()
        faces.append([found[lo:hi] for lo, hi in zip([0, *bounds], bounds)])
    spans = list(zip(starts.tolist(), ends.tolist()))
    box_spans = list(zip((box_ends - boxes).tolist(), box_ends.tolist()))
    instances = []
    for c, (_, centers) in enumerate(candidates):
        fs = range(c * n, (c + 1) * n)
        instances.append(
            SeparatorInstance(
                factors=tuple(buffer[slice(*box_spans[f])].reshape(walks[f][2]) for f in fs),
                potentials=tuple(
                    tuple(potentials[k, slice(*spans[f])] for f in fs) for k in range(n)
                ),
                band_center=np.array(centers, dtype=np.float64),
                band_radius=np.ones(n),
                faces_neg=tuple(faces[0][f] for f in fs),
                faces_pos=tuple(faces[1][f] for f in fs),
            )
        )
    return instances


def random_separator_instances(specs: Sequence[tuple[int, int]]) -> list[SeparatorInstance]:
    """One random valid band-separator instance per ``(n, seed)`` spec, in order.

    Factor j is a random-walk grid continuum stretched along axis j, held
    as the occupancy of its bounding box; the axis-k potentials are plain
    cell coordinates (integral and 1-Lipschitz
    under chessboard steps), the band sits at an integer level inside the
    verified face gap with half-width 1, and faces are the coordinate
    extremes of the stretched factor.

    Each spec draws its walks from its own ``np.random.default_rng(seed)``
    (:func:`_walk`: a size, then one array of uniform draws, each a step
    forward along the factor's axis with probability 0.7, else a unit step
    along a uniform axis and sign), so an instance depends on its spec
    alone.  A candidate whose face gap is too narrow is redrawn at once,
    on plain ints, and a spec with none wide enough in 64 candidates raises
    RuntimeError.  A candidate that passes the gap test is valid by
    construction: unit-step walks are face-connected, a product step moves
    the summed potential by at most n <= 3 = 2 * 1 + 1, and a gap of at
    least 5 puts the rounded band center 2 or more from each face.  The
    candidates are still validated together (:func:`validate_separators`,
    grouped over the batch), and a failure raises RuntimeError naming its
    spec, chained from the validation error.  So callers can go straight to
    :func:`bands_share_cell`.  The instances of one call share array
    buffers (see :func:`_built_instances`).
    """
    for n, _ in specs:
        if not 1 <= n <= _MAX_SEPARATOR_DIM:
            raise ValueError(f"separator instances support 1..{_MAX_SEPARATOR_DIM} factors")
    by_dim: dict[int, list[int]] = {}
    drawn = []
    for i, (n, seed) in enumerate(specs):
        found = _gapped_walks(np.random.default_rng(seed), n)
        if found is None:
            raise RuntimeError(f"no valid random instance after 64 attempts (seed {seed})")
        drawn.append(found)
        by_dim.setdefault(n, []).append(i)
    order = [i for members in by_dim.values() for i in members]
    candidates = [
        instance
        for n, members in by_dim.items()
        for instance in _built_instances(n, [drawn[i] for i in members])
    ]
    instances: list[SeparatorInstance | None] = [None] * len(specs)
    for i, candidate, outcome in zip(order, candidates, _validations(candidates)):
        if not isinstance(outcome, SeparatorValidation):
            n, seed = specs[i]
            raise RuntimeError(
                f"random separator instance ({n}, {seed}) failed validation"
            ) from outcome
        instances[i] = candidate
    return instances  # type: ignore[return-value]


def random_separator_instance(n: int, seed: int) -> SeparatorInstance:
    """The random valid band-separator instance of ``(n, seed)``.

    The one-spec call of :func:`random_separator_instances`.
    """
    return random_separator_instances([(n, seed)])[0]
