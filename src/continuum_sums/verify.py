"""End-to-end evidence pipelines over the grid, affine and sum machinery.

Each pipeline translates its inputs so every set contains the origin, rotates
into the frame spanned by the rank certificate (a rigid motion, so measures
and interiors are unchanged), sweeps a list of grid resolutions, and returns
a structured report.  Verdicts are graded supported / refuted / inconclusive:
finite samples can never prove an interior point outright, only exhibit
evidence that sharpens as the grid refines.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .affine import (
    FlatnessReport,
    flatness_by_projection,
    is_nowhere_flat,
    nonflat_certificate,
)
from .gallery import (
    cantor_graph,
    dyadic_lines_check,
    ladder_steps,
    sampled_sum,
    segment,
)
from .grid import (
    GridGeometry,
    GridSet,
    PackedMask,
    SampledSet,
    Semantics,
    auto_geometry,
    cells_measure,
    chessboard_distance_transform,
    is_grid_continuum,
    minkowski_sum,
    rasterize,
)
from .sums import (
    SeparatorInstance,
    bands_share_cell,
    build_sum_separators,
    hl_discrete_check,
    measure_floor_check,
    random_separator_instance,
    separation_by_search,
    shift_construction,
)

DEFAULT_RESOLUTIONS = (0.02, 0.01, 0.005)

#: Patch radius for the staircase flatness probe: small enough to fit inside
#: the central removed third, large enough for patches to hold real geometry
#: at truncation levels >= 4.
_PLATEAU_RHO = 0.15


@dataclass(frozen=True)
class ResolutionEvidence:
    """One resolution step of an interior-evidence sweep.

    The cube, margin and measure all live in the rotated coordinates, which
    differ from the input ones by a rigid motion only.  ``density_margin`` is
    the worst sup-norm distance from a cell of the found cube to an occupied
    cell of the sum raster (infinite when no cube was admitted).

    ``interior_cube_side`` reports the certified side: the largest cube of
    threshold-dense cells, shrunk by the threshold on both faces of every
    axis.  That cube is read off the largest non-empty box erosion of the
    threshold-dense cells (grid border counted as not dense), centred on the
    erosion's first cell in C order.  The raw found side grows with the
    fattening allowance and so shrinks again as h refines; subtracting the
    allowance leaves the part whose size is comparable across resolutions.
    """

    h: float
    interior_cube_center: tuple[float, ...] | None
    interior_cube_side: float | None
    density_margin: float
    threshold: float
    outer_measure: float
    vol_parallelotope: float
    ratio: float | None

    @property
    def found(self) -> bool:
        return self.interior_cube_side is not None


@dataclass(frozen=True)
class SumEvidence:
    """Resolution-swept evidence that a Minkowski sum has interior.

    ``rotation`` holds the orthonormal frame built from the rank certificate;
    the sweep runs on ``(x - x0) @ rotation``.  A supported verdict needs an
    admitted cube with margin below n*(eps+h) at the finest h, outer measure
    at least the certified parallelotope volume at every h, margins
    non-increasing and cube sides non-decreasing, up to one cell of
    quantization per cube boundary, as h shrinks.
    """

    n_copies: int
    certificate: FlatnessReport
    resolutions: tuple[ResolutionEvidence, ...]
    verdict: str
    reason: str
    rotation: NDArray[np.float64]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named scenario: per-check results plus an input echo.

    ``inputs`` carries enough parameters to re-run the scenario; wall-clock
    time is reported separately so reports stay comparable across runs.
    """

    scenario: str
    inputs: dict[str, object]
    checks: tuple[CheckResult, ...]
    elapsed_seconds: float
    passed: bool


def _resolution_list(resolutions: Sequence[float] | None) -> list[float]:
    if resolutions is None:
        resolutions = DEFAULT_RESOLUTIONS
    values = sorted({float(h) for h in resolutions}, reverse=True)
    if not values:
        raise ValueError("need at least one resolution")
    if values[-1] <= 0:
        raise ValueError(f"resolutions must be positive, got {values[-1]}")
    return values


def _certificate_rotation(cert: FlatnessReport) -> NDArray[np.float64]:
    """Orthonormal frame whose leading columns span the certified directions."""
    frame = np.concatenate([cert.basis, cert.complement], axis=0)
    q, _ = np.linalg.qr(frame.T)
    return q


def _largest_cube(
    good: PackedMask,
    geometry: GridGeometry,
    threshold: float,
    hint_side: float | None = None,
) -> tuple[tuple[float, ...], float, tuple[slice, ...]] | None:
    """Largest admissible cube of threshold-dense (good) cells.

    A cube of side (2r - 1) cells centred on a cell fits among the good cells
    exactly when that cell survives the box erosion of ``good`` by r - 1, the
    array border counting as bad.  Erosions shrink as r grows, so the radius
    R is the largest r whose erosion is non-empty, and the centre is that
    erosion's first cell in C order.  ``hint_side`` (the certified side
    found at a coarser resolution, which stays nearly constant as h refines)
    only picks where the search for R starts; the search gallops from there
    and bisects once R is bracketed, so the answer never depends on it.
    Starting low is cheap, as each larger radius erodes the last non-empty
    erosion further rather than starting over.  Cubes no wider than twice
    the threshold witness nothing beyond the allowed slack and are rejected.
    """
    h = geometry.spacing
    if not good.any():
        return None
    # Invariant: erosion by lo - 1 (held in ``kept``) is non-empty and
    # erosion by hi - 1 is empty; a cube of side 2r - 1 cannot outgrow the
    # shortest axis.
    lo, kept = 1, good
    hi = (min(good.shape) + 1) // 2 + 1
    if hint_side is None:
        r = 2
    else:
        r = math.floor(((hint_side + 2 * threshold) / h + 1) / 2)
    step, last, bracketed = 1, None, False
    while hi - lo > 1:
        r = min(max(r, lo + 1), hi - 1)
        trial = kept.erode(r - lo)
        grew = trial.any()
        if grew:
            lo, kept = r, trial
        else:
            hi = r
        bracketed = bracketed or (last is not None and last != grew)
        last = grew
        if bracketed:
            r = (lo + hi) // 2
        else:
            r = lo + step if grew else hi - step
            step *= 2
    radius = lo
    side = (2 * radius - 1) * h
    if side <= 2 * threshold + 1e-12:
        return None
    center_idx = kept.first()
    center = geometry.cell_center(center_idx)
    window = tuple(
        slice(int(i) - (radius - 1), int(i) + radius) for i in center_idx
    )
    return tuple(float(c) for c in center), float(side), window


def _window_margin(occupied: PackedMask, window: tuple[slice, ...], limit: int) -> int:
    """Largest chessboard distance (cells) from a cell of ``window`` to a set cell.

    Every window cell lies within ``limit`` of a set cell, so the nearest one
    lies in the window grown by ``limit`` per side (clamped to the array),
    and a transform of that crop alone gives the exact maximum.
    """
    crop = tuple(
        slice(max(s.start - limit, 0), min(s.stop + limit, m))
        for s, m in zip(window, occupied.shape)
    )
    inside = tuple(slice(s.start - c.start, s.stop - c.start) for s, c in zip(window, crop))
    dist = chessboard_distance_transform(occupied.unpack(crop))
    return int(dist[inside].max())


def _normalized_inputs(
    sets: Sequence[SampledSet],
) -> tuple[int, FlatnessReport, NDArray[np.float64], list[SampledSet]]:
    """Shared-origin translation, rank certificate, certificate-frame rotation."""
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one sampled set")
    n = sets[0].dim
    if any(k.dim != n for k in sets):
        raise ValueError("all sets must share one ambient dimension")
    if len(sets) != n:
        raise ValueError(f"need exactly {n} sets in dimension {n}, got {len(sets)}")
    translated = [k.translated(tuple(-float(c) for c in k.points[0])) for k in sets]
    union = np.concatenate([k.points for k in translated], axis=0)
    cert = nonflat_certificate(union, order="pivot")
    rotation = _certificate_rotation(cert)
    # x -> rotation.T @ x; density picks up the sup-norm operator factor.
    normalized = [k.linear_image(rotation.T) for k in translated]
    return n, cert, rotation, normalized


def normalized_sum_raster(sets: Sequence[SampledSet], h: float) -> GridSet:
    """The rotated sum raster the evidence sweep inspects at one resolution."""
    _, _, _, normalized = _normalized_inputs(sets)
    return minkowski_sum(
        [rasterize(k, auto_geometry(k.points, float(h))) for k in normalized]
    )


def verify_theorem_main(
    sets: Sequence[SampledSet], resolutions: Sequence[float] | None = None
) -> SumEvidence:
    """Interior evidence for the sum of n connected sampled sets in n-space.

    The sets are translated to share the origin, the union is rank-certified,
    everything is rotated into the certificate frame, and the sum raster is
    swept coarse to fine.  A flat union refutes the hypothesis outright: the
    sum then lives in a proper affine subspace, so no cube is ever admitted
    and the sweep only documents the degenerate measures.
    """
    steps = _resolution_list(resolutions)
    n, cert, rotation, normalized = _normalized_inputs(sets)
    finest = steps[-1]
    for i, k in enumerate(normalized):
        semantics = Semantics.OUTER if k.exact else Semantics.SAMPLE_COVER
        raster = rasterize(k, auto_geometry(k.points, finest), semantics)
        if not is_grid_continuum(raster):
            raise ValueError(f"set {i} is not grid-connected at h={finest}")
    eps = max(k.density for k in normalized)
    eps_sum = float(sum(k.density for k in normalized))
    vol_p = float(cert.det_abs) if cert.det_abs is not None else 0.0
    entries = []
    hint_side = None
    for h in steps:
        total = minkowski_sum(
            [rasterize(k, auto_geometry(k.points, h)) for k in normalized]
        )
        threshold = n * (eps + h)
        limit = math.floor(threshold / h + 1e-9)
        grow = int(math.ceil(eps_sum / h - 1e-12)) if eps_sum > 0 else 0
        # The padded grid holds every cell within grow (outer measure) or
        # limit (cube search) of the sum, plus one ring so threshold-dense
        # cells beyond the sample bounding box stay in play.
        pad = max(grow, limit) + 1
        geometry = GridGeometry(
            origin=tuple(o - pad * h for o in total.geometry.origin),
            spacing=h,
            extents=tuple(m + 2 * pad for m in total.geometry.extents),
        )
        padded = PackedMask.pack(total.occupancy).padded(pad)
        del total
        # The box dilations by grow and by limit are the cells within those
        # chessboard distances of the sum.
        outer = padded.dilate(grow)
        bound = measure_floor_check(cells_measure(outer.count(), h, n), vol_p)
        cube_center = None
        cube_side = None
        margin = math.inf
        if not cert.flat:
            if limit >= grow:
                good = outer.dilate(limit - grow)
            else:
                good = padded.dilate(limit)
            found = _largest_cube(good, geometry, threshold, hint_side)
            del good
            hint_side = None
            if found is not None:
                cube_center, found_side, window = found
                cube_side = found_side - 2.0 * threshold
                hint_side = cube_side
                margin = float(_window_margin(padded, window, limit)) * h
        del outer, padded
        entries.append(
            ResolutionEvidence(
                h=h,
                interior_cube_center=cube_center,
                interior_cube_side=cube_side,
                density_margin=margin,
                threshold=threshold,
                outer_measure=bound.measure,
                vol_parallelotope=vol_p,
                ratio=bound.ratio,
            )
        )
    if cert.flat:
        verdict = "refuted"
        reason = (
            "hypothesis unmet: the shared-origin union has affine dimension "
            f"{cert.affine_dim} < {n}"
        )
    else:
        problems = []
        last = entries[-1]
        if last.interior_cube_side is None:
            problems.append(f"no admissible interior cube at h={last.h}")
        elif last.density_margin > last.threshold + 1e-9:
            problems.append("density margin exceeds n*(eps+h) at the finest h")
        if any(e.ratio is None or e.ratio < 1 - 1e-9 for e in entries):
            problems.append("outer measure fell below the parallelotope volume")
        margins = [e.density_margin for e in entries]
        if any(margins[i + 1] > margins[i] + 1e-9 for i in range(len(margins) - 1)):
            problems.append("density margins are not non-increasing")
        found = [e for e in entries if e.interior_cube_side is not None]
        for prev, nxt in zip(found, found[1:]):
            # Certified sides carry a quantization residual of order h, so
            # monotonicity is demanded only beyond one cell per boundary.
            if nxt.interior_cube_side < prev.interior_cube_side - 2.0 * (prev.h + nxt.h):
                problems.append("interior cube sides are not non-decreasing")
                break
        if problems:
            verdict, reason = "inconclusive", "; ".join(problems)
        else:
            verdict = "supported"
            reason = "interior cube, measure floor and monotone margins all hold"
    return SumEvidence(
        n_copies=n,
        certificate=cert,
        resolutions=tuple(entries),
        verdict=verdict,
        reason=reason,
        rotation=rotation,
    )


def verify_corollary_c1(
    k: SampledSet,
    m_directions: int = 100,
    resolutions: Sequence[float] | None = None,
) -> VerificationReport:
    """Mutual consistency of the testable interior criteria for one set.

    Three routes must agree: the rank certificate, nondegeneracy of random
    unit-direction projections (seeded, with the certificate's complement
    directions mixed in so exact normals are not missed), and sum-interior
    evidence for n translated copies.  A consistent all-negative answer on a
    flat set passes; any disagreement fails.
    """
    start = time.perf_counter()
    if m_directions < 1:
        raise ValueError(f"need at least one direction, got {m_directions}")
    n = k.dim
    cert = nonflat_certificate(k.points, order="pivot")
    extra = cert.complement if cert.complement.size else None
    proj = flatness_by_projection(
        k, seed=0, n_random=m_directions, extra_directions=extra
    )
    evidence = verify_theorem_main([k] * n, resolutions)
    cert_pos = not cert.flat
    proj_pos = not proj.flat
    sum_pos = evidence.verdict == "supported"
    consistent = cert_pos == proj_pos == sum_pos
    if proj_pos:
        proj_detail = f"all {m_directions} random directions nondegenerate"
    else:
        proj_detail = (
            f"thin direction {np.round(proj.direction, 6).tolist()} "
            f"width {proj.width:.3g}"
        )
    checks = (
        CheckResult(
            "rank-certificate", cert_pos, f"affine dimension {cert.affine_dim} of {n}"
        ),
        CheckResult("projection-widths", proj_pos, proj_detail),
        CheckResult("sum-interior", sum_pos, f"{evidence.verdict}: {evidence.reason}"),
        CheckResult(
            "equivalence-consistency",
            consistent,
            "all three conditions agree" if consistent else "conditions disagree",
        ),
    )
    return VerificationReport(
        scenario="corollary-equivalences",
        inputs={
            "dim": n,
            "count": k.count,
            "density": k.density,
            "m_directions": m_directions,
            "resolutions": [e.h for e in evidence.resolutions],
            "seed": 0,
        },
        checks=checks,
        elapsed_seconds=time.perf_counter() - start,
        passed=consistent,
    )


def verify_example_cantor(
    depth: int, resolutions: Sequence[float] | None = None
) -> VerificationReport:
    """The staircase-graph example: interior sum, meager ladder, mixed flatness.

    Checks (a) the two-fold graph sum for interior evidence, (b) that the
    plateau-ladder self-sum stays on few dyadic lines, (c) that the graph is
    not flat yet owns flat patches.  Depth 0 degenerates to the coarsest
    truncation and still runs.
    """
    start = time.perf_counter()
    if not 0 <= depth <= 12:
        raise ValueError(f"depth must be in [0, 12], got {depth}")
    level = max(depth, 1)
    graph = cantor_graph(depth)
    evidence = verify_theorem_main([graph, graph], resolutions)
    ladder = ladder_steps(level)
    on_lines, line_count = dyadic_lines_check(sampled_sum(ladder, ladder), level)
    line_bound = (2**level + 1) ** 2
    cert = nonflat_certificate(graph.points, order="pivot")
    profile = is_nowhere_flat(cantor_graph(depth, budget=64), rho=_PLATEAU_RHO)
    if profile.flat_centers:
        patch_detail = f"flat patches at sample indices {list(profile.flat_centers[:3])}"
    else:
        patch_detail = "no flat patch found"
    checks = (
        CheckResult(
            "graph-sum-interior",
            evidence.verdict == "supported",
            f"{evidence.verdict}: {evidence.reason}",
        ),
        CheckResult(
            "ladder-sum-meager",
            on_lines and line_count <= line_bound,
            f"{line_count} dyadic lines (bound {line_bound})",
        ),
        CheckResult("graph-not-flat", not cert.flat, f"affine dimension {cert.affine_dim} of 2"),
        CheckResult("graph-not-nowhere-flat", not profile.nowhere_flat, patch_detail),
    )
    return VerificationReport(
        scenario="cantor-example",
        inputs={
            "depth": depth,
            "effective_level": level,
            "resolutions": [e.h for e in evidence.resolutions],
            "rho": _PLATEAU_RHO,
        },
        checks=checks,
        elapsed_seconds=time.perf_counter() - start,
        passed=all(c.passed for c in checks),
    )


def _instance_label(n: int, seed: int, instance: SeparatorInstance) -> str:
    counts = "x".join(str(len(c)) for c in instance.factor_cells)
    return (
        f"n={n} seed={seed} cells {counts} center {instance.band_center.tolist()} "
        f"radius {instance.band_radius.tolist()}"
    )


def _axis_band_cube_check() -> tuple[bool, str]:
    """Bands on coordinate potentials over a full square product.

    The bands depend on one factor each, so their intersection is the product
    of two coordinate slabs: a central block whose size is known exactly.
    """
    extent = 7
    occupancy = np.ones((extent, extent), dtype=bool)
    grid = GridSet(
        geometry=GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(extent, extent)),
        occupancy=occupancy,
        semantics=Semantics.SAMPLE_COVER,
        slack=0.5,
    )
    cells = np.argwhere(occupancy).astype(np.int64)
    mid = (extent - 1) / 2.0
    potentials = tuple(
        tuple(
            cells[:, k].astype(np.float64) if j == k else np.zeros(len(cells))
            for j in range(2)
        )
        for k in range(2)
    )
    instance = SeparatorInstance(
        factors=(grid, grid),
        factor_cells=(cells, cells),
        potentials=potentials,
        band_center=np.array([mid, mid]),
        band_radius=np.ones(2),
        faces_neg=tuple(
            np.flatnonzero(cells[:, k] == 0).astype(np.int64) for k in range(2)
        ),
        faces_pos=tuple(
            np.flatnonzero(cells[:, k] == extent - 1).astype(np.int64) for k in range(2)
        ),
    )
    ok = hl_discrete_check(instance)
    ok = ok and all(separation_by_search(instance, axis) for axis in range(2))
    band_width = int(np.count_nonzero(np.abs(cells[:, 0] - mid) <= 1))
    expected = band_width * int(np.count_nonzero(np.abs(cells[:, 1] - mid) <= 1))
    in_band = (
        (np.abs(cells[:, 0] - mid) <= 1)[:, None]
        & (np.abs(cells[:, 1] - mid) <= 1)[None, :]
    )
    ok = ok and int(in_band.sum()) == expected
    detail = (
        f"central block of {expected} product cells"
        if ok
        else "FATAL: axis bands miss the central block"
    )
    return ok, detail


def _claim_instance_check() -> tuple[bool, str]:
    sets = [segment((0.0, 0.0), (1.0, 0.0), 3), segment((0.0, 0.0), (0.0, 1.0), 3)]
    construction = shift_construction(sets, s=1)
    instance = build_sum_separators(construction, sets, target=(0.375, 0.375), h=0.25)
    ok = hl_discrete_check(instance)
    ok = ok and all(separation_by_search(instance, axis) for axis in range(2))
    detail = (
        "bands from the lattice-shift construction intersect"
        if ok
        else "FATAL: claim-derived bands are disjoint"
    )
    return ok, detail


def verify_hl_suite(trials: int, seed: int = 0) -> VerificationReport:
    """Random plus constructed separator instances, all bands must intersect.

    Every tenth random instance is three-dimensional.  A failing instance is
    named by its generator coordinates (dimension and seed reproduce it
    exactly), which is treated as a fatal inconsistency.  Each instance is
    validated once before its verdict: a random one inside
    :func:`random_separator_instance` (then only scanned with
    :func:`bands_share_cell`), a constructed one by :func:`hl_discrete_check`.
    """
    start = time.perf_counter()
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    failures = []
    counts = {2: 0, 3: 0}
    for t in range(trials):
        n = 3 if t % 10 == 9 else 2
        counts[n] += 1
        instance = random_separator_instance(n, seed + t)
        if not bands_share_cell(instance):
            failures.append(_instance_label(n, seed + t, instance))
    if failures:
        random_detail = "FATAL: bands disjoint for " + "; ".join(failures[:3])
    else:
        random_detail = (
            f"{counts[2]} planar + {counts[3]} spatial instances, "
            "every band family intersects"
        )
    cube_ok, cube_detail = _axis_band_cube_check()
    claim_ok, claim_detail = _claim_instance_check()
    checks = (
        CheckResult("random-instances", not failures, random_detail),
        CheckResult("axis-bands-on-cube", cube_ok, cube_detail),
        CheckResult("claim-construction-instance", claim_ok, claim_detail),
    )
    return VerificationReport(
        scenario="separator-suite",
        inputs={"trials": trials, "seed": seed},
        checks=checks,
        elapsed_seconds=time.perf_counter() - start,
        passed=all(c.passed for c in checks),
    )
