"""End-to-end evidence pipelines over the grid, affine and sum machinery.

Each pipeline translates its inputs so every set contains the origin, rotates
into the frame spanned by the rank certificate (a rigid motion, so measures
and interiors are unchanged), sweeps a list of grid resolutions, and returns
a structured report.  Verdicts are graded supported / refuted / inconclusive:
finite samples can never prove an interior point outright, only exhibit
evidence that sharpens as the grid refines.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field
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
    ladder_steps,
    segment,
    self_sum_dyadic_lines,
)
from .grid import (
    GridGeometry,
    PackedMask,
    SampledSet,
    Semantics,
    auto_geometry,
    cells_measure,
    covering_radius,
    each_once,
    is_grid_continuum,
    occupied_cells,
    packed_minkowski_sum,
    rasterize,
)
from .sums import (
    SeparatorInstance,
    build_sum_separators,
    claim_measure_chain,
    hl_discrete_check,
    random_bands_share_cell,
    random_separator_instance,
    separation_by_search,
    shift_construction,
    verify_claim,
)

DEFAULT_RESOLUTIONS = (0.02, 0.01, 0.005)

#: Version of the report schema, and of the set-description documents that
#: the command line reads.
SCHEMA_VERSION = 1

#: Patch radius for the staircase flatness probe: small enough to fit inside
#: the central removed third, large enough for patches to hold real geometry
#: at truncation levels >= 4.
_PLATEAU_RHO = 0.15

#: Trials of the separator suite drawn, validated and scanned as one batch.
#: The suite lists one block's specs at a time, so blocks bound its memory
#: whatever ``--trials`` is.  On a shared 2-core x86-64 host (numpy 2.4.6,
#: a fresh process at 58 MB after import), 2,000 trials took 0.17-0.21 s
#: at 60 MB peak RSS in blocks of 100 (about 9 ms a block) and 0.14-0.18 s
#: at 90 MB as one batch; 10,000 trials in blocks took 0.75-0.94 s at
#: 60 MB.  An instance depends on its spec alone, so the block size moves
#: no result.
_SUITE_BLOCK = 100


@dataclass(frozen=True)
class ResolutionEvidence:
    """One resolution step of an interior-evidence sweep.

    Everything lives in the rotated coordinates (a rigid motion of the
    input ones); distances are sup-norm.  Each sum of samples, one per set,
    lies within n cells above the corner of an occupied sum cell.
    ``threshold`` = n * (eps + h) allows one sampling and one rasterization
    slack per summand; cells within limit = floor(threshold / h) cells of
    the sum are threshold-dense.  ``density_margin`` (infinite when no cube
    was admitted) is the largest distance from a cell of the found cube to
    a sum cell, at most the threshold: every cube point lies within
    density_margin + n * h of a sum of samples.  ``interior_cube_side`` is
    an estimate: the side of the largest cube of threshold-dense cells
    (centred on the first cell in C order of the largest non-empty box
    erosion) less the threshold on both faces.  Those cells form an OUTER
    raster, bounding the sum from above only, so the cube can leave it: the
    l-shape pair's at h = 0.01 passes x = 1 by 0.01, the tripod triple's at
    h = 0.005 each upper face by 0.005.  ``outer_measure`` counts the cells
    within ceil(eps_sum / h) cells of the sum (eps_sum the summed
    densities), a bound in neither direction; the measure floor ``ratio`` =
    outer_measure / ``vol_parallelotope`` >= 1 is a consistency check.

    ``sum_cells`` holds the unpadded sum raster the step inspected, packed;
    it is left out of the repr and of comparisons.
    """

    h: float
    interior_cube_center: tuple[float, ...] | None
    interior_cube_side: float | None
    density_margin: float
    threshold: float
    outer_measure: float
    vol_parallelotope: float
    ratio: float | None
    sum_cells: PackedMask = field(repr=False, compare=False)

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
    """Outcome of one named scenario: everything its report shows.

    ``inputs`` carries enough parameters to re-run the scenario; wall-clock
    time is reported separately so reports stay comparable across runs.
    ``evidence`` is the report's evidence section (empty when the scenario
    shows none), and ``sums`` holds one ``(h, packed sum raster)`` pair per
    resolution of the sum the scenario checked, for rendering; both are left
    out of the repr and of comparisons.  :meth:`payload` is the report as
    written, in its fixed key order.
    """

    scenario: str
    inputs: dict[str, object]
    checks: tuple[CheckResult, ...]
    elapsed_seconds: float
    passed: bool
    evidence: dict[str, object] = field(repr=False, compare=False)
    sums: tuple[tuple[float, PackedMask], ...] = field(repr=False, compare=False)

    def payload(self) -> dict[str, object]:
        return {
            "version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "inputs": self.inputs,
            "checks": [asdict(c) for c in self.checks],
            "evidence": self.evidence,
            "passed": self.passed,
            "elapsed_seconds": self.elapsed_seconds,
        }


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
    erosion's first cell in C order.  ``hint_side`` (the cube side reported
    at a coarser resolution, which stays nearly constant as h refines) only
    picks where the search for R starts; the search gallops from there
    and bisects once R is bracketed, so the answer never depends on it.
    Starting low is cheap, as each larger radius erodes the last non-empty
    erosion further rather than starting over, and each erosion runs only on
    the bounding box of that erosion's set bytes.  Cubes no wider than twice
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
    # Held as ``kept`` only, the input is freed once an erosion replaces it
    # (when the caller holds no other reference).
    del good
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


def verify_theorem_main(
    sets: Sequence[SampledSet], resolutions: Sequence[float] | None = None
) -> SumEvidence:
    """Interior evidence for the sum of n connected sampled sets in n-space.

    The sets are translated to share the origin, the union is rank-certified,
    everything is rotated into the certificate frame, and the sum raster is
    swept coarse to fine.  A flat union refutes the hypothesis outright: the
    sum then lives in a proper affine subspace, so no cube is ever admitted
    and the sweep only documents the degenerate measures.

    Memory of one step at spacing h.  Let m_1..m_n be the sum's extents and
    E_i = m_i + 2 * pad the padded ones, pad = limit + 1.  The
    packed sum takes U = ceil(m_n / 8) * m_1 * ... * m_{n-1} bytes and stays
    in the evidence; a padded packed mask takes P = ceil(E_n / 8) * E_1 *
    ... * E_{n-1} bytes.  Morphology works one slab at a time, a slab
    holding S = max(2**20, E_1 * ... * E_{n-1}, ceil(E_n / 8) * E_2 * ...
    * E_{n-1}) bytes at most (P in one dimension).  Once the sum is made,
    the step holds at most U + P + 2 B + 3 S + 8 C / 5 bytes, where C =
    E_1 * ... * E_{n-1} counts the columns (lead-axis positions).  The
    padded sum is one P; its dilation by grow, which the outer measure
    counts slab by slab, and then its dilation by limit are built in that
    array, each with two slab buffers and one carry slab.  A packed-axis
    fold (of a dilation, or of an erosion's union) larger than one slab
    marks its live columns, those holding a set bit; when at most one in
    five is live it gathers them into its two slab buffers, and their list
    takes 8 bytes a live column, at most 8 C / 5.  The cube search erodes
    the dilation by limit: an erosion holds its input, the surviving box of
    each slab and their union, both at most B bytes, where B <= P is the box of the
    search's first erosion (the input's set bytes less r cells per side on
    every lead axis), or two arrays of at most S bytes when its input's
    set bytes fit one slab; every erosion is kept on its box.  The search
    frees the dilation by limit once an erosion replaces it, which needs
    the argument handoff of CPython 3.11 and later; on 3.10 add one B.
    While the sum is made, a key-route sum written straight into packed
    bits holds U bytes plus pair-key chunks of a few MB; every other sum
    holds a dense box of m_1 * ... * m_n bytes until it is packed, plus its
    route's working arrays: pair-key chunks for the key route, a band
    difference array and pair-run chunks of a few MB for the run route
    (past its first fold also the box so far and its runs), and the FFT's
    float64 transforms for the dense route.  The margin reads
    the cube window grown by limit from the unpadded sum.
    """
    steps = _resolution_list(resolutions)
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one sampled set")
    n = sets[0].dim
    if any(k.dim != n for k in sets):
        raise ValueError("all sets must share one ambient dimension")
    if len(sets) != n:
        raise ValueError(f"need exactly {n} sets in dimension {n}, got {len(sets)}")
    # A set passed more than once stays one object through every stage, so
    # it is moved, rasterized and checked once.
    translated = each_once(sets, lambda k: k.translated(tuple(-float(c) for c in k.points[0])))
    union = np.concatenate([k.points for k in translated], axis=0)
    cert = nonflat_certificate(union)
    rotation = _certificate_rotation(cert)
    # x -> rotation.T @ x; density picks up the sup-norm operator factor.
    normalized = each_once(translated, lambda k: k.linear_image(rotation.T))
    finest = steps[-1]
    eps = max(k.density for k in normalized)
    if not math.isfinite(n * (eps + steps[0])):  # the coarsest h has the largest threshold
        raise ValueError(f"resolution h={steps[0]} is too large: threshold n*(eps+h) overflows")

    def check_connected(k: SampledSet) -> None:
        semantics = Semantics.OUTER if k.exact else Semantics.SAMPLE_COVER
        if not is_grid_continuum(rasterize(k, auto_geometry(k.points, finest), semantics)):
            first = next(i for i, other in enumerate(normalized) if other is k)
            raise ValueError(f"set {first} is not grid-connected at h={finest}")

    each_once(normalized, check_connected)
    eps_sum = float(sum(k.density for k in normalized))
    vol_p = float(cert.det_abs) if cert.det_abs is not None else 0.0
    entries = []
    hint_side = None
    for h in steps:
        sum_geometry, cells = packed_minkowski_sum(
            each_once(normalized, lambda k: rasterize(k, auto_geometry(k.points, h)))
        )
        threshold = n * (eps + h)
        limit = math.floor(threshold / h + 1e-9)
        grow = int(math.ceil(eps_sum / h - 1e-12)) if eps_sum > 0 else 0
        # limit >= grow, as n * (eps + h) >= eps_sum + n * h, so the padded grid
        # holds every cell the outer measure or the cube search reads, plus one
        # ring so threshold-dense cells beyond the sample bounding box stay in play.
        pad = limit + 1
        geometry = sum_geometry.padded(pad)
        # The box dilations by grow and by limit are the cells within those
        # chessboard distances of the sum.  Each is built in the array of the
        # mask it grows, which gives the array up.
        outer = cells.padded(pad).dilate_in_place(grow)
        measure = cells_measure(outer.count(), h, n)
        cube_center = None
        cube_side = None
        margin = math.inf
        if not cert.flat:
            # Dilations compose, so the threshold-dense cells are the outer
            # set grown by limit - grow, which is >= 0 because threshold =
            # n * (eps + h) >= eps_sum + n * h.  They reach the cube search
            # under no other name, so it frees them once it erodes past them.
            found = _largest_cube(outer.dilate_in_place(limit - grow), geometry, threshold, hint_side)
            hint_side = None
            if found is not None:
                cube_center, found_side, window = found
                cube_side = found_side - 2.0 * threshold
                hint_side = cube_side
                # The window is in padded coordinates; the sum is the padded
                # grid less its empty padding.
                unpadded = tuple(slice(s.start - pad, s.stop - pad) for s in window)
                margin = float(covering_radius(cells, unpadded, limit)) * h
        del outer
        entries.append(
            ResolutionEvidence(
                h=h,
                interior_cube_center=cube_center,
                interior_cube_side=cube_side,
                density_margin=margin,
                threshold=threshold,
                outer_measure=measure,
                vol_parallelotope=vol_p,
                ratio=measure / vol_p if vol_p > 0 else None,
                sum_cells=cells,
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
            # Reported sides carry a quantization residual of order h, so
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


def _evidence_payload(ev: SumEvidence) -> dict[str, object]:
    cert = ev.certificate
    return {
        "n_copies": ev.n_copies,
        "verdict": ev.verdict,
        "reason": ev.reason,
        "certificate": {
            "flat": cert.flat,
            "affine_dim": cert.affine_dim,
            "dim": cert.dim,
            "det_abs": cert.det_abs,
            "tol": cert.tol,
            "base_point": cert.base_point,
            "basis": cert.basis,
            "complement": cert.complement,
        },
        "rotation": ev.rotation,
        "resolutions": [
            {
                "h": e.h,
                "interior_cube_center": e.interior_cube_center,
                "interior_cube_side": e.interior_cube_side,
                "density_margin": e.density_margin,
                "threshold": e.threshold,
                "outer_measure": e.outer_measure,
                "vol_parallelotope": e.vol_parallelotope,
                "ratio": e.ratio,
            }
            for e in ev.resolutions
        ],
    }


def verify_theorem_report(
    sets: Sequence[SampledSet], resolutions: Sequence[float] | None
) -> VerificationReport:
    """:func:`verify_theorem_main` as a report with one ``sum-interior`` check.

    The evidence section is the sweep (certificate, rotation and one entry
    per resolution), and ``inputs.resolutions`` lists the resolutions the
    sweep ran: distinct, coarse to fine.
    """
    start = time.perf_counter()
    ev = verify_theorem_main(sets, resolutions)
    supported = ev.verdict == "supported"
    return VerificationReport(
        scenario="theorem-main",
        inputs={"resolutions": [e.h for e in ev.resolutions]},
        checks=(CheckResult("sum-interior", supported, f"{ev.verdict}: {ev.reason}"),),
        elapsed_seconds=time.perf_counter() - start,
        passed=supported,
        evidence=_evidence_payload(ev),
        sums=tuple((e.h, e.sum_cells) for e in ev.resolutions),
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
    cert = nonflat_certificate(k.points)
    extra = cert.complement if cert.complement.size else None
    proj = flatness_by_projection(k, n_random=m_directions, extra_directions=extra)
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
        evidence={},
        sums=tuple((e.h, e.sum_cells) for e in evidence.resolutions),
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
    on_lines, line_count = self_sum_dyadic_lines(ladder, level)
    line_bound = (2**level + 1) ** 2
    cert = nonflat_certificate(graph.points)
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
        evidence={},
        sums=tuple((e.h, e.sum_cells) for e in evidence.resolutions),
    )


def _instance_label(n: int, seed: int, instance: SeparatorInstance) -> str:
    counts = "x".join(str(np.count_nonzero(f)) for f in instance.factors)
    return (
        f"n={n} seed={seed} cells {counts} center {instance.band_center.tolist()} "
        f"radius {instance.band_radius.tolist()}"
    )


@functools.cache
def _axis_band_cube_check() -> tuple[bool, str]:
    """Bands on coordinate potentials over a full 7x7 square product.

    The bands depend on one factor each, so their intersection is the product
    of two coordinate slabs, a central block.  Checked: the bands share a
    product cell (:func:`hl_discrete_check`), and each band separates its
    faces (:func:`separation_by_search` on both axes).  The block's cell
    count is computed only to name it in the detail.  The check reads no
    input, so it runs once per process.
    """
    extent = 7
    occupancy = np.ones((extent, extent), dtype=bool)
    cells = occupied_cells(occupancy)
    mid = (extent - 1) / 2.0
    potentials = tuple(
        tuple(
            cells[:, k].astype(np.float64) if j == k else np.zeros(len(cells))
            for j in range(2)
        )
        for k in range(2)
    )
    instance = SeparatorInstance(
        factors=(occupancy, occupancy),
        potentials=potentials,
        band_center=np.array([mid, mid]),
        band_radius=np.ones(2),
        faces_neg=tuple(np.flatnonzero(cells[:, k] == 0) for k in range(2)),
        faces_pos=tuple(np.flatnonzero(cells[:, k] == extent - 1) for k in range(2)),
    )
    ok = hl_discrete_check(instance)
    ok = ok and all(separation_by_search(instance, axis) for axis in range(2))
    band_width = int(np.count_nonzero(np.abs(cells[:, 0] - mid) <= 1))
    expected = band_width * int(np.count_nonzero(np.abs(cells[:, 1] - mid) <= 1))
    detail = (
        f"central block of {expected} product cells"
        if ok
        else "FATAL: axis bands miss the central block"
    )
    return ok, detail


@functools.cache
def _claim_instance_check() -> tuple[bool, str]:
    """The cube's checks on the bands :func:`build_sum_separators` makes; run once per process."""
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

    Trial t draws instance ``(n, seed + t)``, three-dimensional for every
    tenth trial.  A failing instance is named by those generator
    coordinates (dimension and seed reproduce it exactly), which is treated
    as a fatal inconsistency.  The trials run in blocks of
    ``_SUITE_BLOCK``, each one :func:`random_bands_share_cell` batch: per
    round, the block's open specs draw their candidates and all their walks
    are stepped and gap-tested as arrays; per block, the passing instances
    are validated and scanned as arrays, with no instance built.  So the
    suite holds one block at a time, and each instance is validated once
    before its verdict; only a failing one is rebuilt, to be named.  Each
    constructed instance is validated by :func:`hl_discrete_check`, and
    their two checks read no input, so they run once per process.
    """
    start = time.perf_counter()
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    failures = []
    for lo in range(0, trials, _SUITE_BLOCK):
        block = [(3 if t % 10 == 9 else 2, seed + t) for t in range(trials)[lo : lo + _SUITE_BLOCK]]
        failures += [
            _instance_label(n, instance_seed, random_separator_instance(n, instance_seed))
            for (n, instance_seed), shared in zip(block, random_bands_share_cell(block))
            if not shared
        ]
    spatial = trials // 10
    if failures:
        random_detail = "FATAL: bands disjoint for " + "; ".join(failures[:3])
    else:
        random_detail = (
            f"{trials - spatial} planar + {spatial} spatial instances, "
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
        evidence={},
        sums=(),
    )


def verify_lattice_claim(
    sets: Sequence[SampledSet], s: int, resolutions: Sequence[float] | None
) -> VerificationReport:
    """The lattice-shift claim: the shifted sum covers [-s, s]^n at every h.

    Each resolution, coarse to fine, adds a ``cube-evidence`` check
    (:func:`verify_claim`) and a ``measure-chain`` check
    (:func:`claim_measure_chain`) and one entry of the evidence's
    ``per_resolution`` list; ``sums`` holds the shifted sum rasters.
    """
    start = time.perf_counter()
    steps = _resolution_list(resolutions)
    construction = shift_construction(sets, s=s)
    checks = []
    per_h = []
    claims = []
    for h in steps:
        claim = verify_claim(construction, sets, h)
        claims.append(claim)
        chain = claim_measure_chain(construction, sets, h)
        checks += [
            CheckResult(
                f"cube-evidence[h={h:g}]",
                claim.passed,
                f"covered={claim.covered} margin={claim.margin:g} threshold={claim.threshold:g}",
            ),
            CheckResult(
                f"measure-chain[h={h:g}]",
                chain.lower_ok and chain.upper_ok,
                f"{chain.cube_volume:g} <= {chain.sum_measure:g} <= "
                f"{chain.factor_measure:g} * {chain.lattice_count}",
            ),
        ]
        per_h.append(
            {
                "h": h,
                "covered": claim.covered,
                "margin": claim.margin,
                "threshold": claim.threshold,
                "cube_volume": chain.cube_volume,
                "sum_measure": chain.sum_measure,
                "factor_measure": chain.factor_measure,
                "lattice_count": chain.lattice_count,
                "implied_lower_bound": chain.implied_lower_bound,
            }
        )
    return VerificationReport(
        scenario="lattice-shift-claim",
        inputs={"resolutions": steps, "s": s},
        checks=tuple(checks),
        elapsed_seconds=time.perf_counter() - start,
        passed=all(c.passed for c in checks),
        evidence={
            "construction": {
                "n": construction.n,
                "delta": construction.delta,
                "s": construction.s,
                "l": construction.l,
                "eps": construction.eps,
            },
            "per_resolution": per_h,
        },
        sums=tuple((c.h, c.sum_cells) for c in claims),
    )
