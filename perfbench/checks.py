"""Output checks computed apart from the program, with numpy and scipy only.

Each check takes plain data (report dictionaries, decoded bitmaps, occupancy
arrays, sample arrays) and raises :class:`CheckFailed` naming the first
violation.  None of them calls into ``continuum_sums``: the program's inputs
may come from its generators, but every property of its outputs is
recomputed here by a separate route (explicit sample sums in a k-d tree,
direct index-sum sets, exact integer scatter matrices, box erosion, and
plain loops over product cells).
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Sequence

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

#: Float slack for comparisons of reported lengths and measures.
TOL = 1e-9

#: Cap on query points per axis when sampling a reported cube.
_MAX_AXIS_POINTS = 400

_CLOCK = re.compile(rb'\s*"elapsed_seconds": [^\n]+')


class CheckFailed(AssertionError):
    """A program output contradicts an independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def without_clock(report: bytes) -> bytes:
    """Report bytes with the only run-dependent field removed."""
    return _CLOCK.sub(b"", report)


def normalized_samples(points: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Samples moved to share the origin and rotated into the report's frame.

    Mirrors the pipeline's arithmetic step for step (translate by the first
    sample, then multiply by the rotation) so cell indices derived from the
    result agree bit for bit.
    """
    pts = np.asarray(points, dtype=np.float64)
    translated = pts + (-pts[0])
    return translated @ np.asarray(rotation, dtype=np.float64).T.T


def explicit_sums(sample_sets: Sequence[np.ndarray]) -> np.ndarray:
    """All sums with one sample from each set, duplicates removed."""
    acc = np.asarray(sample_sets[0], dtype=np.float64)
    for pts in sample_sets[1:]:
        acc = (acc[:, None, :] + np.asarray(pts, dtype=np.float64)[None, :, :]).reshape(
            -1, acc.shape[1]
        )
        acc = np.unique(acc, axis=0)
    return acc


def _box_lattice(lo: np.ndarray, hi: np.ndarray, step: float) -> tuple[np.ndarray, float]:
    """Points covering the box [lo, hi] with spacing <= step on every axis.

    Returns the points and the largest half-spacing used, so a 1-Lipschitz
    function's maximum over the box exceeds its lattice maximum by at most
    that amount.
    """
    axes = []
    half = 0.0
    for a, b in zip(lo, hi):
        count = min(_MAX_AXIS_POINTS, max(2, int(math.ceil((b - a) / step)) + 1))
        axes.append(np.linspace(a, b, count))
        half = max(half, (b - a) / (count - 1) / 2.0)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1), half


def max_box_distance(tree: cKDTree, lo: np.ndarray, hi: np.ndarray, step: float) -> float:
    """Upper bound on the sup-norm distance from any point of a box to the tree.

    The distance to a point set is 1-Lipschitz in the sup norm, so the lattice
    maximum plus the lattice half-spacing bounds it over the whole box.
    """
    queries, half = _box_lattice(np.asarray(lo), np.asarray(hi), step)
    dist, _ = tree.query(queries, k=1, p=np.inf)
    return float(dist.max()) + half


def check_cube_near_sums(
    sums_tree: cKDTree, entry: dict, n: int, label: str
) -> float:
    """Every point of a reported cube lies within margin + n*h of a sample sum.

    ``entry`` is one element of a theorem-main report's resolution list.
    Returns the bound on the worst distance (for the run's log).
    """
    center = entry["interior_cube_center"]
    side = entry["interior_cube_side"]
    if center is None:
        raise CheckFailed(f"{label}: no interior cube reported at h={entry['h']}")
    require(side is not None and side > 0, f"{label}: cube side {side} is not positive")
    margin = entry["density_margin"]
    require(margin is not None, f"{label}: density margin is not finite at h={entry['h']}")
    bound = margin + n * entry["h"]
    c = np.asarray(center, dtype=np.float64)
    worst = max_box_distance(sums_tree, c - side / 2.0, c + side / 2.0, bound / 4.0)
    require(
        worst <= bound + TOL,
        f"{label}: a cube point lies {worst:.6g} from every sample sum at "
        f"h={entry['h']} (bound {bound:.6g})",
    )
    return worst


def check_outer_floor(entries: Sequence[dict], floor: float, label: str) -> None:
    """Outer measures over-approximate, so none may fall below the true volume."""
    for e in entries:
        require(
            e["outer_measure"] >= floor - TOL,
            f"{label}: outer measure {e['outer_measure']:.6g} below {floor:.6g} at h={e['h']}",
        )


def parallelotope_floor(basis: Sequence[Sequence[float]]) -> float:
    """|det| of the certificate basis, by LU factorization rather than elimination."""
    return abs(float(np.linalg.det(np.asarray(basis, dtype=np.float64))))


def check_theorem_report(
    report: dict,
    sample_sets: Sequence[np.ndarray],
    resolutions: Sequence[float],
    volume_floor: float | None,
    label: str,
) -> float:
    """All independent checks on one ``verify main`` report.

    ``sample_sets`` are the summands' samples in input coordinates, one per
    copy.  Returns the worst cube distance over all resolutions.
    """
    require(report.get("passed") is True, f"{label}: report did not pass")
    evidence = report["evidence"]
    require(evidence["verdict"] == "supported", f"{label}: verdict {evidence['verdict']}")
    entries = evidence["resolutions"]
    require(
        [e["h"] for e in entries] == sorted(resolutions, reverse=True),
        f"{label}: resolutions {[e['h'] for e in entries]} differ from the request",
    )
    n = len(sample_sets)
    rotation = np.asarray(evidence["rotation"], dtype=np.float64)
    require(
        np.allclose(rotation.T @ rotation, np.eye(n), atol=1e-9),
        f"{label}: reported rotation is not orthonormal",
    )
    sums = explicit_sums([normalized_samples(s, rotation) for s in sample_sets])
    tree = cKDTree(sums)
    worst = max(check_cube_near_sums(tree, e, n, label) for e in entries)
    floor = parallelotope_floor(evidence["certificate"]["basis"])
    if volume_floor is not None:
        floor = max(floor, volume_floor)
    check_outer_floor(entries, floor, label)
    return worst


def decode_pbm(text: str) -> np.ndarray:
    """Occupancy array [column, row] of a plain PBM; row 0 is the top line."""
    tokens = text.split()
    require(len(tokens) >= 3 and tokens[0] == "P1", "bitmap is not a plain PBM")
    width, height = int(tokens[1]), int(tokens[2])
    bits = tokens[3:]
    require(len(bits) == width * height, "bitmap pixel count does not match its header")
    require(set(bits) <= {"0", "1"}, "bitmap holds values other than 0 and 1")
    rows = np.array([b == "1" for b in bits], dtype=bool).reshape(height, width)
    # Top line = highest second index.
    return rows[::-1].T.copy()


def cell_indices(points: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample-cover cells of the points on the smallest grid holding them all.

    Returns the cell index of every point and the grid's extents.
    """
    lo = points.min(axis=0)
    extents = np.floor((points.max(axis=0) - lo) / h).astype(np.int64) + 1
    idx = np.floor((points - lo) / h).astype(np.int64)
    return np.minimum(idx, extents - 1), extents


def index_sum_image(index_sets: Sequence[np.ndarray], extents: Sequence[int]) -> np.ndarray:
    """Boolean array of the given extents marking every index sum."""
    acc = np.unique(index_sets[0], axis=0)
    for other in index_sets[1:]:
        other = np.unique(other, axis=0)
        acc = np.unique((acc[:, None, :] + other[None, :, :]).reshape(-1, acc.shape[1]), axis=0)
    image = np.zeros(tuple(int(m) for m in extents), dtype=bool)
    image[tuple(acc.T)] = True
    return image


def check_pbm(
    pbm_text: str, sample_sets: Sequence[np.ndarray], rotation: np.ndarray, h: float, label: str
) -> None:
    """A decoded PBM equals the set of pairwise sample-cell index sums."""
    decoded = decode_pbm(pbm_text)
    grids = [cell_indices(normalized_samples(s, rotation), h) for s in sample_sets]
    # The sum grid's extents add, minus one per fold.
    extents = sum(e for _, e in grids) - (len(grids) - 1)
    require(
        decoded.shape == tuple(int(m) for m in extents),
        f"{label}: bitmap {decoded.shape} differs from the index-sum box {tuple(extents)}",
    )
    expected = index_sum_image([c for c, _ in grids], extents)
    mismatch = int(np.count_nonzero(expected != decoded))
    require(mismatch == 0, f"{label}: {mismatch} bitmap pixels differ from the index sums at h={h}")


def scatter_rank(occupancy: np.ndarray) -> int:
    """Affine rank of the occupied cell coordinates.

    Builds N^2 times the coordinate covariance exactly in Python integers from
    one- and two-axis marginals (no cell list is materialized), then takes
    ``numpy.linalg.matrix_rank`` of it.  Exact zeros stay exact, so flat cell
    sets keep their rank deficiency.
    """
    occ = np.asarray(occupancy, dtype=bool)
    d = occ.ndim
    count = int(np.count_nonzero(occ))
    require(count > 0, "empty occupancy has no rank")
    coords = [np.arange(m, dtype=np.int64) for m in occ.shape]
    first = []
    for a in range(d):
        others = tuple(b for b in range(d) if b != a)
        marginal = occ.sum(axis=others, dtype=np.int64) if others else occ.astype(np.int64)
        first.append(marginal)
    sums = [int((coords[a] * first[a]).sum()) for a in range(d)]
    scatter = [[0] * d for _ in range(d)]
    for a in range(d):
        scatter[a][a] = int((coords[a] * coords[a] * first[a]).sum())
        for b in range(a + 1, d):
            others = tuple(c for c in range(d) if c not in (a, b))
            joint = occ.sum(axis=others, dtype=np.int64) if others else occ.astype(np.int64)
            value = int((coords[a][:, None] * coords[b][None, :] * joint).sum())
            scatter[a][b] = scatter[b][a] = value
    centered = [
        [count * scatter[a][b] - sums[a] * sums[b] for b in range(d)] for a in range(d)
    ]
    scale = max(1, max(abs(v) for row in centered for v in row))
    matrix = np.array([[v / scale for v in row] for row in centered], dtype=np.float64)
    return int(np.linalg.matrix_rank(matrix))


def check_flat_chain(occupancies: Sequence[np.ndarray], found_at: int | None, label: str) -> None:
    """A set keeps its affine rank at every midpoint step and never gains interior."""
    require(found_at is None, f"{label}: flat chain reports interior at step {found_at}")
    base = scatter_rank(occupancies[0])
    for step, occ in enumerate(occupancies[1:], start=1):
        rank = scatter_rank(occ)
        require(rank == base, f"{label}: rank {rank} at step {step}, input rank {base}")


def has_inner_box(occupancy: np.ndarray, radius: int) -> bool:
    """Is some cell the center of a fully occupied (2r+1)-box inside the grid?"""
    structure = np.ones((2 * radius + 1,) * occupancy.ndim, dtype=bool)
    eroded = ndimage.binary_erosion(occupancy, structure=structure, border_value=0)
    return bool(eroded.any())


def check_interior_step(
    steps: Sequence[tuple[np.ndarray, float, float]], found_at: int | None, expected: int, label: str
) -> None:
    """The first step holding a certified inner box is the reported one.

    ``steps`` holds (occupancy, slack, spacing) per step; the certified radius
    is ceil(slack / spacing) + 1 cells.
    """
    require(found_at == expected, f"{label}: interior reported at step {found_at}, want {expected}")
    for step, (occ, slack, spacing) in enumerate(steps[: expected + 1]):
        radius = math.ceil(slack / spacing) + 1
        inside = has_inner_box(occ, radius)
        require(
            inside == (step == expected),
            f"{label}: box erosion of radius {radius} at step {step} is "
            f"{'non-empty' if inside else 'empty'}",
        )


def bands_meet_brute_force(
    factor_cells: Sequence[np.ndarray],
    potentials: Sequence[Sequence[np.ndarray]],
    center: Sequence[float],
    radius: Sequence[float],
) -> bool:
    """Plain loop over every product cell: is one inside all n bands?"""
    n = len(factor_cells)
    pots = [[np.asarray(p, dtype=np.float64).tolist() for p in row] for row in potentials]
    counts = [len(c) for c in factor_cells]
    for combo in itertools.product(*(range(m) for m in counts)):
        if all(
            abs(sum(pots[k][j][combo[j]] for j in range(n)) - center[k]) <= radius[k] + 1e-12
            for k in range(n)
        ):
            return True
    return False


def check_hl_report(report: dict, trials: int, label: str) -> None:
    """Every random and constructed separator instance of a suite intersects."""
    checks = check_all_passed(
        report, ("random-instances", "axis-bands-on-cube", "claim-construction-instance"), label
    )
    spatial = trials // 10
    detail = checks["random-instances"]["detail"]
    require(
        detail.startswith(f"{trials - spatial} planar + {spatial} spatial"),
        f"{label}: instance counts in {detail!r}",
    )


def check_claim_cover(
    report: dict, sample_sets: Sequence[np.ndarray], label: str
) -> float:
    """[-s, s]^n lies within each reported threshold of the explicit shifted sums.

    Summand j contributes its samples translated by k*e_j for |k| <= l.
    Returns the bound on the worst distance.
    """
    require(report.get("passed") is True, f"{label}: claim report did not pass")
    cons = report["evidence"]["construction"]
    n, s, l = cons["n"], cons["s"], cons["l"]
    require(len(sample_sets) == n, f"{label}: {len(sample_sets)} summands for n={n}")
    shifted = []
    for j, pts in enumerate(sample_sets):
        offsets = np.zeros((2 * l + 1, n))
        offsets[:, j] = np.arange(-l, l + 1)
        shifted.append((pts[None, :, :] + offsets[:, None, :]).reshape(-1, n))
    tree = cKDTree(explicit_sums(shifted))
    per_h = report["evidence"]["per_resolution"]
    require(per_h, f"{label}: no resolutions reported")
    threshold = min(e["threshold"] for e in per_h)
    lo = np.full(n, -float(s))
    worst = max_box_distance(tree, lo, -lo, threshold / 4.0)
    require(
        worst <= threshold + TOL,
        f"{label}: a point of [-{s}, {s}]^{n} lies {worst:.6g} from every shifted "
        f"sample sum (threshold {threshold:.6g})",
    )
    return worst


def check_all_passed(report: dict, names: Sequence[str], label: str) -> dict:
    """The report passed and holds exactly the named checks, each passed."""
    require(report.get("passed") is True, f"{label}: report did not pass")
    checks = {c["name"]: c for c in report["checks"]}
    require(sorted(checks) == sorted(names), f"{label}: checks {sorted(checks)}")
    for name in names:
        require(checks[name]["passed"] is True, f"{label}: check {name} failed")
    return checks


def check_cantor_report(report: dict, ladder_points: np.ndarray, level: int, label: str) -> None:
    """The ladder self-sum's line count matches a direct count of height sums."""
    checks = check_all_passed(
        report,
        ("graph-sum-interior", "ladder-sum-meager", "graph-not-flat", "graph-not-nowhere-flat"),
        label,
    )
    heights = np.asarray(ladder_points, dtype=np.float64)[:, 1]
    sums = np.unique(heights[:, None] + heights[None, :])
    scaled = sums * 2.0**level
    require(bool(np.all(scaled == np.floor(scaled))), f"{label}: a ladder sum height is not dyadic")
    bound = (2**level + 1) ** 2
    detail = checks["ladder-sum-meager"]["detail"]
    require(
        detail == f"{len(sums)} dyadic lines (bound {bound})",
        f"{label}: ladder detail {detail!r}, direct count {len(sums)} (bound {bound})",
    )
