"""Deterministic sample generators for the standard test continua.

Every generator emits a SampledSet whose points lie exactly on the target set
(up to one float rounding) together with an honest covering density: every set
point is within sup-norm ``density`` of some sample.  Cantor-style sets are
built from integer numerators and denominators: each coordinate is one
division of two integers below 4 * 3^20 < 2^53 (``_MAX_DEPTH`` is 20), which
float64 holds exactly, so the quotient is the exact value correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .grid import SampledSet

#: Hard cap on Cantor recursion level; 2^20 corner samples is already absurd.
_MAX_DEPTH = 20


def _chord(
    a: NDArray[np.float64], b: NDArray[np.float64], k: int, first: int
) -> tuple[NDArray[np.float64], float]:
    """Points a + (i / k)(b - a) for i = first, ..., k, and their density.

    Neighbours lie |b - a|_inf / k apart in sup norm, so every point of the
    chord is within half that of a sample.
    """
    t = np.arange(first, k + 1, dtype=np.float64) / k
    return a + t[:, None] * (b - a), float(np.abs(b - a).max()) / (2 * k)


def segment(start: Sequence[float], end: Sequence[float], budget: int = 11) -> SampledSet:
    """Equally spaced samples of the closed segment from start to end."""
    a = np.asarray(start, dtype=np.float64)
    b = np.asarray(end, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("start and end must be equal-length coordinate vectors")
    if budget < 2:
        raise ValueError(f"sample budget must be at least 2, got {budget}")
    pts, density = _chord(a, b, budget - 1, 0)
    return SampledSet(points=pts, density=density)


def l_shape(dim: int = 2, budget: int = 40) -> SampledSet:
    """Unit segments from the origin along each coordinate axis.

    The origin is the first sample; each arm then contributes its remaining
    equally spaced points in axis order.
    """
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    if budget < 2 * dim:
        raise ValueError(f"budget {budget} too small for {dim} arms")
    per_arm = max(2, budget // dim)
    origin = np.zeros(dim)
    arms = [_chord(origin, unit, per_arm - 1, 1) for unit in np.eye(dim)]
    return SampledSet(
        points=np.vstack([origin[None]] + [pts for pts, _ in arms]), density=arms[0][1]
    )


def circle(
    budget: int = 360,
    center: Sequence[float] = (0.0, 0.0),
    radius: float = 1.0,
    phase: float = 0.0,
) -> SampledSet:
    """Equally spaced samples of a planar circle, starting at ``phase``."""
    if budget < 3:
        raise ValueError(f"need at least 3 circle samples, got {budget}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    c = np.asarray(center, dtype=np.float64)
    if c.shape != (2,):
        raise ValueError("center must be a 2-vector")
    theta = phase + np.arange(budget) * (2 * np.pi / budget)
    pts = c + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # Arc length between samples bounds the sup-norm gap from above.
    return SampledSet(points=pts, density=math.pi * radius / budget)


def moment_curve(dim: int = 2, budget: int = 41) -> SampledSet:
    """Samples (t, t^2, ..., t^dim) for t equally spaced in [0, 1].

    Each coordinate is k-Lipschitz on [0, 1], so half the parameter step
    times ``dim`` covers the curve in sup norm.
    """
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    if budget < 2:
        raise ValueError(f"sample budget must be at least 2, got {budget}")
    t = np.arange(budget, dtype=np.float64) / (budget - 1)
    pts = np.stack([t ** (k + 1) for k in range(dim)], axis=1)
    return SampledSet(points=pts, density=dim / (2 * (budget - 1)))


def polyline(vertices: Sequence[Sequence[float]], budget: int = 64) -> SampledSet:
    """Samples along a vertex chain, allocated proportionally to edge length."""
    verts = np.asarray(vertices, dtype=np.float64)
    if verts.ndim != 2 or verts.shape[0] < 2:
        raise ValueError("need at least two vertices")
    if budget < verts.shape[0]:
        raise ValueError(f"budget {budget} below vertex count {verts.shape[0]}")
    lengths = np.abs(np.diff(verts, axis=0)).max(axis=1)
    if (lengths == 0).any():
        raise ValueError("repeated consecutive vertices")
    total = float(lengths.sum())
    edges = [
        _chord(verts[e], verts[e + 1], max(1, round((budget - 1) * float(length) / total)), 1)
        for e, length in enumerate(lengths)
    ]
    return SampledSet(
        points=np.vstack([verts[:1]] + [pts for pts, _ in edges]),
        density=max(density for _, density in edges),
    )


def _cantor_lefts(level: int) -> NDArray[np.int64]:
    """Numerators A_j of the level-``level`` left ends A_j / 3^level, ascending.

    The ternary digits of A_j are twice the binary digits of j.
    """
    lefts = np.zeros(1, dtype=np.int64)
    for _ in range(level):
        lefts = np.stack([3 * lefts, 3 * lefts + 2], axis=1).ravel()
    return lefts


def cantor_set(depth: int) -> SampledSet:
    """Left endpoints of the level-``depth`` middle-thirds intervals.

    Every point of the set lies in one such interval of width 3^-depth, so
    the left endpoints cover it at density 3^-depth.  Endpoint j is the
    integer A_j over 3^depth, rounded once (module docstring).
    """
    if not 0 <= depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be in [0, {_MAX_DEPTH}], got {depth}")
    return SampledSet(points=(_cantor_lefts(depth) / 3**depth)[:, None], density=3.0 ** -depth)


def cantor_value(x: float | Fraction) -> float:
    """The Cantor ladder function on [0, 1].

    Ternary digits 0 and 2 map to binary digits 0 and 1; the first ternary
    digit 1 contributes a final binary 1 and stops (the value is constant
    across each removed gap).  Exact rational arithmetic throughout.
    """
    fr = Fraction(x)
    if not 0 <= fr <= 1:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    if fr == 1:
        return 1.0
    value = Fraction(0)
    for i in range(1, 65):
        fr *= 3
        digit = math.floor(fr)
        fr -= digit
        if digit >= 1:
            value += Fraction(1, 2**i)
            if digit == 1:
                break
        if fr == 0:
            break
    return float(value)


def cantor_graph(depth: int, budget: int = 0) -> SampledSet:
    """Samples of the full Cantor ladder graph over [0, 1].

    Sampling resolves the graph to level k >= depth (deeper when the budget
    asks for more points): interval corners carry exact dyadic heights, the
    gap plateaus are filled at spacing <= 2^(1-k), and each level-k interval
    also contributes the interior point with ternary tail 0202... whose height
    j/2^k + 1/(3*2^k) is NOT dyadic (the graph is not a union of dyadic
    lines).  A graph point above a level-k interval sits within 3^-k
    horizontally and 2^-k vertically of a corner, so the density is 2^-k.
    Interval j gives its left corner (A_j / 3^k, j / 2^k), the interior
    point ((4 A_j + 1) / (4 * 3^k), (3j + 1) / (3 * 2^k)), its right corner
    ((A_j + 1) / 3^k, (j + 1) / 2^k), each coordinate an integer ratio
    rounded once (module docstring), then the plateau to its right: the
    inner points of ``np.linspace`` between the rounded ends, element for
    element.
    """
    if not 0 <= depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be in [0, {_MAX_DEPTH}], got {depth}")
    level = max(depth, 1)
    if budget:
        level = max(level, int(math.log2(max(budget, 4) / 3.5)))
        level = min(level, _MAX_DEPTH)
    lefts = _cantor_lefts(level)
    j = np.arange(lefts.size)
    widths = (np.diff(lefts) - 1) / 3**level
    inner = np.maximum(2, np.ceil(widths / 2.0 ** (1 - level)).astype(np.int64) + 1)
    fills = np.append(inner - 1, 0)
    starts = np.cumsum(fills + 3) - fills - 3
    xs = np.empty(int(starts[-1]) + 3)
    ys = np.empty_like(xs)
    for offset, x, y in (
        (0, lefts / 3**level, j / 2**level),
        (1, (4 * lefts + 1) / (4 * 3**level), (3 * j + 1) / (3 * 2**level)),
        (2, (lefts + 1) / 3**level, (j + 1) / 2**level),
    ):
        xs[starts + offset] = x
        ys[starts + offset] = y
    plateau = np.repeat(j[:-1], fills[:-1])
    index = np.arange(plateau.size) - np.repeat(np.cumsum(fills) - fills, fills) + 1
    left = xs[starts[:-1] + 2]
    spacing = (xs[starts[1:]] - left) / inner
    xs[starts[plateau] + 2 + index] = index * spacing[plateau] + left[plateau]
    ys[starts[plateau] + 2 + index] = (plateau + 1) / 2**level
    return SampledSet(points=np.stack([xs, ys], axis=1), density=2.0 ** -level)


def ladder_steps(depth: int, budget: int = 64) -> SampledSet:
    """Open plateau interiors of the ladder graph, truncated at ``depth``.

    Returns 2-D samples (x, height) on the 2^depth - 1 removed-gap plateaus,
    inset by 10% of each plateau's length so no sample touches the graph of
    the restriction to the Cantor set itself.  Heights are exact dyadics
    k/2^q with q <= depth.  Plateau j runs from (A_j + 1) / 3^depth to
    A_(j+1) / 3^depth; its ends and length are integer ratios rounded once
    (module docstring), and its samples are ``np.linspace`` between the
    inset ends, element for element.
    """
    if not 1 <= depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {_MAX_DEPTH}], got {depth}")
    lefts = _cantor_lefts(depth)
    per_plateau = max(2, budget // (lefts.size - 1))
    length = (np.diff(lefts) - 1) / 3**depth
    lo = (lefts[:-1] + 1) / 3**depth + 0.1 * length
    hi = lefts[1:] / 3**depth - 0.1 * length
    spacing = (hi - lo) / (per_plateau - 1)
    xs = np.arange(per_plateau, dtype=np.float64) * spacing[:, None] + lo[:, None]
    xs[:, -1] = hi
    ys = np.repeat(np.arange(1, lefts.size) / 2**depth, per_plateau)
    density = max(float((0.1 * length).max()), float((spacing / 2).max()))
    return SampledSet(points=np.stack([xs.ravel(), ys], axis=1), density=density)


def sampled_sum(a: SampledSet, b: SampledSet) -> SampledSet:
    """All pairwise sums; covering densities add."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    pts = (a.points[:, None, :] + b.points[None, :, :]).reshape(-1, a.dim)
    return SampledSet(
        points=pts, density=a.density + b.density, exact=a.exact and b.exact
    )


def dyadic_lines_check(
    sum_samples: SampledSet, max_denominator_exponent: int
) -> tuple[bool, int]:
    """Do all heights lie on lines y = p / 2^q with q bounded?

    Returns (verdict, number of distinct heights).  Scaling by 2^q is exact
    in floating point, so integrality of y * 2^q is an exact test.  Empty
    input passes vacuously with zero lines.
    """
    if max_denominator_exponent < 0:
        raise ValueError("denominator exponent must be non-negative")
    if sum_samples.count == 0:
        return True, 0
    if sum_samples.dim != 2:
        raise ValueError(f"expected planar samples, got dim {sum_samples.dim}")
    heights = sum_samples.points[:, 1]
    scaled = heights * 2.0**max_denominator_exponent
    all_dyadic = bool(np.all(scaled == np.floor(scaled)))
    return all_dyadic, len(np.unique(heights))


def self_sum_dyadic_lines(samples: SampledSet, max_denominator_exponent: int) -> tuple[bool, int]:
    """:func:`dyadic_lines_check` of ``sampled_sum(samples, samples)``, same result.

    The check reads heights only, and the self-sum's heights are the sums
    h_i + h_j of the distinct sample heights with i <= j.  So it checks the
    sums of one sample per distinct height, pairs i <= j only: d(d + 1) / 2
    points for d heights, against the square of the sample count.
    """
    if samples.dim != 2 or samples.count == 0:
        return dyadic_lines_check(samples, max_denominator_exponent)
    reps = samples.points[np.unique(samples.points[:, 1], return_index=True)[1]]
    pairs = np.concatenate([reps[i] + reps[i:] for i in range(len(reps))])
    sums = SampledSet(points=pairs, density=2 * samples.density, exact=samples.exact)
    return dyadic_lines_check(sums, max_denominator_exponent)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative recipe for one generated set (CLI-constructible).

    Every generator is deterministic, so a recipe takes no seed."""

    kind: str
    parameters: dict = field(default_factory=dict)
    sample_budget: int = 64


#: Each generator kind's builder, called with the parameters and the budget,
#: and its required and optional parameters.
_Builder = Callable[[dict, int], SampledSet]
_GENERATORS: dict[str, tuple[_Builder, tuple[str, ...], tuple[str, ...]]] = {
    "segment": (lambda p, n: segment(p["start"], p["end"], n), ("start", "end"), ()),
    "l_shape": (lambda p, n: l_shape(int(p.get("dim", 2)), n), (), ("dim",)),
    "circle": (
        lambda p, n: circle(
            n, p.get("center", (0.0, 0.0)), float(p.get("radius", 1.0)), float(p.get("phase", 0.0))
        ),
        (),
        ("center", "radius", "phase"),
    ),
    "moment_curve": (lambda p, n: moment_curve(int(p.get("dim", 2)), n), (), ("dim",)),
    "polyline": (lambda p, n: polyline(p["vertices"], n), ("vertices",), ()),
    "cantor_set": (lambda p, n: cantor_set(int(p["depth"])), ("depth",), ()),
    "cantor_graph": (lambda p, n: cantor_graph(int(p["depth"]), n), ("depth",), ()),
    "ladder_steps": (lambda p, n: ladder_steps(int(p["depth"]), n), ("depth",), ()),
}

KINDS = tuple(_GENERATORS)

#: Parameters each generator kind accepts besides the budget.
ALLOWED_PARAMS = {
    kind: {*needed, *optional} for kind, (_, needed, optional) in _GENERATORS.items()
}


def _check_finite(value: object, path: str) -> None:
    if isinstance(value, bool):
        raise ValueError(f"parameter {path} must be numeric, got a boolean")
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise ValueError(f"parameter {path} must be finite, got {value}")
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(item, f"{path}[{i}]")
        return
    raise ValueError(f"parameter {path} has unsupported type {type(value).__name__}")


def generate(spec: GeneratorSpec) -> SampledSet:
    """Build the sampled set a GeneratorSpec describes.

    The kind and parameters are the spec's own; the sample count and
    density are the set's, and a ``cantor_graph``'s effective level is
    ``round(-log2(density))``.
    """
    if spec.kind not in KINDS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    if spec.sample_budget < 2:
        raise ValueError(f"sample_budget must be at least 2, got {spec.sample_budget}")
    unknown = set(spec.parameters) - ALLOWED_PARAMS[spec.kind]
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for {spec.kind}: {', '.join(sorted(unknown))}"
        )
    for key, value in spec.parameters.items():
        _check_finite(value, key)
    build, required, _ = _GENERATORS[spec.kind]
    if any(key not in spec.parameters for key in required):
        raise ValueError(f"{spec.kind} needs {' and '.join(required)}")
    return build(spec.parameters, spec.sample_budget)
