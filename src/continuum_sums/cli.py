"""Batch command-line front end: set descriptions in, reports and bitmaps out.

Three subcommands: ``gallery`` prints a JSON set-description document for a
generator, ``verify`` runs one of the evidence pipelines on such a document
(or its own flags) and emits a JSON report, ``bitmap`` renders a sum raster
as an ASCII PBM image.  Exit codes: 0 all checks passed, 1 a check failed
(the report is still written), 2 usage, input or resource error (a grid too
large to allocate included).

Reports are the scenarios' ``VerificationReport.payload()`` written as plain
JSON, with a fixed key order and a schema version; the only field that
varies between identical runs is ``elapsed_seconds``.  Non-finite
numbers (an infinite density margin) serialize as null.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .gallery import ALLOWED_PARAMS, KINDS, GeneratorSpec, generate
from .grid import PackedMask, SampledSet, auto_geometry, packed_minkowski_sum, rasterize
from .verify import (
    DEFAULT_RESOLUTIONS,
    SCHEMA_VERSION,
    verify_corollary_c1,
    verify_example_cantor,
    verify_hl_suite,
    verify_lattice_claim,
    verify_theorem_report,
)

_TOP_KEYS = {"version", "dim", "sets", "construction", "resolutions", "seed"}
_GEN_BASE_KEYS = {"kind", "budget", "seed"}
_RAW_KEYS = {"points", "density", "exact"}


class InputError(ValueError):
    """Bad document, flag or file content; maps to exit code 2."""


@dataclass
class Document:
    """Parsed set-description file plus the raw object for echoing."""

    dim: int
    sets: list[SampledSet]
    construction_s: int | None
    resolutions: list[float] | None
    seed: int
    raw: dict


def _expect_int(value: object, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{path}: must be an integer")
    if minimum is not None and value < minimum:
        raise InputError(f"{path}: must be at least {minimum}, got {value}")
    return value


def _expect_number(value: object, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path}: must be a number")
    out = float(value)
    if not math.isfinite(out):
        raise InputError(f"{path}: must be finite, got {value}")
    if positive and out <= 0:
        raise InputError(f"{path}: must be positive, got {value}")
    return out


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        prefix = f"{path}." if path else ""
        raise InputError(f"unknown key at {prefix}{unknown[0]}")


def _parse_generator_set(entry: dict, path: str) -> SampledSet:
    kind_raw = entry["kind"]
    if not isinstance(kind_raw, str):
        raise InputError(f"{path}.kind: must be a string")
    kind = kind_raw.replace("-", "_")
    if kind not in KINDS:
        raise InputError(f"{path}.kind: unknown generator kind {kind_raw!r}")
    _reject_unknown(entry, _GEN_BASE_KEYS | ALLOWED_PARAMS[kind], path)
    budget = _expect_int(entry.get("budget", 64), f"{path}.budget", minimum=2)
    # The seed is validated and echoed with the document; no generator reads it.
    _expect_int(entry.get("seed", 0), f"{path}.seed", minimum=0)
    params = {k: v for k, v in entry.items() if k not in _GEN_BASE_KEYS}
    try:
        return generate(GeneratorSpec(kind=kind, parameters=params, sample_budget=budget))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_raw_set(entry: dict, path: str, dim: int) -> SampledSet:
    _reject_unknown(entry, _RAW_KEYS, path)
    if "density" not in entry:
        raise InputError(f"{path}.density: required key missing")
    density = _expect_number(entry["density"], f"{path}.density")
    if density < 0:
        raise InputError(f"{path}.density: must be non-negative, got {density}")
    raw_points = entry["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise InputError(f"{path}.points: must be a non-empty array")
    rows = []
    for i, row in enumerate(raw_points):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"{path}.points[{i}]: must be an array of {dim} numbers")
        rows.append([_expect_number(x, f"{path}.points[{i}][{j}]") for j, x in enumerate(row)])
    exact = entry.get("exact", True)
    if not isinstance(exact, bool):
        raise InputError(f"{path}.exact: must be a boolean")
    return SampledSet(
        points=np.asarray(rows, dtype=np.float64), density=density, exact=exact
    )


def parse_document(data: object) -> Document:
    """Validate a set-description object; errors carry the offending key path."""
    if not isinstance(data, dict):
        raise InputError("document root must be an object")
    _reject_unknown(data, _TOP_KEYS, "")
    version = data.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InputError(f"version: unsupported document version {version!r}")
    if "dim" not in data:
        raise InputError("dim: required key missing")
    dim = _expect_int(data["dim"], "dim", minimum=1)
    entries = data.get("sets")
    if not isinstance(entries, list) or not entries:
        raise InputError("sets: must be a non-empty array")
    sets = []
    for i, entry in enumerate(entries):
        path = f"sets[{i}]"
        if not isinstance(entry, dict):
            raise InputError(f"{path}: must be an object")
        if "kind" in entry:
            samples = _parse_generator_set(entry, path)
        elif "points" in entry:
            samples = _parse_raw_set(entry, path, dim)
        else:
            raise InputError(f"{path}: needs either a kind or a points array")
        if samples.dim != dim:
            raise InputError(
                f"{path}: set lives in dimension {samples.dim}, document says {dim}"
            )
        sets.append(samples)
    construction_s = None
    if "construction" in data:
        cons = data["construction"]
        if not isinstance(cons, dict):
            raise InputError("construction: must be an object")
        _reject_unknown(cons, {"s"}, "construction")
        if "s" not in cons:
            raise InputError("construction.s: required key missing")
        construction_s = _expect_int(cons["s"], "construction.s", minimum=1)
    resolutions = None
    if "resolutions" in data:
        res = data["resolutions"]
        if not isinstance(res, list) or not res:
            raise InputError("resolutions: must be a non-empty array")
        resolutions = [
            _expect_number(v, f"resolutions[{i}]", positive=True)
            for i, v in enumerate(res)
        ]
    seed = _expect_int(data.get("seed", 0), "seed", minimum=0)
    return Document(
        dim=dim,
        sets=sets,
        construction_s=construction_s,
        resolutions=resolutions,
        seed=seed,
        raw=data,
    )


def load_document(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_document(data)


def _jsonable(value: object) -> object:
    """Numpy-free, strictly finite JSON payload; non-finite floats become null."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        out = float(value)
        return out if math.isfinite(out) else None
    return value


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".continuum-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(_jsonable(report), indent=2, allow_nan=False) + "\n"
    if out_path:
        _atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def render_pbm(occupancy: np.ndarray) -> str:
    """ASCII PBM (P1) of a 2-D occupancy array, row 0 = highest second index."""
    if occupancy.ndim != 2:
        raise InputError(f"bitmap needs a 2-D grid, got {occupancy.ndim} axes")
    width, height = occupancy.shape
    # Row r of the image is column height-1-r of the occupancy: digits at even
    # byte positions, spaces between them, the newline in the last position.
    body = np.full((height, 2 * width), ord(" "), dtype=np.uint8)
    body[:, 0::2] = np.asarray(occupancy, dtype=bool).T[::-1] + np.uint8(ord("0"))
    body[:, -1] = ord("\n")
    return f"P1\n{width} {height}\n" + body.tobytes().decode("ascii")


def _check_bitmap_dim(dim: int) -> None:
    if dim not in (2, 3):
        raise InputError(f"bitmap supports 2-D and sliced 3-D grids, not {dim}-D")


def _check_plane(shape: tuple[int, ...], slice_spec: tuple[int, int] | None) -> None:
    """Refuses a raster shape and ``--slice`` that name no plane a PBM can show."""
    _check_bitmap_dim(len(shape))
    if len(shape) == 2:
        if slice_spec is not None:
            raise InputError("--slice applies only to 3-D grids")
        return
    if slice_spec is None:
        raise InputError("3-D grids need --slice AXIS INDEX")
    axis, index = slice_spec
    if not 0 <= axis < 3:
        raise InputError(f"slice axis must be 0, 1 or 2, got {axis}")
    if not 0 <= index < shape[axis]:
        raise InputError(
            f"slice index {index} out of range for axis {axis} "
            f"with {shape[axis]} cells"
        )


def _bitmap_plane(cells: PackedMask, slice_spec: tuple[int, int] | None) -> np.ndarray:
    """The plane of a packed 2-D or 3-D raster that a PBM shows; only that
    plane is unpacked."""
    _check_plane(cells.shape, slice_spec)
    if slice_spec is None:
        return cells.unpack()
    axis, index = slice_spec
    window = [slice(None)] * 3
    window[axis] = slice(index, index + 1)
    return np.take(cells.unpack(tuple(window)), 0, axis=axis)


def _write_bitmaps(prefix: str, sums: Iterable[tuple[float, PackedMask]]) -> None:
    """One PBM ``PREFIX-hH.pbm`` per (h, packed sum raster) pair; 3-D rasters
    use the middle slice of the last axis."""
    for h, cells in sums:
        spec = (2, cells.shape[2] // 2) if len(cells.shape) == 3 else None
        _atomic_write_text(f"{prefix}-h{h:g}.pbm", render_pbm(_bitmap_plane(cells, spec)))


def _finite_h(h: float) -> float:
    if not math.isfinite(h):
        raise InputError(f"--h must be finite, got {h}")
    return h


def _effective_resolutions(args: argparse.Namespace, doc: Document | None) -> list[float] | None:
    """The ``--h`` flags, else the document's list, else None: the scenario's default."""
    if getattr(args, "h", None):
        return [_finite_h(h) for h in args.h]
    return doc.resolutions if doc is not None else None


def _main_sets(doc: Document) -> list[SampledSet]:
    # A single-set document verifies the n-fold self sum.
    if len(doc.sets) == 1 and doc.dim > 1:
        return list(doc.sets) * doc.dim
    return list(doc.sets)


def _one_set(doc: Document) -> SampledSet:
    if len(doc.sets) != 1:
        raise InputError("the c1 scenario takes exactly one set")
    return doc.sets[0]


def _cmd_verify(args: argparse.Namespace) -> int:
    """Runs the subcommand's scenario, then writes its bitmaps and its report.
    A document's echo goes first in the report's inputs when
    ``args.echo_first`` is set, else last."""
    doc = load_document(args.input) if "input" in args else None
    bitmap = getattr(args, "bitmap", None)
    if bitmap and doc is not None:
        _check_bitmap_dim(doc.dim)
    rep = args.run(args, doc, _effective_resolutions(args, doc))
    if doc is not None:
        echo = {"document": doc.raw}
        rep = replace(
            rep, inputs={**echo, **rep.inputs} if args.echo_first else {**rep.inputs, **echo}
        )
    if bitmap:
        _write_bitmaps(bitmap, rep.sums)
    _emit_report(rep.payload(), args.out)
    return 0 if rep.passed else 1


def _parse_point(text: str, flag: str, length: int | None = None) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts or (length is not None and len(parts) != length):
        want = f"{length} " if length is not None else ""
        raise InputError(f"{flag}: expected {want}comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"{flag}: {exc}") from exc


def _cmd_gallery(args: argparse.Namespace) -> int:
    kind = args.kind.replace("-", "_")
    if kind not in KINDS:
        raise InputError(
            f"unknown generator kind {args.kind!r}; known: "
            + ", ".join(k.replace("_", "-") for k in KINDS)
        )
    params: dict = {}
    if args.depth is not None:
        params["depth"] = args.depth
    if args.dim is not None:
        params["dim"] = args.dim
    if args.radius is not None:
        params["radius"] = args.radius
    if args.phase is not None:
        params["phase"] = args.phase
    if args.center is not None:
        params["center"] = _parse_point(args.center, "--center", 2)
    if args.start is not None:
        params["start"] = _parse_point(args.start, "--start")
    if args.end is not None:
        params["end"] = _parse_point(args.end, "--end")
    if args.vertices is not None:
        params["vertices"] = [
            _parse_point(part, "--vertices") for part in args.vertices.split(";") if part.strip()
        ]
    extra = set(params) - ALLOWED_PARAMS[kind]
    if extra:
        raise InputError(
            f"{args.kind} does not take --{sorted(extra)[0].replace('_', '-')}"
        )
    try:
        samples = generate(GeneratorSpec(kind=kind, parameters=params, sample_budget=args.budget))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    doc = {
        "version": SCHEMA_VERSION,
        "dim": samples.dim,
        "sets": [{"kind": kind, "budget": args.budget, "seed": args.seed, **params}],
        "seed": args.seed,
    }
    print(json.dumps(_jsonable(doc), indent=2))
    return 0


def _cmd_bitmap(args: argparse.Namespace) -> int:
    doc = load_document(args.input)
    _check_bitmap_dim(doc.dim)
    h = _finite_h(args.h) if args.h is not None else min(doc.resolutions or DEFAULT_RESOLUTIONS)
    if h <= 0:
        raise InputError(f"--h must be positive, got {h}")
    slice_spec = tuple(args.slice) if args.slice is not None else None
    geometries = [auto_geometry(k.points, h) for k in doc.sets]
    _check_plane(functools.reduce(lambda a, b: a.summed(b), geometries).extents, slice_spec)
    _, cells = packed_minkowski_sum([rasterize(k, g) for k, g in zip(doc.sets, geometries)])
    text = render_pbm(_bitmap_plane(cells, slice_spec))
    if args.out:
        _atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--h", action="append", type=float, metavar="H",
                        help="grid resolution; repeat for a sweep (finest last)")
    parser.add_argument("--out", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--bitmap", metavar="PREFIX",
                        help="write PBM images of the sum, one per resolution")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="continuum-sums",
        description="Grid evidence tooling for Minkowski sums of connected sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gallery = sub.add_parser("gallery", help="print a set-description document")
    p_gallery.add_argument("kind", help="generator kind (hyphens or underscores)")
    p_gallery.add_argument("--budget", type=int, default=64, help="sample budget")
    p_gallery.add_argument("--seed", type=int, default=0)
    p_gallery.add_argument("--depth", type=int)
    p_gallery.add_argument("--dim", type=int)
    p_gallery.add_argument("--r", "--radius", dest="radius", type=float)
    p_gallery.add_argument("--phase", type=float)
    p_gallery.add_argument("--center", metavar="X,Y")
    p_gallery.add_argument("--start", metavar="X,Y[,Z]")
    p_gallery.add_argument("--end", metavar="X,Y[,Z]")
    p_gallery.add_argument("--vertices", metavar="X,Y;X,Y;...")
    p_gallery.set_defaults(func=_cmd_gallery)

    p_verify = sub.add_parser("verify", help="run an evidence pipeline")
    # Each scenario is run(args, doc, resolutions) -> VerificationReport.
    p_verify.set_defaults(func=_cmd_verify, echo_first=False)
    vsub = p_verify.add_subparsers(dest="scenario", required=True)

    p_main = vsub.add_parser("main", help="interior evidence for a sum of n sets")
    p_main.add_argument("input", help="set-description JSON file")
    _add_report_flags(p_main)
    p_main.set_defaults(
        run=lambda a, doc, hs: verify_theorem_report(_main_sets(doc), hs), echo_first=True
    )

    p_c1 = vsub.add_parser("c1", help="consistency of the one-set interior criteria")
    p_c1.add_argument("input", help="set-description JSON file with one set")
    p_c1.add_argument("--directions", type=int, default=100,
                      help="random projection directions")
    _add_report_flags(p_c1)
    p_c1.set_defaults(run=lambda a, doc, hs: verify_corollary_c1(_one_set(doc), a.directions, hs))

    p_cantor = vsub.add_parser("cantor", help="staircase-graph example scenario")
    p_cantor.add_argument("--depth", type=int, default=6)
    _add_report_flags(p_cantor)
    p_cantor.set_defaults(run=lambda a, doc, hs: verify_example_cantor(a.depth, hs))

    p_hl = vsub.add_parser("hl", help="separator-intersection suite")
    p_hl.add_argument("--trials", type=int, default=100)
    p_hl.add_argument("--seed", type=int, default=0)
    p_hl.add_argument("--out", metavar="PATH", help="write the JSON report here")
    p_hl.set_defaults(run=lambda a, doc, hs: verify_hl_suite(a.trials, a.seed))

    p_claim = vsub.add_parser("claim", help="lattice-shift cube coverage and measures")
    p_claim.add_argument("input", help="set-description JSON file")
    p_claim.add_argument("--s", type=int, help="target cube half-side (overrides the document)")
    _add_report_flags(p_claim)
    p_claim.set_defaults(
        run=lambda a, doc, hs: verify_lattice_claim(
            doc.sets, a.s if a.s is not None else (doc.construction_s or 1), hs
        ),
        echo_first=True,
    )

    p_bitmap = sub.add_parser("bitmap", help="render a sum raster as ASCII PBM")
    p_bitmap.add_argument("input", help="set-description JSON file")
    p_bitmap.add_argument("--h", type=float,
                          help="grid resolution (default: the document's finest, "
                          f"else {min(DEFAULT_RESOLUTIONS):g})")
    p_bitmap.add_argument("--slice", nargs=2, type=int, metavar=("AXIS", "INDEX"),
                          help="3-D only: fix AXIS at INDEX")
    p_bitmap.add_argument("--out", metavar="PATH", help="write the PBM here")
    p_bitmap.set_defaults(func=_cmd_bitmap)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
