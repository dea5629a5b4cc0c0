"""The three workloads: their inputs, their operations and their output checks.

A workload writes its documents once (set-up), then runs passes.  A pass is
the workload's fixed list of operations, run in order; every pass of every
run attempts the same operations, so the share of failed operations is the
same whatever the seed and the run length.  After the timed passes the first
pass's outputs are checked by :mod:`checks`, and every later pass's outputs
must repeat the first pass's byte for byte (reports apart from
``elapsed_seconds``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks

#: The criterion-02 resolution ladder used by the planar sweeps.
PLANAR_LADDER = (0.02, 0.01, 0.005)

#: The tripod ladder, one octave coarser than criterion 02's.  At 0.005 one
#: pass takes about 73 s at 2.3 GB, which does not fit the run budget; at 0.01
#: a pass takes about 4 s and the distance transform is still most of it.
TRIPOD_LADDER = (0.04, 0.02, 0.01)

#: Claim resolutions and cube half-side.
CLAIM_LADDER = (0.05, 0.025, 0.0125)
CLAIM_S = 2

HL_BLOCKS = 10
HL_TRIALS = 100


@dataclass
class Operation:
    """One timed call.  ``run`` returns True when the operation succeeded.

    ``known_fault`` names a program fault that makes the operation fail on
    every pass; its failures are counted but are no correctness problem.
    """

    label: str
    run: Callable[[], bool]
    harvest: Callable[[], Any]
    check: Callable[[Any], None]
    fingerprint: Callable[[Any], bytes]
    known_fault: str = ""


@dataclass
class Workload:
    """A pass's operations; ``address_limit`` caps the worker's address space."""

    operations: list[Operation]
    address_limit: int | None = None


def _h_flags(ladder) -> list[str]:
    out: list[str] = []
    for h in ladder:
        out += ["--h", repr(h)]
    return out


class _Cli:
    """In-process calls of ``cli.main`` with captured output streams."""

    def __init__(self, cli_module: Any, workdir: str) -> None:
        self.cli = cli_module
        self.workdir = workdir
        self.last_stderr = ""

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def capture(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        self.last_stderr = err.getvalue()
        return code, out.getvalue()

    def gallery(self, name: str, args: list[str]) -> str:
        code, text = self.capture(["gallery", *args])
        if code != 0:
            raise RuntimeError(f"gallery {' '.join(args)} exited {code}: {self.last_stderr}")
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def write(self, name: str, doc: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _report_op(
    cli: _Cli,
    label: str,
    argv: list[str],
    check: Callable[[dict, dict[str, bytes]], None],
    pbm_names: tuple[str, ...] = (),
) -> Operation:
    """A ``verify`` call that must exit 0 and write a report (and bitmaps)."""
    out = cli.path(f"{label}.report.json")

    def run() -> bool:
        return cli.capture([*argv, "--out", out])[0] == 0

    def harvest() -> tuple[bytes, dict[str, bytes]]:
        return _read(out), {name: _read(cli.path(name)) for name in pbm_names}

    def check_output(output: tuple[bytes, dict[str, bytes]]) -> None:
        report, pbms = output
        check(json.loads(report), pbms)

    def fingerprint(output: tuple[bytes, dict[str, bytes]]) -> bytes:
        report, pbms = output
        return checks.without_clock(report) + b"".join(pbms[k] for k in sorted(pbms))

    return Operation(label, run, harvest, check_output, fingerprint)


def output_bytes(output: Any) -> tuple[int, int]:
    """(report bytes less the clock field, bitmap bytes) of a report operation, else zeros."""
    if isinstance(output, tuple) and len(output) == 2 and isinstance(output[0], bytes):
        return len(checks.without_clock(output[0])), sum(len(v) for v in output[1].values())
    return 0, 0


def tripod_sweep(pkg: Any, seed: int, workdir: str) -> Workload:
    """``verify main`` on the 3-D l-shape document: the tripod triple."""
    cli = _Cli(pkg.cli, workdir)
    doc = cli.gallery(
        "tripod.json", ["l-shape", "--dim", "3", "--budget", "63", "--seed", str(seed)]
    )
    samples = pkg.gallery.l_shape(3, 63).points

    def check(report: dict, _pbms: dict) -> None:
        checks.check_theorem_report(report, [samples] * 3, TRIPOD_LADDER, 1.0, "tripod")

    op = _report_op(cli, "tripod", ["verify", "main", doc, *_h_flags(TRIPOD_LADDER)], check)
    return Workload([op])


def _oversized_op(cli: _Cli) -> Operation:
    """A raw two-point set spanning 1e12 at h=0.5: rasterizing asks for 1.82 TiB.

    Succeeds only when the CLI refuses with exit 2 and a message.  Until a
    resource pre-flight exists the allocation raises MemoryError, and the
    operation counts as failed on every pass.
    """
    doc = cli.write(
        "oversized.json",
        {"dim": 2, "sets": [{"points": [[0.0, 0.0], [1.0e12, 0.0]], "density": 0.0}]},
    )
    out = cli.path("oversized.report.json")
    state = {"outcome": ""}

    def run() -> bool:
        try:
            code = cli.capture(["verify", "main", doc, "--h", "0.5", "--out", out])[0]
        except MemoryError as exc:
            state["outcome"] = f"MemoryError: {str(exc)[:120]}"
            return False
        message = cli.last_stderr.strip()
        state["outcome"] = f"exit {code}: {message[:120]}"
        return code == 2 and bool(message)

    return Operation(
        "oversized",
        run,
        harvest=lambda: state["outcome"],
        check=lambda outcome: None,
        fingerprint=lambda outcome: outcome.encode(),
        known_fault="an oversized document is not refused with exit 2 before allocating",
    )


def planar_sweeps(pkg: Any, seed: int, workdir: str) -> Workload:
    """The four planar criterion-02 families, c1, cantor and one oversized document."""
    cli = _Cli(pkg.cli, workdir)
    gallery = pkg.gallery
    rng = np.random.default_rng(seed)
    # A phase below one sample spacing gives a different sample set each seed.
    phase = 2.0 * math.pi * float(rng.random()) / 720
    s = str(seed)
    docs = {
        "lshape": cli.gallery("lshape.json", ["l-shape", "--budget", "42", "--seed", s]),
        "circle": cli.gallery(
            "circle.json", ["circle", "--budget", "720", "--phase", repr(phase), "--seed", s]
        ),
        "moment": cli.gallery("moment.json", ["moment-curve", "--budget", "201", "--seed", s]),
        "staircase": cli.gallery(
            "staircase.json", ["cantor-graph", "--depth", "6", "--seed", s]
        ),
    }
    # True areas of the two-fold sums: the unit square, the radius-2 disk and
    # the region between v = u^2/2 and the moment curve's endpoint arcs.  The
    # staircase sum's area is not known in closed form; its floor is the
    # certificate parallelotope.
    families = {
        "lshape": (gallery.l_shape(2, 42).points, 1.0),
        "circle": (gallery.circle(720, phase=phase).points, 4.0 * math.pi),
        "moment": (gallery.moment_curve(2, 201).points, 1.0 / 3.0),
        "staircase": (gallery.cantor_graph(6, 64).points, None),
    }
    ladder = _h_flags(PLANAR_LADDER)
    pbm_names = tuple(f"circle-h{h:g}.pbm" for h in PLANAR_LADDER)
    ops = []
    for label, path in docs.items():
        samples, floor = families[label]

        def check(report, pbms, samples=samples, floor=floor, label=label):
            checks.check_theorem_report(report, [samples] * 2, PLANAR_LADDER, floor, label)
            rotation = np.asarray(report["evidence"]["rotation"])
            for h, name in zip(PLANAR_LADDER, pbm_names):
                if name in pbms:
                    checks.check_pbm(pbms[name].decode(), [samples] * 2, rotation, h, label)

        argv = ["verify", "main", path, *ladder]
        names: tuple[str, ...] = ()
        if label == "circle":
            argv += ["--bitmap", cli.path("circle")]
            names = pbm_names
        ops.append(_report_op(cli, label, argv, check, names))

    def check_c1(report: dict, _pbms: dict) -> None:
        checks.check_all_passed(
            report,
            ("rank-certificate", "projection-widths", "sum-interior", "equivalence-consistency"),
            "c1",
        )
        checks.require(report["inputs"]["m_directions"] == 100, "c1: direction count")

    ops.append(
        _report_op(cli, "c1", ["verify", "c1", docs["circle"], "--directions", "100"], check_c1)
    )
    ladder_points = gallery.ladder_steps(6).points

    def check_cantor(report: dict, _pbms: dict) -> None:
        checks.check_cantor_report(report, ladder_points, 6, "cantor")

    ops.append(_report_op(cli, "cantor", ["verify", "cantor", "--depth", "6"], check_cantor))
    ops.append(_oversized_op(cli))
    # The oversized document must fail at once rather than allocate: cap the
    # worker's address space well above what the other operations use.
    return Workload(ops, address_limit=8 * 2**30)


def _chain_digest(chain: Any) -> bytes:
    digest = hashlib.sha256(repr(chain.interior_found_at).encode())
    for step in chain.steps:
        g = step.geometry
        digest.update(repr((g.origin, g.spacing, g.extents, step.slack)).encode())
        digest.update(np.packbits(step.occupancy).tobytes())
    return digest.digest()


def _midpoint_op(pkg: Any, label: str, raster: Any, steps: int, check: Callable) -> Operation:
    state: dict[str, Any] = {}

    def run() -> bool:
        state["chain"] = pkg.sums.midpoint_iterate(raster, steps)
        return True

    def harvest() -> Any:
        return state.pop("chain")

    return Operation(label, run, harvest, check, _chain_digest)


def _midpoint_inputs(pkg: Any) -> list[tuple[str, Any, int, bool]]:
    """Criterion-07 inputs: (label, Outer raster, steps, flat)."""
    grid = pkg.grid
    rng = np.random.default_rng(11)
    planar = np.column_stack([rng.uniform(0.0, 1.0, 12), rng.uniform(0.0, 1.0, 12), np.zeros(12)])
    flats = [
        ("axis-segment", pkg.gallery.segment((0.0, 0.0), (1.0, 0.0), 21).points, 0.1),
        ("diagonal-segment", pkg.gallery.segment((0.0, 0.0), (1.0, 1.0), 21).points, 0.25),
        ("planar-cloud", planar, 0.25),
        ("point-pair", pkg.gallery.segment((0.0,), (1.0,), 2).points, 1.0),
    ]
    out = []
    for label, points, h in flats:
        exact = grid.SampledSet(points=points, density=0.0)
        raster = grid.rasterize(exact, grid.auto_geometry(points, h), grid.Semantics.OUTER)
        out.append((label, raster, 10, True))
    shape = pkg.gallery.l_shape(2, 42)
    raster = grid.rasterize(shape, grid.auto_geometry(shape.points, 0.05), grid.Semantics.OUTER)
    out.append(("lshape", raster, 2, False))
    return out


def sum_constructions(pkg: Any, seed: int, workdir: str) -> Workload:
    """Midpoint chains, ten separator-suite blocks and one lattice-shift claim.

    Two separator blocks follow each midpoint chain, so the short operations
    that set ``op_p50_s`` are spread over the whole pass rather than bunched
    into one stretch of it.
    """
    cli = _Cli(pkg.cli, workdir)
    chains = []
    for label, raster, steps, flat in _midpoint_inputs(pkg):
        if flat:
            def check(chain, label=label):
                checks.check_flat_chain(
                    [s.occupancy for s in chain.steps], chain.interior_found_at, label
                )
        else:
            def check(chain, label=label):
                checks.check_interior_step(
                    [(s.occupancy, s.slack, s.geometry.spacing) for s in chain.steps],
                    chain.interior_found_at,
                    1,
                    label,
                )
        chains.append(_midpoint_op(pkg, f"midpoint-{label}", raster, steps, check))

    blocks = []
    rng = np.random.default_rng(seed)
    base = 1000 * seed
    for block in range(HL_BLOCKS):
        first = base + block * HL_TRIALS
        # Spot-check one planar and one spatial instance (every tenth is 3-D).
        picks = [
            (2, first + int(rng.choice([t for t in range(HL_TRIALS) if t % 10 != 9]))),
            (3, first + 10 * int(rng.integers(HL_TRIALS // 10)) + 9),
        ]

        def check_hl(report, _pbms, picks=picks, label=f"hl-{block}"):
            checks.check_hl_report(report, HL_TRIALS, label)
            for n, instance_seed in picks:
                inst = pkg.sums.random_separator_instance(n, instance_seed)
                checks.require(
                    checks.bands_meet_brute_force(
                        inst.factor_cells, inst.potentials, inst.band_center, inst.band_radius
                    ),
                    f"{label}: brute force finds no common band cell for n={n} seed={instance_seed}",
                )

        argv = ["verify", "hl", "--trials", str(HL_TRIALS), "--seed", str(first)]
        blocks.append(_report_op(cli, f"hl-{block}", argv, check_hl))
    per_chain = HL_BLOCKS // len(chains)
    ops = []
    for i, chain in enumerate(chains):
        ops += [chain, *blocks[i * per_chain : (i + 1) * per_chain]]

    lshape = cli.gallery("claim-set.json", ["l-shape", "--budget", "82", "--seed", str(seed)])
    with open(lshape, encoding="utf-8") as fh:
        entry = json.load(fh)["sets"][0]
    doc = cli.write("claim.json", {"dim": 2, "sets": [entry, entry], "seed": seed})
    claim_samples = pkg.gallery.l_shape(2, 82).points

    def check_claim(report: dict, _pbms: dict) -> None:
        checks.check_claim_cover(report, [claim_samples] * 2, "claim")

    argv = ["verify", "claim", doc, "--s", str(CLAIM_S), *_h_flags(CLAIM_LADDER)]
    ops.append(_report_op(cli, "claim", argv, check_claim))
    return Workload(ops)


WORKLOADS = {
    "tripod-sweep": tripod_sweep,
    "planar-sweeps": planar_sweeps,
    "sum-constructions": sum_constructions,
}
