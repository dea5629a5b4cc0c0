"""CLI contract tests: documents, reports, bitmaps, exit codes."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from continuum_sums.cli import (
    InputError,
    main,
    parse_document,
    render_pbm,
)
import continuum_sums.cli as cli_mod
import continuum_sums.grid as grid_mod
import continuum_sums.sums as sums_mod
import continuum_sums.verify as verify_mod
from continuum_sums.gallery import cantor_graph
from continuum_sums.grid import auto_geometry, minkowski_sum, packed_minkowski_sum, rasterize
from continuum_sums.sums import shift_construction, shifted_sum_raster
from continuum_sums.verify import verify_theorem_main

FULL_SQUARE = {
    "dim": 2,
    "sets": [{"points": [[0, 0], [1, 0], [0, 1], [1, 1]], "density": 0.0}],
}


def _write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDocumentParsing:
    def test_minimal_generator_document(self):
        doc = parse_document(
            {"dim": 2, "sets": [{"kind": "circle", "budget": 12, "radius": 2.0}]}
        )
        assert doc.dim == 2
        assert len(doc.sets) == 1
        assert doc.sets[0].count == 12
        assert doc.seed == 0

    def test_hyphenated_kind_accepted(self):
        doc = parse_document({"dim": 2, "sets": [{"kind": "cantor-graph", "depth": 2}]})
        assert doc.sets[0].dim == 2

    def test_raw_points_set(self):
        doc = parse_document(FULL_SQUARE)
        assert doc.sets[0].count == 4
        assert doc.sets[0].density == 0.0
        assert doc.sets[0].exact

    def test_unknown_top_key_path(self):
        with pytest.raises(InputError, match=r"unknown key at extra"):
            parse_document({"dim": 2, "sets": [], "extra": 1})

    def test_unknown_set_key_path(self):
        with pytest.raises(InputError, match=r"unknown key at sets\[0\].radius"):
            parse_document({"dim": 2, "sets": [{"kind": "l_shape", "radius": 1.0}]})

    def test_unknown_kind_names_path(self):
        with pytest.raises(InputError, match=r"sets\[1\].kind: unknown generator"):
            parse_document(
                {"dim": 2, "sets": [{"kind": "circle"}, {"kind": "blob"}]}
            )

    def test_bad_point_row_path(self):
        bad = {"dim": 2, "sets": [{"points": [[0, 0], [1]], "density": 0.1}]}
        with pytest.raises(InputError, match=r"sets\[0\].points\[1\]"):
            parse_document(bad)

    def test_non_numeric_coordinate_path(self):
        bad = {"dim": 2, "sets": [{"points": [[0, "x"]], "density": 0.1}]}
        with pytest.raises(InputError, match=r"sets\[0\].points\[0\]\[1\]"):
            parse_document(bad)

    def test_density_required(self):
        with pytest.raises(InputError, match=r"sets\[0\].density"):
            parse_document({"dim": 2, "sets": [{"points": [[0, 0]]}]})

    def test_construction_block(self):
        doc = parse_document({**FULL_SQUARE, "construction": {"s": 2}})
        assert doc.construction_s == 2
        with pytest.raises(InputError, match=r"unknown key at construction.t"):
            parse_document({**FULL_SQUARE, "construction": {"s": 1, "t": 2}})

    def test_resolutions_must_be_positive(self):
        with pytest.raises(InputError, match=r"resolutions\[1\]"):
            parse_document({**FULL_SQUARE, "resolutions": [0.1, -0.2]})

    def test_version_gate(self):
        with pytest.raises(InputError, match="version"):
            parse_document({**FULL_SQUARE, "version": 99})

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match=r"sets\[0\]: set lives in dimension 2"):
            parse_document({"dim": 3, "sets": [{"kind": "circle"}]})

    def test_booleans_are_not_numbers(self):
        with pytest.raises(InputError, match="dim: must be an integer"):
            parse_document({"dim": True, "sets": [{"kind": "circle"}]})


class TestPbm:
    def test_golden_full_square(self, tmp_path, capsys):
        doc = _write_doc(tmp_path, "square.json", FULL_SQUARE)
        code, out, _ = _run(capsys, "bitmap", doc, "--h", "1.0")
        assert code == 0
        assert out == "P1\n2 2\n1 1\n1 1\n"

    def test_golden_empty_single_cell(self):
        assert render_pbm(np.zeros((1, 1), dtype=bool)) == "P1\n1 1\n0\n"

    def test_golden_non_square_plane(self):
        # Axis 0 is x (width 3), axis 1 is y (height 2); the top row is y=1.
        plane = np.array([[True, False], [False, False], [True, True]])
        assert render_pbm(plane) == "P1\n3 2\n0 0 1\n1 0 1\n"

    def test_row_zero_is_highest_y(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path,
            "dot.json",
            {"dim": 2, "sets": [{"points": [[0, 0], [1, 1]], "density": 0.0}]},
        )
        code, out, _ = _run(capsys, "bitmap", doc, "--h", "1.0")
        assert code == 0
        # Occupied cells are (0,0) and (1,1); the top row shows the y=1 cells.
        assert out == "P1\n2 2\n0 1\n1 0\n"

    def test_three_dimensional_needs_slice(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path,
            "tri.json",
            {"dim": 3, "sets": [{"kind": "l_shape", "dim": 3, "budget": 12}]},
        )
        code, _, err = _run(capsys, "bitmap", doc, "--h", "0.25")
        assert code == 2 and "--slice" in err
        code, out, _ = _run(capsys, "bitmap", doc, "--h", "0.25", "--slice", "2", "0")
        assert code == 0 and out.startswith("P1\n5 5\n")
        code, _, err = _run(capsys, "bitmap", doc, "--h", "0.25", "--slice", "3", "0")
        assert code == 2 and "axis" in err
        code, _, err = _run(capsys, "bitmap", doc, "--h", "0.25", "--slice", "2", "99")
        assert code == 2 and "out of range" in err

    def test_unsupported_dimension_refused_before_summing(self, tmp_path, capsys, monkeypatch):
        import continuum_sums.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("the sum ran before the dimension was refused")

        monkeypatch.setattr(cli_mod, "packed_minkowski_sum", refuse)
        doc = _write_doc(
            tmp_path, "seg.json", {"dim": 1, "sets": [{"points": [[0], [1]], "density": 0.0}]}
        )
        code, _, err = _run(capsys, "bitmap", doc, "--h", "0.5")
        assert code == 2 and "not 1-D" in err

    @pytest.mark.parametrize(
        "dim, slice_args, message",
        [
            (2, ["--slice", "0", "0"], "only to 3-D"),
            (3, [], "need --slice"),
            (3, ["--slice", "3", "0"], "axis must be"),
            # Two 5-cell extents on axis 2 sum to 9 cells, so index 9 is past the end.
            (3, ["--slice", "2", "9"], "index 9 out of range for axis 2 with 9 cells"),
        ],
        ids=["slice-in-2d", "3d-without-slice", "bad-axis", "index-past-end"],
    )
    def test_slice_errors_refused_before_summing(
        self, tmp_path, capsys, monkeypatch, dim, slice_args, message
    ):
        import continuum_sums.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("the sum ran before the slice was refused")

        monkeypatch.setattr(cli_mod, "packed_minkowski_sum", refuse)
        corners = [[0] * dim, [1] * dim]
        doc = _write_doc(
            tmp_path,
            "pair.json",
            {"dim": dim, "sets": [{"points": corners, "density": 0.0}] * 2},
        )
        code, _, err = _run(capsys, "bitmap", doc, "--h", "0.25", *slice_args)
        assert code == 2 and message in err

    def test_default_resolution_is_the_finest_listed(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path,
            "tri.json",
            {
                "dim": 2,
                "sets": [{"points": [[0, 0], [1, 0], [0, 1]], "density": 0.0}],
                "resolutions": [0.25, 0.5],
            },
        )
        code, out, _ = _run(capsys, "bitmap", doc)
        assert code == 0 and out.startswith("P1\n5 5\n")
        assert out == _run(capsys, "bitmap", doc, "--h", "0.25")[1]

    def test_slice_rejected_in_two_dimensions(self, tmp_path, capsys):
        doc = _write_doc(tmp_path, "square.json", FULL_SQUARE)
        code, _, err = _run(capsys, "bitmap", doc, "--h", "1.0", "--slice", "0", "0")
        assert code == 2 and "3-D" in err

    def test_pixel_count_matches_measure(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path, "circle.json", {"dim": 2, "sets": [{"kind": "circle", "budget": 180}]}
        )
        code, out, _ = _run(capsys, "bitmap", doc, "--h", "0.1")
        assert code == 0
        body = out.splitlines()[2:]
        ones = sum(row.split().count("1") for row in body)
        assert ones > 0
        # One circle only: ring of cells, strictly fewer than the full box.
        width, height = map(int, out.splitlines()[1].split())
        assert ones < width * height


class TestGallery:
    def test_document_round_trips(self, capsys):
        code, out, _ = _run(capsys, "gallery", "circle", "--r", "1", "--budget", "24")
        assert code == 0
        doc = parse_document(json.loads(out))
        assert doc.sets[0].count == 24

    def test_cantor_graph_kind(self, capsys):
        code, out, _ = _run(capsys, "gallery", "cantor-graph", "--depth", "2", "--budget", "16")
        assert code == 0
        data = json.loads(out)
        assert data["sets"][0]["kind"] == "cantor_graph"
        assert data["sets"][0]["depth"] == 2

    def test_unknown_kind_exits_two(self, capsys):
        code, _, err = _run(capsys, "gallery", "unknown")
        assert code == 2
        assert "unknown generator kind" in err

    def test_missing_required_parameter_exits_two(self, capsys):
        code, _, err = _run(capsys, "gallery", "cantor-graph")
        assert code == 2 and "depth" in err

    def test_inapplicable_flag_exits_two(self, capsys):
        code, _, err = _run(capsys, "gallery", "l-shape", "--r", "2")
        assert code == 2 and "does not take" in err


class TestVerifyCommands:
    def test_main_supported_exit_zero(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path,
            "pair.json",
            {"dim": 2, "sets": [{"kind": "l_shape", "budget": 42}] * 2},
        )
        code, out, _ = _run(capsys, "verify", "main", doc, "--h", "0.1", "--h", "0.05")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["scenario"] == "theorem-main"
        assert report["evidence"]["verdict"] == "supported"
        assert [e["h"] for e in report["evidence"]["resolutions"]] == [0.1, 0.05]
        assert report["version"] == 1

    def test_main_single_set_self_sum(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path, "one.json", {"dim": 2, "sets": [{"kind": "l_shape", "budget": 42}]}
        )
        code, out, _ = _run(capsys, "verify", "main", doc, "--h", "0.1")
        assert code == 0
        assert json.loads(out)["evidence"]["n_copies"] == 2

    def test_main_flat_input_exit_one(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path,
            "flat.json",
            {
                "dim": 2,
                "sets": [
                    {"kind": "segment", "start": [0, 0], "end": [1, 0], "budget": 11}
                ],
            },
        )
        code, out, _ = _run(capsys, "verify", "main", doc, "--h", "0.1")
        assert code == 1
        report = json.loads(out)
        assert report["evidence"]["verdict"] == "refuted"
        assert report["evidence"]["resolutions"][0]["density_margin"] is None

    def test_main_missing_file_exit_two(self, capsys):
        code, _, err = _run(capsys, "verify", "main", "/nonexistent/x.json")
        assert code == 2 and "cannot read" in err

    def test_main_invalid_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,,}')
        code, _, err = _run(capsys, "verify", "main", str(path))
        assert code == 2 and "not valid JSON" in err

    def test_doc_resolutions_used_when_no_flags(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path,
            "pair.json",
            {
                "dim": 2,
                "sets": [{"kind": "l_shape", "budget": 42}] * 2,
                "resolutions": [0.1],
            },
        )
        code, out, _ = _run(capsys, "verify", "main", doc)
        assert code == 0
        assert [e["h"] for e in json.loads(out)["evidence"]["resolutions"]] == [0.1]

    def test_claim_report_shape(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path,
            "pair.json",
            {
                "dim": 2,
                "sets": [{"kind": "l_shape", "budget": 82}] * 2,
                "construction": {"s": 1},
            },
        )
        code, out, _ = _run(capsys, "verify", "claim", doc, "--h", "0.1", "--h", "0.05")
        assert code == 0
        report = json.loads(out)
        assert report["scenario"] == "lattice-shift-claim"
        cons = report["evidence"]["construction"]
        assert cons["s"] == 1 and cons["l"] == 3 and cons["n"] == 2
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "cube-evidence[h=0.1]",
            "measure-chain[h=0.1]",
            "cube-evidence[h=0.05]",
            "measure-chain[h=0.05]",
        ]
        assert all(c["passed"] for c in report["checks"])

    def test_claim_runs_each_resolution_once(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path, "pair.json", {"dim": 2, "sets": [{"kind": "l_shape", "budget": 82}] * 2}
        )
        code, out, _ = _run(
            capsys, "verify", "claim", doc, "--h", "0.05", "--h", "0.1", "--h", "0.05"
        )
        assert code == 0
        report = json.loads(out)
        assert report["inputs"]["resolutions"] == [0.1, 0.05]
        assert [c["name"] for c in report["checks"]] == [
            "cube-evidence[h=0.1]",
            "measure-chain[h=0.1]",
            "cube-evidence[h=0.05]",
            "measure-chain[h=0.05]",
        ]
        assert [e["h"] for e in report["evidence"]["per_resolution"]] == [0.1, 0.05]

    def test_main_runs_each_resolution_once(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path, "pair.json", {"dim": 2, "sets": [{"kind": "l_shape", "budget": 42}] * 2}
        )
        code, out, _ = _run(
            capsys, "verify", "main", doc, "--h", "0.05", "--h", "0.1", "--h", "0.05"
        )
        assert code == 0
        report = json.loads(out)
        assert report["inputs"]["resolutions"] == [0.1, 0.05]
        assert [e["h"] for e in report["evidence"]["resolutions"]] == [0.1, 0.05]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "main", "pair.json"],
            ["verify", "c1", "one.json"],
            ["verify", "cantor"],
            ["verify", "claim", "pair.json"],
            ["bitmap", "pair.json"],
        ],
    )
    def test_non_finite_h_exits_two(self, tmp_path, capsys, argv, value):
        _write_doc(tmp_path, "pair.json", {"dim": 2, "sets": [{"kind": "l_shape"}] * 2})
        _write_doc(tmp_path, "one.json", {"dim": 2, "sets": [{"kind": "circle"}]})
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        code, out, err = _run(capsys, *argv, f"--h={value}")
        assert code == 2 and out == ""
        assert err == f"error: --h must be finite, got {float(value)}\n"

    def test_finite_bad_h_keeps_its_message(self, tmp_path, capsys):
        doc = _write_doc(tmp_path, "pair.json", {"dim": 2, "sets": [{"kind": "l_shape"}] * 2})
        code, _, err = _run(capsys, "bitmap", doc, "--h", "0")
        assert code == 2 and err == "error: --h must be positive, got 0.0\n"
        code, _, err = _run(capsys, "verify", "main", doc, "--h", "-0.1")
        assert code == 2 and err == "error: resolutions must be positive, got -0.1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "main", "pair.json", "--h", "1e308"],
            ["verify", "main", "listed.json"],
            ["verify", "c1", "one.json", "--h", "1e308"],
            ["verify", "cantor", "--h", "1e308"],
        ],
    )
    def test_overflowing_threshold_exits_two_before_rasterizing(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # n * (eps + h) is infinite, so no cube radius can be counted from it.
        pair = {"dim": 2, "sets": [{"kind": "l_shape"}] * 2}
        _write_doc(tmp_path, "pair.json", pair)
        _write_doc(tmp_path, "listed.json", {**pair, "resolutions": [1e308]})
        _write_doc(tmp_path, "one.json", {"dim": 2, "sets": [{"kind": "circle"}]})

        def no_raster(*args, **kwargs):
            raise AssertionError("rasterized")

        monkeypatch.setattr(verify_mod, "rasterize", no_raster)
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: resolution h=1e+308 is too large: threshold n*(eps+h) overflows\n"

    @pytest.mark.parametrize("radius, h", [(1e200, "0.02"), (1e307, "0.005")])
    @pytest.mark.parametrize("command", [["verify", "main"], ["bitmap"]], ids=["main", "bitmap"])
    def test_extent_past_int64_exits_two(self, tmp_path, capsys, command, radius, h):
        doc = _write_doc(
            tmp_path, "huge.json", {"dim": 2, "sets": [{"kind": "circle", "radius": radius}]}
        )
        code, out, err = _run(capsys, *command, doc, "--h", h)
        assert code == 2 and out == ""
        assert err.startswith("error: grid axis ") and "more than int64 holds" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "entry, h, count",
        [
            ({"kind": "l_shape"}, "1e-17", (10**17 + 1) ** 2),
            ({"kind": "circle", "radius": 1e9}, "0.02", (10**11 + 1) ** 2),
        ],
        ids=["l-shape", "circle"],
    )
    @pytest.mark.parametrize("command", [["verify", "main"], ["bitmap"]], ids=["main", "bitmap"])
    def test_grid_past_one_array_exits_two(self, tmp_path, capsys, command, entry, h, count):
        # Every axis fits int64 but their product does not fit one array:
        # refused by name before numpy is asked for the array.  ``verify
        # main`` reads h from the document's resolutions.
        doc = {"dim": 2, "sets": [entry]}
        flags = ["--h", h]
        if command == ["verify", "main"]:
            doc["resolutions"] = [float(h)]
            flags = []
        code, out, err = _run(capsys, *command, _write_doc(tmp_path, "big.json", doc), *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: grid of extents ") and f" has {count} cells" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_c1_requires_single_set(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path, "two.json", {"dim": 2, "sets": [{"kind": "circle"}] * 2}
        )
        code, _, err = _run(capsys, "verify", "c1", doc)
        assert code == 2 and "exactly one set" in err

    def test_c1_circle_passes(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path, "circle.json", {"dim": 2, "sets": [{"kind": "circle", "budget": 400}]}
        )
        code, out, _ = _run(
            capsys, "verify", "c1", doc, "--h", "0.08", "--h", "0.04", "--directions", "20"
        )
        assert code == 0
        report = json.loads(out)
        assert report["scenario"] == "corollary-equivalences"
        assert report["passed"] is True

    def test_cantor_scenario(self, capsys):
        code, out, _ = _run(capsys, "verify", "cantor", "--depth", "3", "--h", "0.05", "--h", "0.025")
        assert code == 0
        report = json.loads(out)
        assert report["scenario"] == "cantor-example"
        assert report["inputs"]["depth"] == 3

    def test_hl_scenario_and_bad_trials(self, capsys):
        code, out, _ = _run(capsys, "verify", "hl", "--trials", "10", "--seed", "4")
        assert code == 0
        assert json.loads(out)["scenario"] == "separator-suite"
        code, _, err = _run(capsys, "verify", "hl", "--trials", "0")
        assert code == 2 and "trials" in err

    def test_hl_negative_seed_exits_two_naming_the_seed(self, capsys):
        code, out, err = _run(capsys, "verify", "hl", "--trials", "5", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: seed must be >= 0, got -1"]

    def test_out_file_written_atomically(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = _run(
            capsys, "verify", "hl", "--trials", "5", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert report["passed"] is True
        leftovers = [p for p in tmp_path.iterdir() if p.name != "report.json"]
        assert leftovers == []


class TestVerifyBitmaps:
    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran before --bitmap was refused")

    @pytest.mark.parametrize(
        "dim, scenario, pipeline",
        [
            (1, "main", "verify_theorem_main"),
            (4, "main", "verify_theorem_main"),
            (1, "c1", "verify_corollary_c1"),
            (4, "c1", "verify_corollary_c1"),
            (1, "claim", "shift_construction"),
        ],
    )
    def test_unsupported_dimension_refused_before_pipeline(
        self, tmp_path, capsys, monkeypatch, dim, scenario, pipeline
    ):
        # The CLI calls c1's scenario; main's and claim's pipelines run
        # inside their verify scenarios.
        module = cli_mod if pipeline == "verify_corollary_c1" else verify_mod
        monkeypatch.setattr(module, pipeline, self._refuse)
        points = [[0.0] * dim, [1.0] + [0.0] * (dim - 1)]
        doc = _write_doc(
            tmp_path, "seg.json", {"dim": dim, "sets": [{"points": points, "density": 0.0}]}
        )
        prefix = tmp_path / "pix"
        code, out, err = _run(
            capsys, "verify", scenario, doc, "--h", "0.1", "--bitmap", str(prefix)
        )
        assert code == 2
        assert out == ""
        assert f"bitmap supports 2-D and sliced 3-D grids, not {dim}-D" in err
        assert [p.name for p in tmp_path.iterdir()] == ["seg.json"]

    @staticmethod
    def _assert_pbms(prefix, sets, resolutions):
        # Oracle from public pieces: the sweep's rotation, then each distinct
        # set moved to the origin, rotated, rasterized and summed.
        rotation = verify_theorem_main(sets, resolutions).rotation
        for h in resolutions:
            rasters = {}
            for k in sets:
                if id(k) not in rasters:
                    moved = k.translated(-k.points[0]).linear_image(rotation.T)
                    rasters[id(k)] = rasterize(moved, auto_geometry(moved.points, h))
            occupancy = minkowski_sum([rasters[id(k)] for k in sets]).occupancy
            if occupancy.ndim == 3:
                occupancy = occupancy[:, :, occupancy.shape[2] // 2]
            want = render_pbm(occupancy)
            assert (prefix.parent / f"{prefix.name}-h{h:g}.pbm").read_text() == want

    def test_main_bitmaps_render_the_sum_raster(self, tmp_path, capsys):
        obj = {
            "dim": 2,
            "sets": [{"kind": "l_shape", "budget": 42}, {"kind": "moment_curve", "budget": 41}],
        }
        doc = _write_doc(tmp_path, "pair.json", obj)
        prefix = tmp_path / "pix"
        code, _, _ = _run(
            capsys, "verify", "main", doc, "--h", "0.1", "--h", "0.05", "--bitmap", str(prefix)
        )
        assert code == 0
        self._assert_pbms(prefix, parse_document(obj).sets, (0.1, 0.05))

    def test_main_bitmaps_slice_three_dimensional_sums(self, tmp_path, capsys):
        obj = {"dim": 3, "sets": [{"kind": "l_shape", "dim": 3, "budget": 63}]}
        doc = _write_doc(tmp_path, "tripod.json", obj)
        prefix = tmp_path / "pix"
        code, _, _ = _run(capsys, "verify", "main", doc, "--h", "0.1", "--bitmap", str(prefix))
        assert code == 0
        self._assert_pbms(prefix, parse_document(obj).sets * 3, (0.1,))

    def test_claim_bitmaps_render_the_shifted_sum(self, tmp_path, capsys):
        obj = {"dim": 2, "sets": [{"kind": "l_shape", "budget": 82}] * 2, "construction": {"s": 1}}
        doc = _write_doc(tmp_path, "pair.json", obj)
        prefix = tmp_path / "pix"
        code, _, _ = _run(
            capsys, "verify", "claim", doc, "--h", "0.1", "--h", "0.05", "--bitmap", str(prefix)
        )
        assert code == 0
        sets = parse_document(obj).sets
        construction = shift_construction(sets, s=1)
        for h in (0.1, 0.05):
            want = render_pbm(shifted_sum_raster(construction, sets, h).occupancy)
            assert (tmp_path / f"pix-h{h:g}.pbm").read_text() == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["main", "circle.json", "--h", "0.1", "--h", "0.05"],
            ["c1", "circle.json", "--h", "0.1", "--directions", "20"],
            ["cantor", "--depth", "3", "--h", "0.05"],
            ["claim", "pair.json", "--h", "0.1", "--h", "0.05"],
        ],
    )
    def test_bitmaps_add_no_sum(self, tmp_path, capsys, monkeypatch, argv):
        _write_doc(tmp_path, "circle.json", {"dim": 2, "sets": [{"kind": "circle", "budget": 90}]})
        _write_doc(
            tmp_path,
            "pair.json",
            {"dim": 2, "sets": [{"kind": "l_shape", "budget": 82}] * 2, "construction": {"s": 1}},
        )
        calls = []

        def counted(rasters):
            calls.append(len(rasters))
            return minkowski_sum(rasters)

        def counted_packed(rasters):
            calls.append(len(rasters))
            return packed_minkowski_sum(rasters)

        # The sweep and the bitmap command sum through the packed entry
        # point, the rest through minkowski_sum; both count.
        monkeypatch.setattr(sums_mod, "minkowski_sum", counted)
        for module in (cli_mod, verify_mod):
            monkeypatch.setattr(module, "packed_minkowski_sum", counted_packed)
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        counts = []
        for extra in ([], ["--bitmap", str(tmp_path / "pix")]):
            calls.clear()
            _run(capsys, "verify", *argv, *extra)
            counts.append(len(calls))
        assert counts[0] > 0 and counts[1] == counts[0]

    def test_c1_bitmaps_render_the_sum_raster(self, tmp_path, capsys):
        obj = {"dim": 2, "sets": [{"kind": "circle", "budget": 400}]}
        doc = _write_doc(tmp_path, "circle.json", obj)
        prefix = tmp_path / "pix"
        code, _, _ = _run(
            capsys, "verify", "c1", doc, "--h", "0.08", "--h", "0.04",
            "--directions", "20", "--bitmap", str(prefix),
        )
        assert code == 0
        self._assert_pbms(prefix, parse_document(obj).sets * 2, (0.08, 0.04))

    def test_cantor_bitmaps_render_the_sum_raster(self, tmp_path, capsys):
        prefix = tmp_path / "pix"
        code, _, _ = _run(
            capsys, "verify", "cantor", "--depth", "3", "--h", "0.05", "--h", "0.025",
            "--bitmap", str(prefix),
        )
        assert code == 0
        self._assert_pbms(prefix, [cantor_graph(3)] * 2, (0.05, 0.025))


class TestReportPath:
    """Every verify subcommand writes its scenario's VerificationReport."""

    KEYS = ["version", "scenario", "inputs", "checks", "evidence", "passed", "elapsed_seconds"]
    PAIR = {"dim": 2, "sets": [{"kind": "l_shape", "budget": 82}] * 2, "construction": {"s": 1}}
    CIRCLE = {"dim": 2, "sets": [{"kind": "circle", "budget": 90}]}
    ARGV = {
        "main": ["main", "pair.json", "--h", "0.05", "--h", "0.1"],
        "c1": ["c1", "circle.json", "--h", "0.1", "--directions", "20"],
        "cantor": ["cantor", "--depth", "3", "--h", "0.05", "--h", "0.1", "--h", "0.05"],
        "hl": ["hl", "--trials", "5", "--seed", "2"],
        "claim": ["claim", "pair.json", "--h", "0.05", "--h", "0.1"],
    }

    @staticmethod
    def _library_report(name):
        sets = parse_document(TestReportPath.PAIR).sets
        circle = parse_document(TestReportPath.CIRCLE).sets[0]
        return {
            "main": lambda: verify_mod.verify_theorem_report(sets, [0.05, 0.1]),
            "c1": lambda: verify_mod.verify_corollary_c1(circle, 20, [0.1]),
            "cantor": lambda: verify_mod.verify_example_cantor(3, [0.05, 0.1, 0.05]),
            "hl": lambda: verify_mod.verify_hl_suite(5, 2),
            "claim": lambda: verify_mod.verify_lattice_claim(sets, 1, [0.05, 0.1]),
        }[name]()

    @pytest.mark.parametrize("name", ["main", "c1", "cantor", "hl", "claim"])
    def test_report_matches_the_library_scenario(self, tmp_path, capsys, name):
        _write_doc(tmp_path, "pair.json", self.PAIR)
        _write_doc(tmp_path, "circle.json", self.CIRCLE)
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in self.ARGV[name]]
        code, out, _ = _run(capsys, "verify", *argv)
        assert code == 0
        report = json.loads(out)
        assert list(report) == self.KEYS
        rep = self._library_report(name)
        want = json.loads(json.dumps(cli_mod._jsonable(rep.payload())))
        assert report["checks"] == want["checks"]
        assert report["evidence"] == want["evidence"]
        # Where a sweep ran, the echo lists the resolutions it ran.
        swept = [h for h, _ in rep.sums]
        if name != "hl":
            assert report["inputs"]["resolutions"] == swept == sorted(set(swept), reverse=True)
        if name == "main":
            assert swept == [e["h"] for e in report["evidence"]["resolutions"]]
        if name == "claim":
            assert swept == [e["h"] for e in report["evidence"]["per_resolution"]]
        if name in ("c1", "cantor", "hl"):
            assert report["evidence"] == {}
        # The document, when there is one, is echoed with the other inputs.
        echoed = {k: v for k, v in report["inputs"].items() if k != "document"}
        assert echoed == want["inputs"]


class TestDeterminism:
    @staticmethod
    def _strip_clock(text):
        data = json.loads(text)
        del data["elapsed_seconds"]
        return json.dumps(data, sort_keys=True)

    def test_reports_and_bitmaps_reproduce(self, tmp_path, capsys):
        doc = _write_doc(
            tmp_path,
            "circle.json",
            {"dim": 2, "sets": [{"kind": "circle", "budget": 90}], "seed": 7},
        )
        runs = []
        for tag in ("a", "b"):
            out_path = tmp_path / f"report-{tag}.json"
            prefix = tmp_path / f"pix-{tag}"
            code = main(
                [
                    "verify",
                    "main",
                    doc,
                    "--h",
                    "0.1",
                    "--out",
                    str(out_path),
                    "--bitmap",
                    str(prefix),
                ]
            )
            assert code == 0
            runs.append((out_path.read_text(), (tmp_path / f"pix-{tag}-h0.1.pbm").read_bytes()))
        capsys.readouterr()
        assert self._strip_clock(runs[0][0]) == self._strip_clock(runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_hl_reports_reproduce(self, tmp_path, capsys):
        texts = []
        for tag in ("a", "b"):
            out_path = tmp_path / f"hl-{tag}.json"
            assert main(["verify", "hl", "--trials", "6", "--seed", "2", "--out", str(out_path)]) == 0
            texts.append(out_path.read_text())
        capsys.readouterr()
        assert self._strip_clock(texts[0]) == self._strip_clock(texts[1])


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = _run(capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.82 TiB")

        monkeypatch.setattr(verify_mod, "verify_theorem_main", exhausted)
        doc = _write_doc(tmp_path, "square.json", FULL_SQUARE)
        code, _, err = _run(capsys, "verify", "main", doc, "--h", "0.5")
        assert code == 2
        assert err.startswith("error: out of memory") and "1.82 TiB" in err

    def test_fft_precision_refusal_exits_two(self, tmp_path, capsys, monkeypatch):
        # The moment-curve pair sums on the FFT route at h = 0.02; with an
        # exact range of one pair its first fold refuses.
        code, out, _ = _run(capsys, "gallery", "moment-curve", "--budget", "201")
        assert code == 0
        doc = _write_doc(tmp_path, "moment.json", json.loads(out))
        monkeypatch.setattr(grid_mod, "_FFT_EXACT_LIMIT", 1)
        report = tmp_path / "report.json"
        code, _, err = _run(capsys, "verify", "main", doc, "--h", "0.02", "--out", str(report))
        assert code == 2
        assert err.startswith("error: ") and "exact float64 range" in err
        assert not report.exists()

    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only.  A fresh interpreter that cannot
        # import it runs each subcommand; the moment-curve pair takes the FFT
        # route at both steps of its ladder.
        script = textwrap.dedent(
            """
            import contextlib, io, json, sys
            from pathlib import Path
            sys.modules["scipy"] = None
            from continuum_sums.cli import main

            def gallery(name, *argv):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main(["gallery", *argv]) == 0
                Path(name).write_text(out.getvalue())
                return name

            moment = gallery("moment.json", "moment-curve", "--budget", "201")
            circle = gallery("circle.json", "circle", "--budget", "360")
            lshape = json.loads(Path(gallery("l.json", "l-shape", "--budget", "82")).read_text())
            Path("pair.json").write_text(json.dumps({"dim": 2, "sets": lshape["sets"] * 2}))
            runs = [
                ["verify", "main", moment, "--h", "0.02", "--h", "0.01", "--out", "main.json"],
                ["verify", "cantor", "--depth", "2", "--out", "cantor.json"],
                ["verify", "c1", circle, "--h", "0.1", "--h", "0.05", "--out", "c1.json"],
                ["verify", "hl", "--trials", "20", "--out", "hl.json"],
                ["verify", "claim", "pair.json", "--s", "1", "--h", "0.1", "--h", "0.05",
                 "--out", "claim.json"],
                ["bitmap", moment, "--h", "0.05", "--out", "moment.pbm"],
            ]
            print(json.dumps([main(argv) for argv in runs]))
            """
        )
        path = [str(Path(cli_mod.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0] * 6, done.stderr
