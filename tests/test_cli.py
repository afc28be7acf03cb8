import json

import numpy as np
import pytest

from cforge.cli import main
from cforge.fourier_boundary import load_curve

from contours import corner_contour


def write_samples(path, samples, with_t=True):
    with open(path, "w", encoding="utf-8") as fh:
        if with_t:
            fh.write("t,re,im\n")
            t = 2 * np.pi * np.arange(len(samples)) / len(samples)
            for tt, z in zip(t, samples):
                fh.write(f"{tt},{z.real},{z.imag}\n")
        else:
            fh.write("re,im\n")
            for z in samples:
                fh.write(f"{z.real},{z.imag}\n")


def circle_config(tmp_path, **overrides):
    payload = {
        "boundary": {"coeffs": [{"k": 1, "re": 1.0, "im": 0.0}]},
        "corner": None,
        "slender": None,
        "M": 16,
        "P": 128,
        "D": 8,
        "n_iter": 8,
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


CORNER = {"t0": 0.0, "k": 1, "N": 2}
NAN_ELLIPSE = {"coeffs": [{"k": -1, "re": 0.375, "im": 0.0},
                          {"k": 1, "re": float("nan"), "im": 0.0}]}
NOT_FINITE = "curve coefficients must be finite"


class TestFit:
    def test_circle_samples(self, tmp_path):
        t = 2 * np.pi * np.arange(64) / 64
        write_samples(tmp_path / "s.csv", np.exp(1j * t))
        code = main(
            ["fit", str(tmp_path / "s.csv"), "-m", "0", "-n", "1",
             "--out", str(tmp_path), "--name", "circ"]
        )
        assert code == 0
        curve = load_curve(str(tmp_path / "circ.csv"))
        assert curve.coeff(1) == pytest.approx(1.0, abs=1e-14)

    def test_ellipse_coefficients(self, tmp_path):
        t = 2 * np.pi * np.arange(64) / 64
        write_samples(tmp_path / "e.csv", np.cos(t) + 0.25j * np.sin(t), with_t=False)
        code = main(
            ["fit", str(tmp_path / "e.csv"), "-m", "1", "-n", "1",
             "--out", str(tmp_path), "--name", "ell"]
        )
        assert code == 0
        curve = load_curve(str(tmp_path / "ell.csv"))
        assert curve.coeff(1) == pytest.approx(0.625, abs=1e-14)
        assert curve.coeff(-1) == pytest.approx(0.375, abs=1e-14)

    def test_underdetermined_exit_3(self, tmp_path):
        write_samples(tmp_path / "tiny.csv", np.array([1.0, 1j, -1.0]), with_t=False)
        code = main(
            ["fit", str(tmp_path / "tiny.csv"), "-m", "4", "-n", "4",
             "--out", str(tmp_path)]
        )
        assert code == 3

    def test_malformed_exit_2(self, tmp_path):
        (tmp_path / "bad.csv").write_text("x,y\n1,2\n")
        code = main(
            ["fit", str(tmp_path / "bad.csv"), "-m", "1", "-n", "1",
             "--out", str(tmp_path)]
        )
        assert code == 2

    def test_non_finite_sample_exit_2(self, tmp_path, capsys):
        # the CSV reader accepts nan; the fitted curve refuses it
        samples = np.exp(2j * np.pi * np.arange(64) / 64)
        samples[3] = complex(np.nan, 0.0)
        write_samples(tmp_path / "s.csv", samples, with_t=False)
        out = tmp_path / "fit"
        code = main(["fit", str(tmp_path / "s.csv"), "-m", "1", "-n", "1",
                     "--out", str(out)])
        assert code == 2
        assert NOT_FINITE in capsys.readouterr().err
        assert not (out / "curve.csv").exists()


class TestMap:
    def test_circle_manifest(self, tmp_path):
        out = tmp_path / "run"
        code = main(["map", "--config", circle_config(tmp_path),
                     "--out", str(out), "--render"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["sup_deviation"] < 1e-10
        assert manifest["diagnostics"]["univalence_winding"] == 0
        for key in ("core", "core_meta", "deviation", "svg"):
            assert manifest["outputs"][key] is not None

    def test_rerun_from_manifest_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg = circle_config(tmp_path)
        assert main(["map", "--config", cfg, "--out", str(out1), "--render"]) == 0
        assert main(
            ["map", "--config", str(out1 / "manifest.json"),
             "--out", str(out2), "--render"]
        ) == 0
        assert (out1 / "core.csv").read_bytes() == (out2 / "core.csv").read_bytes()
        assert (out1 / "net.svg").read_bytes() == (out2 / "net.svg").read_bytes()

    def test_ellipse_inverse_on_2P_and_rerun_identical(self, tmp_path):
        # the 4:1 ellipse's correspondence certifies on its first table, 2P
        ellipse = {"coeffs": [{"k": -1, "re": 0.375, "im": 0.0},
                              {"k": 1, "re": 0.625, "im": 0.0}]}
        cfg = circle_config(tmp_path, boundary=ellipse, M=75, P=300, D=64)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["map", "--config", cfg, "--out", str(out1)]) == 0
        solver = json.loads((out1 / "manifest.json").read_text())["provenance"]["solver"]
        assert solver["inverse_nodes"] == 2 * 300
        assert solver["inverse_residual"] < 1e-10
        assert main(
            ["map", "--config", str(out1 / "manifest.json"), "--out", str(out2)]
        ) == 0
        assert (out1 / "core.csv").read_bytes() == (out2 / "core.csv").read_bytes()
        rerun = json.loads((out2 / "manifest.json").read_text())["provenance"]["solver"]
        assert rerun["inverse_nodes"] == solver["inverse_nodes"]
        assert rerun["inverse_residual"] == solver["inverse_residual"]

    def test_corner_config_roundtrip(self, tmp_path):
        t = 2 * np.pi * np.arange(2048) / 2048
        z = corner_contour(t, 1, 2)
        payload = {
            "boundary": {"samples": [[v.real, v.imag] for v in z]},
            "corner": {"t0": 0.0, "k": 1, "N": 2},
            "M": 48,
            "P": 384,
            "D": 30,
            "n_iter": 8,
            "refit_degree": 32,
        }
        cfg = tmp_path / "corner.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "cornerrun"
        assert main(["map", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        angle = manifest["diagnostics"]["corner_angle_measured"]
        assert abs(angle - np.pi / 2) < 0.05

    def test_solver_failure_exit_4(self, tmp_path):
        # boundary not enclosing the origin and with zero mean cannot be
        # auto-centred: the winding check fails inside the solve
        payload = {
            "boundary": {
                "coeffs": [
                    {"k": 1, "re": 0.2, "im": 0.0},
                    {"k": 2, "re": 1.0, "im": 0.0},
                ]
            },
            "M": 8,
            "P": 64,
            "D": 4,
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload))
        code = main(["map", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 4

    def test_pipeline_failure_exit_5(self, tmp_path):
        payload = {
            "boundary": {
                "coeffs": [
                    {"k": -1, "re": 0.375, "im": 0.0},
                    {"k": 1, "re": 0.625, "im": 0.0},
                ]
            },
            "slender": {"a_re": 0.0, "a_im": 0.0},  # inside the ellipse
            "M": 16,
            "P": 128,
            "D": 8,
        }
        cfg = tmp_path / "bad2.json"
        cfg.write_text(json.dumps(payload))
        code = main(["map", "--config", str(cfg), "--out", str(tmp_path / "o2")])
        assert code == 5

    @pytest.mark.parametrize("slender", [None, {}], ids=["smooth", "slender"])
    def test_sampled_refit_failure_exit_5(self, tmp_path, capsys, slender):
        # the centred k/N = 1/2 corner contour is no degree-4 curve
        t = 2 * np.pi * np.arange(1024) / 1024
        z = corner_contour(t, 1, 2)
        z = z - z.mean()
        cfg = circle_config(
            tmp_path,
            boundary={"samples": [[v.real, v.imag] for v in z]},
            slender=slender,
            refit_degree=4,
        )
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o3")]) == 5
        assert "sampled boundary refit at degree 4" in capsys.readouterr().err
        assert not (tmp_path / "o3" / "manifest.json").exists()

    def test_default_a_at_a_cusp_exit_2(self, tmp_path, capsys):
        # the cardioid e^{it} + e^{2it}/2 has z'(pi) = 0 on the sample grid
        coeffs = [{"k": 1, "re": 1.0, "im": 0.0}, {"k": 2, "re": 0.5, "im": 0.0}]
        cfg = circle_config(tmp_path, boundary={"coeffs": coeffs}, slender={})
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o3")]) == 2
        assert "cusp" in capsys.readouterr().err

    def test_no_injective_anchor_candidate_exit_5(self, tmp_path, monkeypatch, capsys):
        from cforge import geometry_checks

        monkeypatch.setattr(geometry_checks, "univalence_check", lambda core, grid: 3)
        coeffs = [{"k": -1, "re": 0.375, "im": 0.0}, {"k": 1, "re": 0.625, "im": 0.0}]
        cfg = circle_config(
            tmp_path, boundary={"coeffs": coeffs}, slender={},
            M=32, P=256, D=64, n_iter=20,
        )
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o5")]) == 5
        assert "locally injective" in capsys.readouterr().err

    def test_slender_8_to_1_exit_5_without_warnings(self, tmp_path, capsys):
        # Newton for the outer anchors' preimages leaves the solved disk;
        # every candidate is rejected instead of overflowing
        coeffs = [{"k": -1, "re": 0.4375, "im": 0.0}, {"k": 1, "re": 0.5625, "im": 0.0}]
        cfg = circle_config(
            tmp_path, boundary={"coeffs": coeffs}, slender={},
            M=150, P=600, D=2000, n_iter=60,
        )
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o8")]) == 5
        err = capsys.readouterr().err
        assert "no anchor candidate gave a locally injective core" in err
        assert "Warning" not in err

    def test_not_locally_injective_exit_5_writes_nothing(self, tmp_path, capsys):
        # the smooth 8:1 ellipse at D=4000: the core's derivative has 3998
        # zeros in the disk
        coeffs = [{"k": -1, "re": 0.4375, "im": 0.0}, {"k": 1, "re": 0.5625, "im": 0.0}]
        cfg = circle_config(tmp_path, boundary={"coeffs": coeffs}, M=150, P=600, D=4000)
        out = tmp_path / "o81"
        assert main(["map", "--config", cfg, "--out", str(out)]) == 5
        assert "core winding 3998: not locally injective" in capsys.readouterr().err
        assert not (out / "core.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_oversized_grid_exit_2(self, tmp_path, monkeypatch):
        from cforge import reparam_solver

        def no_blocks(curve, P):
            raise AssertionError("grid blocks allocated")

        monkeypatch.setattr(reparam_solver, "_kernel_blocks", no_blocks)
        cfg = circle_config(tmp_path, M=8000, P=32000)
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "big")]) == 2

    def test_grid_below_256_rejected_before_build(self, tmp_path, monkeypatch, capsys):
        from cforge import cli

        def no_build(cfg):
            raise AssertionError("map built")

        monkeypatch.setattr(cli, "_build_map", no_build)
        out = str(tmp_path / "g")
        assert main(["map", "--config", circle_config(tmp_path), "--out", out,
                     "--grid", "255"]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("sampled", [False, True])
    def test_oversized_deviation_grid_rejected_before_build(
        self, tmp_path, monkeypatch, capsys, sampled
    ):
        # 10^8 would ask for 1.6e9 target samples (25.6 GB) of a sampled
        # boundary and 2e8 of a Fourier one: refused before anything is built
        from cforge import cli

        def no_build(cfg):
            raise AssertionError("map built")

        monkeypatch.setattr(cli, "_build_map", no_build)
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        bnd = {"boundary": {"samples": [[v.real, v.imag] for v in z]}} if sampled else {}
        out = tmp_path / "g"
        assert main(["map", "--config", circle_config(tmp_path, **bnd), "--out",
                     str(out), "--grid", "100000000"]) == 2
        assert "GiB cap" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(
            ["map", "--config", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "o3")]
        ) == 2


    def test_coeff_without_im_exit_2(self, tmp_path, capsys):
        cfg = circle_config(
            tmp_path, boundary={"coeffs": [{"k": 1, "re": 1.0}]}
        )
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o4")]) == 2
        assert "'im'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["t0", "k", "N"])
    def test_corner_without_field_exit_2(self, tmp_path, capsys, key):
        corner = {"t0": 0.0, "k": 1, "N": 2}
        del corner[key]
        cfg = circle_config(tmp_path, corner=corner)
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o5")]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("k", 1.5), ("N", 2.9), ("k", "1")])
    def test_corner_non_integral_exit_2(self, tmp_path, capsys, key, value):
        corner = {"t0": 0.0, "k": 1, "N": 2, key: value}
        cfg = circle_config(tmp_path, corner=corner)
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o5")]) == 2
        assert "corner k and N must be integers" in capsys.readouterr().err
        assert not (tmp_path / "o5" / "manifest.json").exists()

    @pytest.mark.parametrize("slender", [None, {}])
    @pytest.mark.parametrize("grid", [0, -5])
    def test_sample_grid_not_positive_exit_2(self, tmp_path, capsys, slender, grid):
        cfg = circle_config(tmp_path, slender=slender, sample_grid=grid)
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o6")]) == 2
        assert "sample_grid must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("slender", [None, {}])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sample_exit_2(self, tmp_path, capsys, slender, bad):
        t = 2 * np.pi * np.arange(64) / 64
        samples = [[np.cos(v), 0.25 * np.sin(v)] for v in t]
        samples[5][0] = bad
        cfg = circle_config(tmp_path, boundary={"samples": samples}, slender=slender)
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o7")]) == 2
        assert "samples must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, named",
        [
            # JSON's NaN reaches the curve, which refuses it before any solve
            ({"boundary": NAN_ELLIPSE}, NOT_FINITE),
            ({"boundary": NAN_ELLIPSE, "slender": {}}, NOT_FINITE),
            ({"boundary": NAN_ELLIPSE, "corner": CORNER}, NOT_FINITE),
            ({"slender": {"a_re": np.nan}}, "slender a_re must be finite"),
            ({"slender": {"a_re": np.inf}}, "slender a_re must be finite"),
            # an integer beyond float range is no finite number either
            ({"slender": {"a_re": 10**400}}, "malformed config: int too large"),
            ({"corner": {**CORNER, "t0": 10**400}}, "malformed config: int too large"),
            ({"corner": {**CORNER, "t0": np.nan}}, "corner t0 must be finite"),
            ({"corner": {**CORNER, "t0": np.inf}}, "corner t0 must be finite"),
            ({"slender": {"a_re": -2.0}, "anchor": [np.nan, 0.0]},
             "anchor must be finite"),
            ({"slender": {}, "n_iter": 0}, "n_iter must be >= 1"),
            ({"corner": CORNER, "n_iter": 0}, "n_iter must be >= 1"),
        ],
        ids=["coeff-smooth", "coeff-slender", "coeff-corner", "a-nan", "a-inf",
             "a-huge", "t0-huge", "t0-nan", "t0-inf", "anchor-nan", "n_iter-slender",
             "n_iter-corner"],
    )
    def test_bad_number_exit_2(self, tmp_path, capsys, overrides, named):
        cfg = circle_config(tmp_path, **overrides)
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o7")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o7" / "manifest.json").exists()

    def test_singular_system_exit_4(self, tmp_path, monkeypatch, capsys):
        from dataclasses import replace

        from cforge import reparam_solver

        assemble = reparam_solver.assemble_system

        def singular(*args, **kwargs):
            system = assemble(*args, **kwargs)
            return replace(system, A=np.zeros_like(system.A))

        monkeypatch.setattr(reparam_solver, "assemble_system", singular)
        out = tmp_path / "o9"
        cfg = circle_config(tmp_path)
        assert main(["map", "--config", cfg, "--out", str(out)]) == 4
        assert "numerically singular (condition inf)" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("anchor", [4.0, "pinned", True])
    def test_malformed_anchor_exit_2(self, tmp_path, capsys, anchor):
        cfg = circle_config(tmp_path, slender={"a_re": -2.0}, anchor=anchor)
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o8")]) == 2
        assert "anchor must be null or [re, im]" in capsys.readouterr().err
        assert not (tmp_path / "o8" / "manifest.json").exists()


    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"Dee": 5}, "'Dee'"),
            ({"slender": {"a_r": -1.0}}, "'a_r'"),
            ({"slender": {"a": [-1.04, 0]}}, "'a'"),
            ({"corner": {"t0": 0.0, "k": 1, "N": 2, "kk": 1}}, "'kk'"),
            ({"boundary": {"coeffs": [{"k": 1, "re": 1.0, "im": 0.0}],
                           "file": "curve.csv"}}, "['coeffs', 'file']"),
        ],
    )
    def test_unknown_key_exit_2(self, tmp_path, capsys, overrides, named):
        cfg = circle_config(tmp_path, **overrides)
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "ok")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and named in err
        assert not (tmp_path / "ok" / "manifest.json").exists()

    def test_inline_duplicate_index_exit_2(self, tmp_path, capsys):
        rows = [(1, 1.0), (1, 0.5), (-1, 0.2)]
        coeffs = [{"k": k, "re": v, "im": 0.0} for k, v in rows]
        cfg = circle_config(tmp_path, boundary={"coeffs": coeffs})
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "dk")]) == 2
        assert "duplicate coefficient index" in capsys.readouterr().err

    def test_inline_sample_not_a_pair_exit_2(self, tmp_path, capsys):
        t = 2 * np.pi * np.arange(64) / 64
        samples = [[np.cos(v), 0.25 * np.sin(v)] for v in t]
        samples[5] = [0, 1, 5]
        cfg = circle_config(tmp_path, boundary={"samples": samples})
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "sp")]) == 2
        assert "samples must be [re, im] pairs" in capsys.readouterr().err

    def test_manifest_config_is_the_pipeline_snapshot(self, tmp_path):
        out = tmp_path / "snap"
        assert main(["map", "--config", circle_config(tmp_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == manifest["provenance"]["config"]

    def test_slender_a_im_without_a_re_exit_2(self, tmp_path, capsys):
        cfg = circle_config(tmp_path, slender={"a_im": 1.5})
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "o9")]) == 2
        assert "a_im needs a_re" in capsys.readouterr().err
        assert not (tmp_path / "o9" / "manifest.json").exists()


class TestVerify:
    def test_single_suite(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["verify", "cornergap", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["suites"][0]["passed"]

    def test_seed_recorded(self, tmp_path):
        out = tmp_path / "rep.json"
        main(["verify", "lemma2", "--seed", "7", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["seed"] == 7
        assert rep["suites"][0]["seed"] == 7


class TestRenderReport:
    def test_render_from_manifest(self, tmp_path):
        out = tmp_path / "run"
        main(["map", "--config", circle_config(tmp_path), "--out", str(out)])
        svg = tmp_path / "net.svg"
        assert main(
            ["render", "--manifest", str(out / "manifest.json"),
             "--out", str(svg), "--spokes", "6", "--circles", "3"]
        ) == 0
        text = svg.read_text()
        assert text.count("<polyline") == 6 + 3 + 1

    def test_report_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["map", "--config", circle_config(tmp_path), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--manifest", str(out / "manifest.json")]) == 0
        text = capsys.readouterr().out
        assert "sup_deviation" in text
        assert "pipeline        : smooth" in text
        # the unit circle's kernel vanishes: M = 16 is assembled on 4M = 64,
        # and its inverse certifies on the first table, 2P = 256 nodes
        manifest = json.loads((out / "manifest.json").read_text())
        solver = manifest["provenance"]["solver"]
        tail, residual = solver["kernel_tail"], solver["inverse_residual"]
        assert (
            f"quadrature      : assembly_P=64 kernel_tail={tail} "
            f"inverse_nodes=256 inverse_residual={residual}\n"
        ) in text
        assert "anchor_search" not in text

    @pytest.mark.parametrize("anchor", [None, [4.0, 0.0]], ids=["search", "pinned"])
    def test_report_prints_the_anchor_search(self, tmp_path, capsys, anchor):
        # the 4:1 ellipse at this size rejects fractions 0 and 0.125 (their
        # cores wind 28 and 14 times) and keeps 0.25
        coeffs = [{"k": -1, "re": 0.375, "im": 0.0}, {"k": 1, "re": 0.625, "im": 0.0}]
        cfg = circle_config(
            tmp_path, boundary={"coeffs": coeffs}, slender={},
            M=32, P=256, D=64, n_iter=20, anchor=anchor,
        )
        if anchor is not None:  # the unit circle about a = -2, pinned
            cfg = circle_config(tmp_path, slender={"a_re": -2.0}, anchor=anchor)
        out = tmp_path / "run"
        assert main(["map", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--manifest", str(out / "manifest.json")]) == 0
        expect = "candidates=5 rejected=2 frac=0.25" if anchor is None else (
            "candidates=0 rejected=0 frac=pinned"
        )
        assert f"anchor_search   : {expect}\n" in capsys.readouterr().out


    @pytest.mark.parametrize("key", ["outputs", "stages"])
    def test_render_manifest_without_key_exit_2(self, tmp_path, capsys, key):
        out = tmp_path / "run"
        main(["map", "--config", circle_config(tmp_path), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest[key]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(
            ["render", "--manifest", str(broken), "--out", str(tmp_path / "n.svg")]
        ) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "n.svg").exists()

    @pytest.mark.parametrize("command", ["render", "report"])
    def test_manifest_not_json_object_exit_2(self, tmp_path, command):
        for text in ("{not json", "[1, 2]"):
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            argv = [command, "--manifest", str(bad)]
            if command == "render":
                argv += ["--out", str(tmp_path / "n.svg")]
            assert main(argv) == 2


def test_map_slender_dispatch(tmp_path):
    # circle widened about a = -2 and folded back: near-identity map
    payload = {
        "boundary": {"coeffs": [{"k": 1, "re": 1.0, "im": 0.0}]},
        "slender": {"a_re": -2.0, "a_im": 0.0},
        "M": 48,
        "P": 384,
        "D": 48,
        "n_iter": 20,
    }
    cfg = tmp_path / "slender.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "run"
    assert main(["map", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["sup_deviation"] < 1e-3
    assert manifest["provenance"]["kind"] == "slender"
    assert manifest["provenance"]["slender"]["anchor_search"]


def _fit_argv(tmp_path, text):
    path = tmp_path / "samples.csv"
    path.write_text(text)
    return ["fit", str(path), "-m", "0", "-n", "1", "--out", str(tmp_path)]


def _empty_boundary_file_argv(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    cfg = circle_config(tmp_path, boundary={"file": "empty.csv"})
    return ["map", "--config", cfg, "--out", str(tmp_path / "run")]


def _render_argv(tmp_path, name, text):
    out = tmp_path / "run"
    assert main(["map", "--config", circle_config(tmp_path), "--out", str(out)]) == 0
    (out / name).write_text(text)
    return ["render", "--manifest", str(out / "manifest.json"),
            "--out", str(tmp_path / "n.svg")]


MALFORMED_FILES = {
    "samples-non-numeric": lambda p: _fit_argv(p, "re,im\n1.0,0.0\n0.0,abc\n"),
    "samples-empty": lambda p: _fit_argv(p, ""),
    "boundary-file-empty": _empty_boundary_file_argv,
    "core-non-numeric": lambda p: _render_argv(
        p, "core.csv", "k,re,im\n0,0,0\n1,abc,0\n"
    ),
    "sidecar-not-json": lambda p: _render_argv(p, "core.csv.meta.json", "{not json"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_exit_2(tmp_path, capsys, case):
    argv = MALFORMED_FILES[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert "input error:" in capsys.readouterr().err


MOEBIUS_PARAMS = {"abcd": [[1, 0], [0, 0], [0, 0], [1, 0]]}
BAD_STAGES = {
    "moebius": ({"kind": "moebius", **MOEBIUS_PARAMS}, "unknown transform kind"),
    "spiral": ({"kind": "spiral", **MOEBIUS_PARAMS}, "unknown transform kind"),
    "power-k0": ({"kind": "power", "N": 2, "k": 0}, "degenerate power stage"),
}


@pytest.mark.parametrize("case", sorted(BAD_STAGES))
def test_render_bad_stage_exit_2(tmp_path, capsys, case):
    stage, message = BAD_STAGES[case]
    out = tmp_path / "run"
    main(["map", "--config", circle_config(tmp_path), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["stages"] = [stage]
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(
        ["render", "--manifest", str(out / "manifest.json"),
         "--out", str(tmp_path / "n.svg")]
    ) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "n.svg").exists()


MALFORMED_INPUTS = {
    "M-fraction": {"M": 16.9},
    "M-string": {"M": "16"},
    "M-bool": {"M": True},
    "P-fraction": {"P": 128.5},
    "D-string": {"D": "8"},
    "n_iter-fraction": {"n_iter": 2.5},
    "refit_degree-fraction": {"refit_degree": 24.5},
    "sample_grid-fraction": {"sample_grid": 4096.5},
    "refit_tol-nan": {"refit_tol": float("nan")},
    "refit_tol-infinite": {"refit_tol": float("inf")},
    "refit_tol-zero": {"refit_tol": 0.0},
    "refit_tol-negative": {"refit_tol": -1e-3},
    "render-samples-negative": ("render", ["--samples", "-3"]),
    "render-samples-zero": ("render", ["--samples", "0"]),
    "render-samples-one": ("render", ["--samples", "1"]),
    "map-grid-below-256": ("map", ["--grid", "10"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_2(tmp_path, capsys, case):
    bad = MALFORMED_INPUTS[case]
    if isinstance(bad, dict):
        # Python's json writes and reads NaN and Infinity
        argv = ["map", "--config", circle_config(tmp_path, **bad),
                "--out", str(tmp_path / "o")]
    elif bad[0] == "map":
        argv = ["map", "--config", circle_config(tmp_path),
                "--out", str(tmp_path / "o"), *bad[1]]
    else:
        run = tmp_path / "run"
        assert main(["map", "--config", circle_config(tmp_path), "--out", str(run)]) == 0
        argv = ["render", "--manifest", str(run / "manifest.json"),
                "--out", str(tmp_path / "n.svg"), *bad[1]]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "core.csv").exists()
    assert not (tmp_path / "o" / "manifest.json").exists()
    assert not (tmp_path / "n.svg").exists()
