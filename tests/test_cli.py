import os
import re
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from wsdelay import mie, specfun
from wsdelay.cli import main, run_scenario
from wsdelay.errors import ConfigError
from wsdelay.io import (
    _FIELD_PARSERS,
    ScenarioConfig,
    parse_config,
    read_polyline,
    write_complex_matrix,
)
from wsdelay.modal import suggested_mode_count

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
DATA = os.path.join(os.path.dirname(__file__), "data")


def read_complex_matrix(path) -> np.ndarray:
    """Parse write_complex_matrix's row,col,re,im CSV back into a matrix."""
    rows, cols, res, ims = [], [], [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "row,col,re,im":
            raise ConfigError(f"{path}: unexpected matrix header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ConfigError(f"{path}:{lineno}: malformed matrix row")
            try:
                rows.append(int(parts[0]))
                cols.append(int(parts[1]))
                res.append(float(parts[2]))
                ims.append(float(parts[3]))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    n_rows, n_cols = max(rows) + 1, max(cols) + 1
    out = np.zeros((n_rows, n_cols), dtype=complex)
    out[rows, cols] = np.array(res) + 1j * np.array(ims)
    return out


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


class TestConfigParsing:
    def test_parse_full(self, tmp_path):
        p = write(
            tmp_path / "c.cfg",
            """
            # strip run
            scenario=strip
            bc=hard
            k=1.0
            modes=111
            delta_k=2e-4
            export_modes=1,2
            """.replace("            ", ""),
        )
        cfg = parse_config(p)
        assert cfg.scenario == "strip"
        assert cfg.bc == "hard"
        assert cfg.mode_count == 111
        assert cfg.delta_k == 2e-4
        assert cfg.export_modes == (1, 2)

    def test_unknown_key_reports_line(self, tmp_path):
        p = write(tmp_path / "c.cfg", "scenario=strip\nbogus=1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert "line 2" in str(err.value)

    def test_repeated_key_reports_line(self, tmp_path):
        p = write(tmp_path / "c.cfg", "scenario=strip\nk=1\n# again\nk=2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert "line 4" in str(err.value)

    def test_missing_equals_reports_line(self, tmp_path):
        p = write(tmp_path / "c.cfg", "scenario=strip\njust words\n")
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert "line 2" in str(err.value)

    def test_bad_value(self, tmp_path):
        p = write(tmp_path / "c.cfg", "scenario=strip\nk=fast\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="blob").validate()
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="strip", mode_count=10).validate()
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="strip", checks=("nope",)).validate()
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="custom").validate()

    @pytest.mark.parametrize("dk", [float("nan"), 0.0, -1e-4])
    def test_bad_delta_k_rejected(self, dk):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="strip", delta_k=dk).validate()

    def test_checks_are_sphere_only(self, tmp_path):
        p = write(tmp_path / "s.cfg", "scenario=sphere\nmodes=4\nchecks=volume-q\n")
        assert parse_config(p).checks == ("volume-q",)
        p = write(tmp_path / "c.cfg", "scenario=strip\nmodes=11\nchecks=volume-q\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_polyline(self, tmp_path):
        p = write(tmp_path / "v.csv", "0,0\n1 0 # corner\n1,1\n")
        verts = read_polyline(p)
        assert verts.shape == (3, 2)

    def test_readme_lists_every_key(self):
        text = open(README).read()
        block = text.split("```ini\n", 1)[1].split("```", 1)[0]
        assert set(re.findall(r"(\w+)=", block)) == set(_FIELD_PARSERS)


class TestComplexMatrixRoundTrip:
    def test_identity(self, tmp_path):
        path = tmp_path / "m.csv"
        write_complex_matrix(path, np.eye(3, dtype=complex))
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 1 + 9
        back = read_complex_matrix(path)
        assert np.array_equal(back, np.eye(3))

    def test_random_unitary_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        u = expm(1j * (h + h.conj().T))
        path = tmp_path / "u.csv"
        write_complex_matrix(path, u)
        back = read_complex_matrix(path)
        assert np.max(np.abs(back - u)) == 0.0

    def test_row_count_scales_with_m_squared(self, tmp_path):
        m = np.zeros((7, 7), dtype=complex)
        path = tmp_path / "m.csv"
        write_complex_matrix(path, m)
        assert len(open(path).read().strip().splitlines()) == 1 + 49

    def test_malformed_rows_rejected(self, tmp_path):
        path = write(tmp_path / "bad.csv", "row,col,re,im\n0,0,1\n")
        with pytest.raises(ConfigError) as err:
            read_complex_matrix(path)
        assert ":2" in str(err.value)


@pytest.fixture(scope="module")
def cylinder_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cyl")
    cfg = ScenarioConfig(
        scenario="cylinder", bc="soft", k=1.0, a=2.0, mode_count=15,
        grid_nx=61, grid_ny=61, export_modes=(1,),
    )
    summary = run_scenario(cfg, str(out))
    return cfg, summary, str(out)


class TestRunScenario:
    def test_volumeq_residual_report(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="sphere", bc="soft", a=1.0, mode_count=4, checks=("volume-q",)
        )
        out = tmp_path / "sphere"
        run_scenario(cfg, str(out))
        lines = open(out / "volumeq_residuals.csv").read().strip().splitlines()
        assert lines[0] == "p,q,route,value_re,value_im,reference_re,reference_im,rel_err"
        assert len(lines) == 1 + 3 * 4  # three routes, four diagonal entries
        assert all(float(l.split(",")[-1]) < 1e-3 for l in lines[1:])

    def test_sphere_checks_read_the_solved_matrices(self, tmp_path, monkeypatch):
        # one table at ka per closed-form matrix, one on the Gauss nodes and
        # one at kR; the checks build no S or S' of their own
        originals = {
            "sph_bessel_table": specfun.sph_bessel_table,
            "mie_smatrix": mie.mie_smatrix,
            "mie_smatrix_deriv": mie.mie_smatrix_deriv,
        }
        calls = dict.fromkeys(originals, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for modname, module in list(sys.modules.items()):
            if modname == "wsdelay" or modname.startswith("wsdelay."):
                for name, fn in originals.items():
                    if getattr(module, name, None) is fn:
                        monkeypatch.setattr(module, name, counted(name, fn))
        cfg = ScenarioConfig(scenario="sphere", bc="soft", a=2.0, mode_count=16,
                             checks=("volume-q", "appendix-b"))
        assert run_scenario(cfg, str(tmp_path / "o"))["passed"]
        assert calls["sph_bessel_table"] <= 4
        assert calls["mie_smatrix"] == 1
        assert calls["mie_smatrix_deriv"] == 1

    def test_artifacts_written(self, cylinder_run):
        _, summary, out = cylinder_run
        for name in (
            "smatrix.csv",
            "sprime.csv",
            "qmatrix.csv",
            "spectrum.csv",
            "wmatrix.csv",
            "modes.csv",
            "classification.csv",
            "mode_001_field.csv",
            "report.txt",
        ):
            assert os.path.exists(os.path.join(out, name)), name
        assert summary["passed"]

    def test_gate_lines_machine_readable(self, cylinder_run):
        _, _, out = cylinder_run
        text = open(os.path.join(out, "report.txt")).read()
        assert "[gates]" in text
        gates = [l for l in text.splitlines() if "=" in l and "limit=" in l]
        assert len(gates) >= 6
        assert "overall_pass=1" in text

    def test_deterministic_outputs(self, cylinder_run, tmp_path):
        cfg, _, out = cylinder_run
        out2 = tmp_path / "again"
        run_scenario(cfg, str(out2))
        names = sorted(os.listdir(out))
        assert names == sorted(os.listdir(out2))
        for name in names:
            a = open(os.path.join(out, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name

    def test_spectrum_format(self, cylinder_run):
        _, summary, out = cylinder_run
        lines = open(os.path.join(out, "spectrum.csv")).read().strip().splitlines()
        assert lines[0] == "index,delay"
        assert len(lines) == 1 + 15
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(summary["delays"][0])

    def test_custom_polyline_scenario(self, tmp_path):
        # 4x4 square, circumradius 2.83: the sizing rule wants n_max ~ 8
        poly = write(tmp_path / "sq.csv", "-2,-2\n2,-2\n2,2\n-2,2\n")
        cfg = ScenarioConfig(
            scenario="custom", bc="soft", mode_count=17, polyline=poly,
            grid_nx=41, grid_ny=41,
        )
        summary = run_scenario(cfg, str(tmp_path / "out"))
        assert summary["passed"]

    @pytest.mark.parametrize("scenario, radius", [("custom", 2.0 * np.sqrt(2.0)),
                                                  ("cylinder", 2.0)])
    def test_default_mode_count_from_circumradius(self, tmp_path, scenario, radius):
        poly = write(tmp_path / "sq.csv", "-2,-2\n2,-2\n2,2\n-2,2\n")
        cfg = ScenarioConfig(
            scenario=scenario, bc="soft", k=1.0, a=2.0, polyline=poly,
            grid_nx=11, grid_ny=11,
        )
        out = tmp_path / "out"
        summary = run_scenario(cfg, str(out))
        assert summary["circumradius"] == pytest.approx(radius)
        ports = open(out / "modes.csv").read().strip().splitlines()[1:]
        assert len(ports) == suggested_mode_count(1.0, radius, 3.0, 2)
        if scenario == "custom":
            assert len(ports) == 17


class TestMainExitCodes:
    def test_ok(self, tmp_path):
        cfg = write(
            tmp_path / "c.cfg",
            "scenario=cylinder\nbc=soft\na=2\nmodes=9\ngrid_nx=41\ngrid_ny=41\n",
        )
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_polyline_path_with_hash(self, tmp_path):
        # '#' starts a comment only at a line start or after whitespace
        folder = tmp_path / "hash#dir"
        folder.mkdir()
        poly = write(folder / "sq.csv", "-2,-2\n2,-2\n2,2\n-2,2\n")
        cfg = write(
            tmp_path / "c.cfg",
            f"# square\nscenario=custom   # 4x4\nmodes=17\npolyline={poly}\n"
            "grid_nx=11\ngrid_ny=11\n",
        )
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert (out / "mesh.csv").exists()

    def test_gate_failure_exit_2(self, tmp_path):
        cfg = write(
            tmp_path / "c.cfg",
            "scenario=cylinder\nbc=soft\na=2\nmodes=9\nsmatrix_gate=1e-20\n"
            "grid_nx=41\ngrid_ny=41\n",
        )
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_input_error_exit_3(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "scenario=warp\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize(
        "text, extra",
        [
            pytest.param("scenario=strip\nk=nan\nmodes=11\n", [], id="k-nan"),
            pytest.param("scenario=strip\nk=inf\nmodes=11\n", [], id="k-inf"),
            pytest.param("scenario=cylinder\na=nan\nmodes=9\n", [], id="a-nan"),
            pytest.param("scenario=cavity\nw=inf\nmodes=11\n", [], id="w-inf"),
            pytest.param("scenario=strip\nmodes=11\ngrid_nx=1\n", [], id="grid-nx"),
            pytest.param("scenario=strip\nmodes=11\ngrid_ny=0\n", [], id="grid-ny"),
            pytest.param("scenario=sphere\nmodes=5\n", [], id="sphere-modes"),
            pytest.param(
                "scenario=strip\nmodes=11\nchecks=volume-q\n", [], id="strip-volume-q"
            ),
            pytest.param(
                "scenario=cylinder\nmodes=9\n", ["--check", "appendix-b"],
                id="cylinder-appendix-b",
            ),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\n", ["--modes", "99"],
                id="export-above-m",
            ),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\n", ["--modes", "0"], id="export-zero"
            ),
            pytest.param(
                "scenario=strip\nmodes=11\nnodes_per_wavelength=nan\n", [], id="npw-nan"
            ),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\ngrading_exponent=4\n", [],
                id="grading-gone",
            ),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\nk=1\nk=2\n", [], id="duplicate-key"
            ),
            pytest.param("scenario=strip\nmodes=11\ndelta_k=nan\n", [], id="dk-nan"),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\nsmatrix_gate=nan\n", [], id="gate-nan"
            ),
            pytest.param(
                "scenario=sphere\nmodes=4\nexport_modes=1\n", [], id="sphere-export"
            ),
            pytest.param(
                "scenario=strip\nmodes=11\ngrid_halfwidth=-5\n", [], id="halfwidth"
            ),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\nrichardson=true\n", [], id="richardson-gone"
            ),
            pytest.param(
                "scenario=sphere\nmodes=4\nvol_kr=10\n", ["--check", "volume-q"],
                id="volume-q-kr",
            ),
            pytest.param(
                "scenario=sphere\nmodes=4\nvol_kr=nan\n", ["--check", "volume-q"],
                id="volume-q-kr-nan",
            ),
            pytest.param(
                "scenario=sphere\nmodes=4\nvol_kr=inf\n", ["--check", "volume-q"],
                id="volume-q-kr-inf",
            ),
            pytest.param(
                "scenario=sphere\nmodes=4\nvol_npw=nan\n", ["--check", "volume-q"],
                id="volume-q-npw-nan",
            ),
            pytest.param(
                "scenario=sphere\nmodes=4\nvol_npw=inf\n", ["--check", "volume-q"],
                id="volume-q-npw-inf",
            ),
            pytest.param(
                f"scenario=custom\nmodes=17\npolyline={DATA}/no_such_polyline.csv\n", [],
                id="polyline-missing",
            ),
            pytest.param(
                f"scenario=custom\nmodes=17\npolyline={DATA}/polyline_bad_float.csv\n", [],
                id="polyline-bad-float",
            ),
        ],
    )
    def test_bad_input_exit_3_before_output(self, tmp_path, text, extra):
        cfg = write(tmp_path / "c.cfg", text)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)] + extra) == 3
        assert not out.exists()

    def test_missing_config_exit_3(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 3

    def test_check_flag_merges(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "scenario=sphere\nbc=soft\na=1\nmodes=4\n")
        code = main(
            ["--config", cfg, "--out", str(tmp_path / "o"), "--check", "appendix-b"]
        )
        assert code == 0
        text = open(tmp_path / "o" / "report.txt").read()
        assert "appendix_b_algebraic" in text
