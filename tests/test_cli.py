import os
import re
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from wsdelay import bem, cli, mie, specfun, volumeq
from wsdelay.cli import main, run_scenario
from wsdelay.errors import ConfigError
from wsdelay.io import (
    _FIELD_PARSERS,
    ScenarioConfig,
    parse_config,
    read_polyline,
    write_complex_matrix,
)
from wsdelay.modal import ModeIndex, suggested_mode_count

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
            nodes_per_wavelength=12
            """.replace("            ", ""),
        )
        cfg = parse_config(p)
        assert cfg.scenario == "strip"
        assert cfg.bc == "hard"
        assert cfg.mode_count == 111
        assert cfg.delta_k == 2e-4
        assert cfg.nodes_per_wavelength == 12.0

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

    @pytest.mark.parametrize("dk", [float("nan"), 0.0, -1e-4, 1.0, 1.5, float("inf")])
    def test_bad_delta_k_rejected(self, dk):
        with pytest.raises(ConfigError, match="delta_k"):
            ScenarioConfig(scenario="strip", delta_k=dk).validate()

    @pytest.mark.parametrize("npw", [float("nan"), float("inf"), 0.0, -1.0, 3.0])
    def test_bad_nodes_per_wavelength_rejected(self, npw):
        with pytest.raises(ConfigError, match="nodes_per_wavelength"):
            ScenarioConfig(scenario="strip", nodes_per_wavelength=npw).validate()

    def test_checks_are_sphere_only(self):
        cfg = ScenarioConfig(scenario="sphere", mode_count=4, checks=("volume-q",))
        assert cfg.validate() is cfg
        with pytest.raises(ConfigError, match="sphere scenario"):
            ScenarioConfig(scenario="strip", mode_count=11, checks=("volume-q",)).validate()

    @pytest.mark.parametrize(
        "k,a,vol_kr,match",
        [
            (1.0, 2.0, 40.0, "vol_kr >= 50"),
            (100.0, 2.0, 500.0, "3a"),
            (1.0, 100.0, 60.0, "3a"),
        ],
        ids=["kr-below-50", "radius-below-3a", "surface-inside-sphere"],
    )
    def test_appendix_b_surface_rejected(self, k, a, vol_kr, match):
        cfg = ScenarioConfig(scenario="sphere", k=k, a=a, vol_kr=vol_kr, checks=("appendix-b",))
        with pytest.raises(ConfigError, match=match):
            cfg.validate()

    @pytest.mark.parametrize(
        "k,a,vol_kr", [(1.0, 2.0, 50.0), (10.0, 2.0, 60.0)], ids=["kr-at-50", "radius-at-3a"]
    )
    def test_appendix_b_surface_accepted_at_the_bounds(self, k, a, vol_kr):
        cfg = ScenarioConfig(scenario="sphere", k=k, a=a, vol_kr=vol_kr, checks=("appendix-b",))
        assert cfg.validate() is cfg

    @pytest.mark.parametrize(
        "scenario,a,count",
        [("cylinder", 2.0, 403), ("sphere", 2.0, 202**2), ("cylinder", 200.0, None),
         ("sphere", 200.0, None)],
        ids=["cylinder-modes", "sphere-modes", "cylinder-rule", "sphere-rule"],
    )
    def test_order_ceiling_rejected(self, scenario, a, count):
        # order 201 from an explicit count, and order 218 from the
        # truncation rule at ka = 200
        cfg = ScenarioConfig(scenario=scenario, a=a, mode_count=count)
        with pytest.raises(ConfigError, match="ceiling 200"):
            cfg.validate()

    @pytest.mark.parametrize("scenario,count", [("cylinder", 401), ("sphere", 201**2)])
    def test_order_ceiling_accepted_at_the_bound(self, scenario, count):
        cfg = ScenarioConfig(scenario=scenario, a=2.0, mode_count=count)
        assert cfg.validate() is cfg

    def test_volume_q_alone_takes_no_surface(self):
        # the volume routes take R -> inf in closed form, so vol_kr bounds
        # only the Appendix-B surface
        cfg = ScenarioConfig(scenario="sphere", a=100.0, vol_kr=10.0, checks=("volume-q",))
        assert cfg.validate() is cfg

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
        # one table at ka per closed-form matrix, one at ka for the volume
        # routes and one at kR; the checks build no S or S' of their own
        originals = {
            "hankel1_table": specfun.hankel1_table,
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
        assert calls["hankel1_table"] <= 4
        assert calls["mie_smatrix"] == 1
        assert calls["mie_smatrix_deriv"] == 1

    def test_every_surface_pair_has_a_value(self, tmp_path, monkeypatch):
        # a pair whose closed and numeric values are both 0 checks nothing
        # numerically; a pair with m != 0 takes the conjugate-port path
        seen = []

        def recorded(s, sprime, pairs, radius):
            reports = volumeq.surface_identity_check(s, sprime, pairs, radius)
            seen.extend(zip(pairs, reports))
            return reports

        monkeypatch.setattr(cli, "surface_identity_check", recorded)
        cfg = ScenarioConfig(scenario="sphere", bc="hard", a=2.0, mode_count=16,
                             checks=("appendix-b",))
        assert run_scenario(cfg, str(tmp_path / "o"))["passed"]
        assert len(seen) >= 3
        assert all(abs(rep.closed_value) > 1.0 for _, rep in seen)
        assert any(p.m != 0 for (p, _), _ in seen)

    @pytest.mark.parametrize("count, shortfall", [(16, 33.0), (None, 0.0)])
    def test_mode_count_shortfall_reported(self, tmp_path, count, shortfall):
        # ka = 2: the truncation rule asks for l_max = 6, (6 + 1)^2 = 49 ports
        cfg = ScenarioConfig(scenario="sphere", bc="soft", a=2.0, mode_count=count)
        summary = run_scenario(cfg, str(tmp_path / "o"))
        assert ("mode_count_shortfall", shortfall, None) in summary["gates"]
        report = open(tmp_path / "o" / "report.txt").read().splitlines()
        assert f"mode_count_shortfall={shortfall:.6e}" in report
        assert summary["passed"]

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
        assert len(ports) == suggested_mode_count(1.0, radius, 2)
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
                "scenario=strip\nmodes=11\n", ["--check", "volume-q"], id="strip-volume-q"
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
                "scenario=strip\nmodes=11\nnodes_per_wavelength=inf\n", [], id="npw-inf"
            ),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\ngrading_exponent=4\n", [],
                id="grading-gone",
            ),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\nk=1\nk=2\n", [], id="duplicate-key"
            ),
            pytest.param("scenario=strip\nmodes=11\ndelta_k=nan\n", [], id="dk-nan"),
            pytest.param("scenario=strip\nmodes=11\ndelta_k=1.0\n", [], id="dk-equals-k"),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\ndelta_k=1.5\n", [], id="dk-above-k"
            ),
            pytest.param(
                "scenario=sphere\nmodes=4\n", ["--modes", "1"], id="sphere-export"
            ),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\nrichardson=true\n", [], id="richardson-gone"
            ),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\nsmatrix_gate=1e-3\n", [],
                id="smatrix-gate-gone",
            ),
            pytest.param(
                "scenario=strip\nmodes=11\ngrid_halfwidth=40\n", [], id="grid-halfwidth-gone"
            ),
            pytest.param(
                "scenario=sphere\nmodes=4\nchecks=volume-q\n", [], id="checks-gone"
            ),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=9\nexport_modes=1\n", [],
                id="export-modes-gone",
            ),
            pytest.param(
                "scenario=sphere\nmodes=4\nvol_kr=10\n", ["--check", "appendix-b"],
                id="appendix-b-kr",
            ),
            pytest.param(
                # the surface at R = 60 would lie inside the a = 100 sphere
                "scenario=sphere\na=100\nk=1\nmodes=4\nvol_kr=60\n", ["--check", "appendix-b"],
                id="appendix-b-inside",
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
                "scenario=sphere\nmodes=4\nvol_npw=24\n", ["--check", "volume-q"],
                id="vol-npw-gone",
            ),
            pytest.param(
                f"scenario=custom\nmodes=17\npolyline={DATA}/no_such_polyline.csv\n", [],
                id="polyline-missing",
            ),
            pytest.param(
                f"scenario=custom\nmodes=17\npolyline={DATA}/polyline_bad_float.csv\n", [],
                id="polyline-bad-float",
            ),
            pytest.param(
                f"scenario=custom\nmodes=17\npolyline={DATA}/polyline_origin_node.csv\n", [],
                id="polyline-origin-node",
            ),
            pytest.param(
                f"scenario=custom\nmodes=17\npolyline={DATA}/polyline_clockwise.csv\n", [],
                id="polyline-clockwise",
            ),
            pytest.param(
                f"scenario=custom\nmodes=17\npolyline={DATA}/polyline_two_vertices.csv\n", [],
                id="polyline-two-vertices",
            ),
            pytest.param("scenario=cavity\nw=22\nmodes=11\n", [], id="cavity-gap-too-wide"),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=403\n", [], id="cylinder-order-ceiling"
            ),
            pytest.param(
                "scenario=cylinder\na=2\nmodes=199\n", [], id="cylinder-closed-form-overflow"
            ),
            pytest.param(
                "scenario=strip\nmodes=11\ngrid_nx=2\ngrid_ny=2\n", [], id="grid-2x2"
            ),
        ],
    )
    def test_bad_input_exit_3_before_output(self, tmp_path, capsys, text, extra):
        cfg = write(tmp_path / "c.cfg", text)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)] + extra) == 3
        assert capsys.readouterr().err.startswith("input error: ")
        assert not out.exists()

    def test_closed_form_below_overflow_exit_0(self, tmp_path):
        # order 98 at ka = 2, one below the first order whose dalpha overflows
        cfg = write(tmp_path / "c.cfg", "scenario=cylinder\na=2\nmodes=197\n"
                    "grid_nx=41\ngrid_ny=41\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("bc", ["soft", "hard"])
    def test_volume_q_high_degree_exit_0(self, tmp_path, bc):
        # l_max 14 with vol_kr = 50: the routes take R -> inf in closed
        # form, so no cutoff limits the degree
        cfg = write(tmp_path / "c.cfg",
                    f"scenario=sphere\nbc={bc}\na=2\nmodes=225\nvol_kr=50\n")
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--check", "volume-q"]) == 0
        gates = [line.split()[0].split("=") for line in open(out / "report.txt")
                 if line.startswith("volume_route_")]
        assert len(gates) == 3
        assert all(float(value) <= 1e-12 for _, value in gates), gates

    @pytest.mark.parametrize("lmax", [12, 15, 18, 20])
    @pytest.mark.parametrize("a, first", [(1, 7), (2, 10)])
    @pytest.mark.parametrize("bc", ["soft", "hard"])
    def test_volume_q_to_the_degree_ceiling(self, tmp_path, bc, a, first, lmax):
        # read off beta, degree l's r = a terms carry beta's rounding times
        # |h_l(ka)|^2, up to 5e7 of scale here with S unitary; from the
        # reported degree on they come from the boundary condition
        cfg = write(tmp_path / "c.cfg", f"scenario=sphere\nbc={bc}\na={a}\n"
                    f"modes={(lmax + 1) ** 2}\nvol_kr=300\n")
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--check", "volume-q,appendix-b"]) == 0
        gates = dict(line.split()[0].split("=") for line in open(out / "report.txt")
                     if line.startswith("volume_"))
        routes = [float(v) for name, v in gates.items() if name.startswith("volume_route_")]
        assert len(routes) == 3
        assert max(routes) <= 1e-12, routes
        assert float(gates["volume_bc_degree"]) == first

    @pytest.mark.parametrize("bc", ["soft", "hard"])
    def test_volume_q_fails_a_perturbed_coefficient(self, tmp_path, monkeypatch, bc):
        # at a = 2, l_max 4 every degree reads its terms off beta: turning
        # beta_2 by a phase of 1e-2 moves each route by 3.6e-3 to 1.8e-2 of
        # scale, past the 1e-3 gate, while S stays unitary and symmetric
        def perturbed(*args):
            s = mie.mie_smatrix(*args)
            i = s.modes.position(ModeIndex.spherical(2, 0))
            s.matrix[i, i] *= np.exp(1e-2j)
            return s

        monkeypatch.setattr(cli, "mie_smatrix", perturbed)
        cfg = ScenarioConfig(scenario="sphere", bc=bc, a=2.0, mode_count=25,
                             checks=("volume-q",))
        summary = run_scenario(cfg, str(tmp_path / "o"))
        gates = {name: (value, limit) for name, value, limit in summary["gates"]}
        assert gates["volume_bc_degree"] == (5.0, None)
        routes = [gate for name, gate in gates.items() if name.startswith("volume_route_")]
        assert len(routes) == 3
        assert all(value > limit for value, limit in routes), routes
        assert gates["unitarity_residual"][0] <= 1e-14
        assert not summary["passed"]

    @pytest.mark.parametrize("scenario", ["strip", "cavity"])
    def test_gate_failure_exit_2_writes_every_artifact(self, tmp_path, scenario):
        # one port cannot carry a non-circular scatterer's scattering (the
        # unitarity residual reads 0.45 on the strip and 0.96 on the cavity):
        # the run fails its S gate, and still writes what it computed
        cfg = write(
            tmp_path / "c.cfg", f"scenario={scenario}\nmodes=1\ngrid_nx=41\ngrid_ny=41\n"
        )
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--modes", "1"]) == 2
        csvs = ("smatrix", "sprime", "qmatrix", "wmatrix", "spectrum", "modes", "mesh",
                "classification", "mode_001_field")
        assert sorted(os.listdir(out)) == sorted([f"{n}.csv" for n in csvs] + ["report.txt"])
        assert len(open(out / "classification.csv").read().splitlines()) == 2
        report = open(out / "report.txt").read().splitlines()
        assert "overall_pass=0" in report
        assert any(l.startswith("unitarity_residual=") and l.endswith("pass=0") for l in report)

    def test_solver_failure_exit_4_before_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bem, "lu_solve", lambda lu, rhs: np.zeros_like(rhs))
        cfg = write(tmp_path / "c.cfg", "scenario=strip\nmodes=11\ngrid_nx=41\ngrid_ny=41\n")
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "solver error:" in err
        assert "residual 1.0e+00 above 1e-08" in err
        assert not out.exists()

    def test_memory_exhaustion_exit_4_before_output(self, tmp_path, monkeypatch, capsys):
        def exhausted(cfg, st):
            raise MemoryError("Unable to allocate 12.2 GiB")

        monkeypatch.setattr(cli, "_solve", exhausted)
        cfg = write(tmp_path / "c.cfg", "scenario=sphere\na=2\nmodes=4\n")
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == "solver error: out of memory: Unable to allocate 12.2 GiB\n"
        assert not out.exists()

    def test_missing_config_exit_3(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 3

    def test_check_flag_sets_checks(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "scenario=sphere\nbc=soft\na=1\nmodes=4\n")
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--check", "appendix-b"]) == 0
        text = open(out / "report.txt").read()
        assert "appendix_b_algebraic" in text
        assert "volume_route_" not in text
        assert not (out / "volumeq_residuals.csv").exists()
