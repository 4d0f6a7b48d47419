import json
from pathlib import Path

import numpy as np
import pytest

from greenbound import interval as iv
from greenbound.cli import main


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def square_problem(**overrides):
    base = {
        "schema": 1,
        "domain": {
            "type": "polygon",
            "vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]],
        },
        "source": "1",
        "points": [[0.0, 0.0]],
        "mfs": {"n": 33, "tol": 1e-8},
    }
    base.update(overrides)
    return base


def interval_problem(**overrides):
    base = {
        "schema": 1,
        "domain": {"type": "interval"},
        "source": "1",
        "oned": {"h": 2.0**-4},
    }
    base.update(overrides)
    return base


CENTRED = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]
UNIT = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def _sine_coefficients(g: str, m):
    """int_0^1 g(X) sin(m pi X) dX for g = 1, X, X^2, X - X^2 or (X - 1/2)^2."""
    one = (1 - (-1.0) ** m) / (m * np.pi)
    lin = -(-1.0) ** m / (m * np.pi)
    quad = lin + 2 * ((-1.0) ** m - 1) / (m * np.pi) ** 3
    return {"1": one, "X": lin, "X-X2": lin - quad, "x2": quad - lin + one / 4}[g]


def sine_series(terms, X, Y, n=2000):
    """u(X, Y) for -Laplace u = sum g(X) h(Y) on [0, 1]^2, u = 0 on the
    boundary: sum_mn 4 g_m h_n sin(m pi X) sin(n pi Y) / (pi^2 (m^2 + n^2))
    over m, n <= 2000 (the tail is below 1e-6, the widths are near 1e-4)."""
    m = np.arange(1, n + 1, dtype=float)
    total = 0.0
    for g, h in terms:
        gx = _sine_coefficients(g, m) * np.sin(m * np.pi * X)
        hy = _sine_coefficients(h, m) * np.sin(m * np.pi * Y)
        for r in range(0, n, 200):  # 200 x n blocks keep the arrays small
            den = np.pi**2 * (m[r:r + 200, None] ** 2 + m[None, :] ** 2)
            total += 4.0 * np.sum(gx[r:r + 200, None] * hy[None, :] / den)
    return total


class TestEnclose1D:
    def test_nodal_table(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", interval_problem())
        out = tmp_path / "nodes.csv"
        assert main(["enclose1d", path, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,lower,upper"
        assert len(lines) == 18  # 17 nodes at h = 2^-4
        for line in lines[1:]:
            x, lo, hi = map(float, line.split(","))
            exact = x * (1 - x) / 2
            assert lo <= exact <= hi
            if 0.0 < x < 1.0:
                assert hi - lo > 0.0

    def test_overrides(self, tmp_path):
        path = write(tmp_path, "p.json", interval_problem())
        out = tmp_path / "o.csv"
        assert main(["enclose1d", path, "--h", str(2.0**-3), "--c", "0.01",
                     "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 10

    def test_sweep(self, tmp_path):
        path = write(
            tmp_path, "p.json",
            interval_problem(oned={"h": 2.0**-4, "sweep_h": [2.0**-4, 2.0**-5]}),
        )
        out = tmp_path / "sweep.csv"
        assert main(["enclose1d", path, "--sweep", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "h,c,eps,iterations,max_gap"
        gaps = [float(line.split(",")[-1]) for line in lines[1:]]
        assert gaps[1] < gaps[0]

    def test_sweep_c_flag_sets_c(self, tmp_path):
        path = write(tmp_path, "p.json",
                     interval_problem(oned={"sweep_h": [2.0**-3, 2.0**-4]}))
        out = tmp_path / "sweep.csv"
        assert main(["enclose1d", path, "--sweep", "--c", "0.05",
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [0.05, 0.05]
        assert main(["enclose1d", path, "--sweep", "--c", "-0.05"]) == 2

    def test_sweep_h_flag_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", interval_problem(oned={"sweep_h": [0.25]}))
        assert main(["enclose1d", path, "--sweep", "--h", "0.25"]) == 2
        assert "--h" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, oned", [
        (["--sweep"], {"h": 0.3, "sweep_h": [0.125]}),
        ([], {"h": 0.125, "sweep_h": [0.125, 0.3]}),
    ])
    def test_mesh_key_of_the_other_mode_is_checked(self, tmp_path, capsys, flags, oned):
        path = write(tmp_path, "p.json", interval_problem(oned=oned))
        assert main(["enclose1d", path, *flags]) == 2
        assert "mesh width 0.3" in capsys.readouterr().err

    def test_piecewise_source(self, tmp_path):
        path = write(
            tmp_path, "p.json",
            interval_problem(
                source={"breakpoints": [0.25], "pieces": ["1", "1.125"]}
            ),
        )
        assert main(["enclose1d", path, "--out", str(tmp_path / "x.csv")]) == 0

    def test_wrong_domain(self, tmp_path):
        path = write(tmp_path, "p.json", square_problem())
        assert main(["enclose1d", path]) == 2

    def test_bad_mesh_width_is_input_error(self, tmp_path):
        path = write(tmp_path, "p.json", interval_problem(oned={"h": 1.0 / 49.0}))
        assert main(["enclose1d", path]) == 2

    @pytest.mark.parametrize("oned", [
        {"h": 0.0}, {"h": -0.25}, {"c": -1.0}, {"eps_factor": 0.0}, {"eps_factor": -0.5},
    ])
    def test_out_of_range_config_rejected_at_load(self, tmp_path, capsys, oned):
        path = write(tmp_path, "p.json", interval_problem(oned=oned))
        assert main(["enclose1d", path]) == 2
        assert "problem file rejected" in capsys.readouterr().err

    def test_negative_c_flag_is_input_error(self, tmp_path):
        path = write(tmp_path, "p.json", interval_problem())
        assert main(["enclose1d", path, "--c", "-0.01"]) == 2

    @pytest.mark.parametrize("c", ["inf", "nan"])
    def test_non_finite_c_flag_is_input_error(self, tmp_path, capsys, c):
        path = write(tmp_path, "p.json", interval_problem())
        assert main(["enclose1d", path, "--c", c]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["0", "nan", "inf", "-0.25", "0.3"])
    def test_invalid_h_flag_is_input_error(self, tmp_path, capsys, h):
        path = write(tmp_path, "p.json", interval_problem())
        assert main(["enclose1d", path, "--h", h]) == 2
        assert "mesh width" in capsys.readouterr().err

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_c_rejected_at_load(self, tmp_path, capsys, number):
        path = tmp_path / "p.json"
        payload = json.dumps(interval_problem(oned={"c": "C"}))
        path.write_text(payload.replace('"C"', number))
        assert main(["enclose1d", str(path)]) == 2
        assert "non-finite number" in capsys.readouterr().err

    def test_zero_source_gives_zero_table_quickly(self, tmp_path):
        import time

        path = write(tmp_path, "p.json", interval_problem(source="0"))
        out = tmp_path / "zero.csv"
        t0 = time.perf_counter()
        assert main(["enclose1d", path, "--out", str(out)]) == 0
        assert time.perf_counter() - t0 < 5.0
        for line in out.read_text().strip().splitlines()[1:]:
            _x, lo, hi = map(float, line.split(","))
            assert lo == 0.0 == hi


class TestEnclose2D:
    def test_square_row(self, tmp_path):
        path = write(tmp_path, "p.json", square_problem())
        out = tmp_path / "r.csv"
        assert main(["enclose2d", path, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "point_x,point_y,lower,upper,width,rel_error"
        x, y, lo, hi, width, rel = lines[1].split(",")
        assert float(lo) <= 0.07367135328151381 <= float(hi)

    def test_deterministic_output(self, tmp_path):
        path = write(tmp_path, "p.json", square_problem())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["enclose2d", path, "--out", str(out1)]) == 0
        assert main(["enclose2d", path, "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("argv", [
        ["enclose2d", "square.json", "--emit-plot"],
        ["enclose1d", "interval.json", "--emit-plot"],
        ["enclose1d", "interval.json", "--threads", "2"],
    ])
    def test_unknown_flag_rejected(self, tmp_path, argv):
        write(tmp_path, "square.json", square_problem())
        write(tmp_path, "interval.json", interval_problem())
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(tmp_path / argv[1]), *argv[2:]])
        assert exc.value.code == 2

    def test_boundary_point_rejected(self, tmp_path):
        path = write(tmp_path, "p.json", square_problem(points=[[0.5, 0.0]]))
        assert main(["enclose2d", path]) == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["enclose2d", str(p)]) == 2

    def test_schema_rejects_unknown_field(self, tmp_path):
        payload = square_problem()
        payload["unexpected"] = 1
        path = write(tmp_path, "p.json", payload)
        assert main(["enclose2d", path]) == 2

    @pytest.mark.parametrize("key", ["deg_k", "deg_u"])
    def test_degree_above_the_constant_tables_rejected_at_load(self, tmp_path, capsys, key):
        path = write(tmp_path, "p.json", square_problem(quad={key: 33}))
        assert main(["enclose2d", path]) == 2
        assert "problem file rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_nonpositive_mfs_tol_rejected_at_load(self, tmp_path, capsys, tol):
        path = write(tmp_path, "p.json", square_problem(mfs={"n": 33, "tol": tol}))
        assert main(["enclose2d", path]) == 2
        assert "problem file rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("R", [1.0, 0.9, -1.0])
    @pytest.mark.parametrize("key", ["R_far", "R_near"])
    def test_R_at_most_one_rejected_at_load(self, tmp_path, capsys, key, R):
        mfs = {"n": 33, key: R, "corner": [0.5, 0.5]}
        path = write(tmp_path, "p.json", square_problem(mfs=mfs))
        assert main(["enclose2d", path]) == 2
        assert "problem file rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "1e400"])
    def test_non_finite_R_rejected_at_load(self, tmp_path, capsys, number):
        path = tmp_path / "p.json"
        payload = json.dumps(square_problem(mfs={"n": 33, "R_far": "R"}))
        path.write_text(payload.replace('"R"', number))
        assert main(["enclose2d", str(path)]) == 2
        assert "non-finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("quad", [{"subdiv": 16}, {"tol": 1e-10}])
    def test_unknown_quad_key_rejected(self, tmp_path, capsys, quad):
        path = write(tmp_path, "p.json", square_problem(quad=quad))
        assert main(["enclose2d", path]) == 2
        assert "problem file rejected" in capsys.readouterr().err

    def test_missing_schema_version(self, tmp_path):
        payload = square_problem()
        del payload["schema"]
        path = write(tmp_path, "p.json", payload)
        assert main(["enclose2d", path]) == 2

    def test_mixed_source_needs_split(self, tmp_path):
        path = write(
            tmp_path, "p.json",
            square_problem(source="(x-0.125)^2+(y-0.25)^3"),
        )
        assert main(["enclose2d", path]) == 4

    def test_split_accepted(self, tmp_path):
        path = write(
            tmp_path, "p.json",
            square_problem(
                source="(x-0.125)^2+(y-0.25)^3",
                split={
                    "plus": "((x-0.125)^2+(y-0.25)^3)+0.43",
                    "minus": "0.43",
                },
            ),
        )
        out = tmp_path / "s.csv"
        assert main(["enclose2d", path, "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_missing_file(self):
        assert main(["enclose2d", "/nonexistent/problem.json"]) == 2

    @pytest.mark.parametrize("vertices, source, terms", [
        (CENTRED, "x*x", [("x2", "1")]),
        (CENTRED, "x*x+y*y", [("x2", "1"), ("1", "x2")]),
        (UNIT, "x*y", [("X", "X")]),
        (UNIT, "x*(1-x)", [("X-X2", "1")]),
    ], ids=["x*x", "x*x+y*y", "x*y", "x*(1-x)"])
    def test_nonnegative_product_sources_need_no_split(self, tmp_path, vertices, source, terms):
        """Products whose factors prove them nonnegative certify their sign
        (exit 0), and each enclosure contains the double sine series."""
        points = [[0.5, 0.5], [0.3, 0.6]] if vertices is UNIT else [[0.0, 0.0], [0.2, -0.1]]
        path = write(tmp_path, "p.json", square_problem(
            domain={"type": "polygon", "vertices": vertices}, source=source, points=points))
        out = tmp_path / "r.csv"
        assert main(["enclose2d", path, "--out", str(out)]) == 0
        shift = 0.0 if vertices is UNIT else 0.5
        for line, (x, y) in zip(out.read_text().strip().splitlines()[1:], points):
            lo, hi = map(float, line.split(",")[2:4])
            assert lo <= sine_series(terms, x + shift, y + shift) <= hi



@pytest.mark.parametrize("command, problem", [
    ("enclose2d", square_problem(source="x +")),
    ("enclose2d", square_problem(source="foo(x)")),
    ("enclose1d", interval_problem(source="x^0.5")),
    ("enclose1d", interval_problem(source="1e400")),
    ("enclose2d", square_problem(split={"plus": "1", "minus": "sin("})),
    ("enclose2d", square_problem(
        domain={"type": "polygon", "vertices": [[0, 0], [1, 1], [1, 0], [0, 1]]})),
    ("enclose1d", interval_problem(
        source={"breakpoints": [0.5, 0.25], "pieces": ["1", "2", "3"]})),
], ids=["dangling-op", "unknown-function", "fractional-power", "overflowing-literal",
        "split-parse", "zero-area-polygon", "unordered-breakpoints"])
def test_invalid_problem_content_is_input_error(tmp_path, capsys, command, problem):
    """Sources that do not parse (an overflowing literal included), a
    zero-area polygon and unordered breakpoints exit 2, not 3."""
    path = write(tmp_path, "p.json", problem)
    assert main([command, path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, problem, key", [
    ("enclose1d", interval_problem(points=[[0.5, 0.5]]), "points"),
    ("enclose1d", interval_problem(split={"plus": "1", "minus": "0"}), "split"),
    ("enclose1d", interval_problem(mfs={"n": 33}), "mfs"),
    ("enclose1d", interval_problem(quad={"fan_splits": 2}), "quad"),
    ("enclose2d", square_problem(oned={"h": 0.3, "c": 5}), "oned"),
    ("enclose2d", square_problem(mfs={"n": 33, "R_near": 1.5}), "R_near"),
], ids=["1d-points", "1d-split", "1d-mfs", "1d-quad", "2d-oned", "2d-R_near-without-corner"])
def test_unread_problem_key_is_input_error(tmp_path, capsys, command, problem, key):
    """A key the command would ignore is rejected by name."""
    path = write(tmp_path, "p.json", problem)
    assert main([command, path]) == 2
    assert key in capsys.readouterr().err


class TestSelftest:
    def test_passes_quickly(self, capsys):
        import time

        t0 = time.perf_counter()
        assert main(["selftest"]) == 0
        assert time.perf_counter() - t0 < 30.0
        out = capsys.readouterr().out
        assert "PASS interval-containment-2000-random" in out
        assert "PASS boundary-extrema-sandwich" in out
        assert "FAIL" not in out.replace("FAIL'", "")

    def test_plain_install_brings_mpmath(self):
        """selftest checks against mpmath, so mpmath is a runtime
        dependency, not only a test extra."""
        tomllib = pytest.importorskip("tomllib")
        meta = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text())
        assert any(dep.startswith("mpmath") for dep in meta["project"]["dependencies"])

    def test_detects_corrupted_rounding(self, capsys):
        iv._set_outward_rounding(False)
        try:
            code = main(["selftest"])
        finally:
            iv._set_outward_rounding(True)
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
