"""Command-line behavior: outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from carnot.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise KeyError(key)


def test_distance_vertical_axis(capsys):
    code, out, _ = run(
        capsys, "distance", "--group", "h1", "--from", "0,0,0", "--to", "0,0,1"
    )
    assert code == 0
    assert abs(float(report_value(out, "distance")) - 2.0 * np.sqrt(np.pi)) < 1e-4
    assert report_value(out, "multiplicity") == "true"


def test_distance_identical_points(capsys):
    code, out, _ = run(
        capsys, "distance", "--group", "h1", "--from", "1,2,3", "--to", "1,2,3"
    )
    assert code == 0
    assert float(report_value(out, "distance")) == 0.0


def test_distance_rejects_engel(capsys):
    code, _, err = run(
        capsys, "distance", "--group", "engel", "--from", "0,0,0,0",
        "--to", "1,0,0,0",
    )
    assert code == 3
    assert "2-step" in err


def test_unknown_group_lists_builtins(capsys):
    code, _, err = run(
        capsys, "geodesic", "--group", "nope", "--x0", "0,0,0",
        "--p0", "1,0,0", "--T", "1",
    )
    assert code == 2
    assert "h1" in err and "engel" in err


def test_bad_vector_width(capsys):
    code, _, err = run(
        capsys, "distance", "--group", "h1", "--from", "0,0", "--to", "0,0,1"
    )
    assert code == 2
    assert "3" in err


def assert_config_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_group_file_exit_2(capsys, tmp_path):
    for name, text in (
        ("three.txt", "growth: 2 1\n3 1 2\n"),
        ("cut.json", '{"growth": [2, 1], "constants": [[3, 1'),
        ("nogrowth.json", '{"constants": [[3, 1, 2, 1.0]]}'),
    ):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(
            capsys, "geodesic", "--group", str(path), "--x0", "0,0,0",
            "--p0", "1,0,0", "--T", "1",
        )
        assert_config_error(code, out, err)


def test_bad_group_file_error_names_the_file(capsys, tmp_path):
    # both file forms: the error line says which file is malformed
    for name, text in (
        ("three.txt", "growth: 2 1\n3 1 2\n"),
        ("cut.json", '{"growth": [2, 1], "constants": [[3, 1'),
    ):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(
            capsys, "geodesic", "--group", str(path), "--x0", "0,0,0",
            "--p0", "1,0,0", "--T", "1",
        )
        assert_config_error(code, out, err)
        assert err.startswith("error: %s:" % path)


def test_bad_starts_exit_2(capsys, tmp_path):
    # corank 2: [e1, e2] = e4, [e1, e3] = e5, so the start lattice is used
    path = tmp_path / "c2.txt"
    path.write_text("growth: 3 2\n4 1 2 1.0\n5 1 3 1.0\n")
    group = str(path)
    for starts in ("0", "40"):
        code, out, err = run(
            capsys, "distance", "--group", group, "--from", "0,0,0,0,0",
            "--to", "1,0,0,0.1,0", "--starts", starts,
        )
        assert_config_error(code, out, err)
        assert "starts" in err
    code, out, err = run(
        capsys, "sphere", "--group", group, "--center", "0,0,0,0,0",
        "--radius", "1", "--n-dirs", "2", "--n-vert", "2", "--starts", "33",
    )
    assert_config_error(code, out, err)


def test_out_of_range_values_exit_2(capsys):
    conjugate = ["conjugate", "--group", "h1", "--x0", "0,0,0", "--p0", "1,0,1"]
    for argv, word in (
        (conjugate + ["--t-max", "10", "--samples", "0"], "samples"),
        (conjugate + ["--t-max", "10", "--samples", "1"], "samples"),
        (conjugate + ["--t-max", "0"], "t_max"),
        # conjugate times pi apart: 400 samples cannot scan 1e4 of them
        (conjugate + ["--t-max", "10000"], "samples >= 3184"),
        (["sphere", "--group", "h1", "--center", "0,0,0", "--radius", "0"],
         "radius"),
        (["surface", "metric-normal", "--group", "h1", "--f", "x1",
          "--at", "0,0,0", "--samples", "-2"], "samples"),
        (["surface", "project", "--group", "h1", "--f", "x1",
          "--at", "0.1,0,0", "--eps0=-1"], "eps0"),
        (["surface", "delta", "--group", "h1", "--f", "x1",
          "--at", "0.1,0,0", "--radius=-1"], "radius"),
    ):
        code, out, err = run(capsys, *argv)
        assert_config_error(code, out, err)
        assert word in err


def test_geodesic_trace_and_diagnostics(capsys, tmp_path):
    out_file = tmp_path / "trace.txt"
    code, out, err = run(
        capsys, "geodesic", "--group", "h1", "--x0", "0,0,0",
        "--p0", "1,0,0.5", "--T", "6.283", "--steps", "500",
        "--out", str(out_file),
    )
    assert code == 0 and out == ""
    assert float(report_value(err, "ph_norm_drift_per_unit_time")) < 1e-9
    lines = out_file.read_text().strip().split("\n")
    assert lines[0].split() == ["t", "x1", "x2", "x3", "P1", "P2", "P3"]
    assert len(lines) == 502


def test_geodesic_vertical_momentum_warns(capsys):
    code, _, err = run(
        capsys, "geodesic", "--group", "h1", "--x0", "0,0,0",
        "--p0", "0,0,2", "--T", "1", "--steps", "10",
    )
    assert code == 0
    assert "constant curve" in err


def test_exp_table(capsys):
    code, out, _ = run(
        capsys, "exp", "--group", "h2", "--x0", "0,0,0,0,0",
        "--p0", "1,0,0,1,0.5", "--T", "2", "--samples", "5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split()[0] == "t"
    assert len(lines) == 6
    assert len(lines[1].split()) == 11


def test_conjugate_first_circle_time(capsys):
    code, out, _ = run(
        capsys, "conjugate", "--group", "h1", "--x0", "0,0,0",
        "--p0", "1,0,1", "--t-max", "7",
    )
    assert code == 0
    assert report_value(out, "count") == "1"
    t = float(report_value(out, "times").split(",")[0])
    assert abs(t - 2.0 * np.pi) < 1e-5


def test_jacobi_table(capsys):
    code, out, _ = run(
        capsys, "jacobi", "--group", "h1", "--x0", "0,0,0",
        "--p0", "1,0,1", "--y0", "0,0,0", "--ydot0", "0,1,0",
        "--T", "1", "--steps", "50",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split()[:3] == ["t", "Y1", "Y2"]
    assert len(lines) == 52


def test_sphere_cloud(capsys):
    code, out, err = run(
        capsys, "sphere", "--group", "h1", "--center", "0,0,0",
        "--radius", "1", "--n-dirs", "8", "--n-vert", "5", "--starts", "8",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split()[0] == "x1"
    assert "retained:" in err and "retained:" not in out


def test_orthogonality_trace(capsys):
    code, out, _ = run(
        capsys, "orthogonality", "--group", "h1", "--x0", "0,0,0",
        "--nu", "1,0", "--varpi", "0.5", "--r", "1", "--steps", "100",
    )
    assert code == 0
    assert out.startswith("t x1")


def test_orthogonality_unit_gate(capsys):
    code, _, err = run(
        capsys, "orthogonality", "--group", "h1", "--x0", "0,0,0",
        "--nu", "0.5,0", "--varpi", "0.5", "--r", "1",
    )
    assert code == 3
    assert "NotUnit" in err


def test_surface_delta_hyperplane(capsys):
    code, out, _ = run(
        capsys, "surface", "delta", "--group", "h1", "--f", "x1",
        "--at", "0.3,0,0",
    )
    assert code == 0
    assert abs(float(report_value(out, "delta_H")) - 0.3) < 1e-9
    assert abs(float(report_value(out, "grad_H_norm")) - 1.0) < 1e-9


def test_surface_normals_characteristic(capsys):
    code, out, err = run(
        capsys, "surface", "normals", "--group", "h1", "--f", "x3",
        "--at", "0,0,0",
    )
    assert code == 0
    assert report_value(out, "characteristic") == "true"
    assert "characteristic point" in err
    code, out, err = run(
        capsys, "surface", "normals", "--group", "h1", "--f", "x3",
        "--at", "0,0,0", "--format", "json",
    )
    assert code == 0 and json.loads(out)["characteristic"] is True
    assert "characteristic point" in err


def test_surface_normals_values(capsys):
    code, out, _ = run(
        capsys, "surface", "normals", "--group", "h1", "--f", "x3",
        "--at", "1,0,0",
    )
    assert code == 0
    nuH = [float(w) for w in report_value(out, "nu_H").split(",")]
    varpi = [float(w) for w in report_value(out, "varpi").split(",")]
    np.testing.assert_allclose(nuH, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(varpi, [2.0], atol=1e-12)


def test_surface_project_round_trip(capsys):
    code, out, _ = run(
        capsys, "surface", "project", "--group", "h1", "--f", "x1-0.5*x2",
        "--at", "0.4,0.1,-0.05",
    )
    assert code == 0
    assert float(report_value(out, "round_trip_error")) < 1e-8


def test_surface_metric_normal_trace(capsys):
    code, out, _ = run(
        capsys, "surface", "metric-normal", "--group", "h1", "--f", "x1",
        "--at", "0,0,0", "--t-min", "0", "--t-max", "1", "--samples", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    last = [float(w) for w in lines[-1].split()]
    np.testing.assert_allclose(last[:4], [1.0, 1.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_trace_exits_3(capsys):
    # the closed form's area term overflows at |P_H| = 1e200, its turns at
    # eta T = 1e310; either way one line on stderr and no numpy warning
    for p0, T in (("1e200,0,1", "1"), ("1,0,1e300", "1e10")):
        code, out, err = run(
            capsys, "exp", "--group", "h1", "--x0", "0,0,0", "--p0", p0,
            "--T", T, "--samples", "3",
        )
        assert code == 3 and out == ""
        assert err.startswith("NonFiniteState:") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_metric_normal_leaving_the_floats_exits_3(capsys):
    code, out, err = run(
        capsys, "surface", "metric-normal", "--group", "h1", "--f", "x1+0.3*x3",
        "--at", "0,0,0", "--t-min", "0", "--t-max", "1e200",
    )
    assert code == 3 and out == ""
    assert err.startswith("NonFiniteState:") and err.count("\n") == 1


def test_geodesic_stepwise_integrator_matches_normal(capsys):
    argv = (
        "geodesic", "--group", "engel", "--x0", "0.1,0,-0.2,0.3",
        "--p0", "0.6,0.8,0.5,-0.4", "--T", "2", "--steps", "400",
    )
    traces = []
    for integrator in ("normal", "stepwise"):
        code, out, _ = run(capsys, *argv, "--integrator", integrator)
        assert code == 0
        traces.append(np.loadtxt(out.splitlines(), skiprows=1))
    assert traces[0].shape == (401, 9)
    assert np.max(np.abs(traces[1] - traces[0])) < 1e-8


def test_exp_tiny_frequency_beside_kernel(capsys, tmp_path):
    # corank 1, h = 5: frequencies 1 and about 1.9e-7 beside a kernel
    rng = np.random.default_rng(0)
    lam2 = 10 ** rng.uniform(-8, -6)
    B = np.zeros((5, 5))
    B[0, 1], B[1, 0], B[2, 3], B[3, 2] = 1.0, -1.0, lam2, -lam2
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    C1 = Q @ B @ Q.T
    C1 = 0.5 * (C1 - C1.T)
    consts = [[6, i + 1, j + 1, C1[i, j]] for i in range(5) for j in range(i + 1, 5)]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"growth": [5, 1], "constants": consts}))
    code, out, err = run(
        capsys, "exp", "--group", str(path), "--x0", "0,0,0,0,0,0",
        "--p0", "0.6,0,0.8,0,0,2", "--T", "1.5", "--samples", "3",
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) > 3


def test_jacobi_overflow_exits_3(capsys):
    code, out, err = run(
        capsys, "jacobi", "--group", "h1", "--x0", "0,0,0", "--p0", "1,0,1",
        "--y0", "1e308,0,0", "--ydot0", "1e308,1e308,0", "--steps", "10",
    )
    assert code == 3 and out == ""
    assert err.startswith("NonFiniteState:") and err.count("\n") == 1


def test_surface_parser_rejects_degree_4(capsys):
    code, _, err = run(
        capsys, "surface", "normals", "--group", "h1", "--f", "x1^4",
        "--at", "0,0,0",
    )
    assert code == 2
    assert "degree" in err


def test_non_finite_arguments_exit_2(capsys):
    code, out, err = run(
        capsys, "distance", "--group", "h1", "--from", "0,0,0",
        "--to", "nan,0,0",
    )
    assert code == 2 and out == ""
    assert "finite" in err
    for argv in (
        ["exp", "--group", "h1", "--x0", "0,0,0", "--p0", "1,0,0", "--T", "nan"],
        ["sphere", "--group", "h1", "--center", "0,0,0", "--radius", "inf"],
        ["conjugate", "--group", "h1", "--x0", "0,0,0", "--p0", "1,0,1",
         "--t-max=-inf"],
        ["orthogonality", "--group", "h1", "--x0", "0,0,0", "--nu", "1,0",
         "--varpi", "0", "--r", "nan"],
        ["surface", "metric-normal", "--group", "h1", "--f", "x1",
         "--at", "0,0,0", "--t-min", "nan"],
        ["surface", "project", "--group", "h1", "--f", "x1",
         "--at", "0,0,0", "--eps0", "inf"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "finite" in err


def test_surface_parser_rejects_junk(capsys):
    code, _, err = run(
        capsys, "surface", "normals", "--group", "h1", "--f", "x1+sin",
        "--at", "0,0,0",
    )
    assert code == 2


def test_json_format(capsys):
    code, out, _ = run(
        capsys, "distance", "--group", "h1", "--from", "0,0,0",
        "--to", "1,0,0", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert abs(blob["distance"] - 1.0) < 1e-9
    assert blob["multiplicity"] is False and blob["on_axis"] is False


def test_json_format_prints_one_document(capsys):
    commands = [
        ["distance", "--group", "h1", "--from", "0,0,0", "--to", "0.3,0.2,0.1"],
        ["exp", "--group", "h1", "--x0", "0,0,0", "--p0", "1,0,0.5",
         "--T", "1", "--samples", "5"],
        ["geodesic", "--group", "engel", "--x0", "0,0,0,0",
         "--p0", "0.6,0.8,0.3,-0.2", "--T", "1", "--steps", "20"],
        ["sphere", "--group", "h1", "--center", "0,0,0", "--radius", "1",
         "--n-dirs", "8", "--n-vert", "5", "--starts", "8"],
        ["surface", "project", "--group", "h1", "--f", "x1-0.5*x2",
         "--at", "0.4,0.1,-0.05"],
        ["jacobi", "--group", "h1", "--x0", "0,0,0", "--p0", "1,0,1",
         "--y0", "0,0,0", "--ydot0", "0,1,0", "--T", "1", "--steps", "10"],
    ]
    for argv in commands:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        assert isinstance(json.loads(out), dict), argv


def test_repeated_runs_identical(capsys):
    argv = ["distance", "--group", "h1", "--from", "0.1,0.2,0.3",
            "--to=-0.2,0.4,0.1"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
