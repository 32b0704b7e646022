"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

import json
import os
import sys
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import carnot.cli  # noqa: E402,F401
import machine  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from carnot import distance, expmap, geodesics, groups  # noqa: E402


def test_self_time_subtracts_children_on_a_synthetic_tree():
    tree = spans.SpanTable.from_rows(
        [
            ("distance", "distance_batch", 0.0, 10.0, -1, 0, 4),
            ("expmap", "__post_init__", 1.0, 3.0, 0, 0, 8),
            ("expmap", "point", 4.0, 8.0, 0, 0, 5),
            ("trig", "t1", 5.0, 6.0, 2, 0, 100),
            ("trig", "sinc", 5.2, 5.7, 3, 0, 100),
        ]
    )
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 0.5, 0.5])
    assert spans._under(tree, "layer", "expmap").tolist() == [False, False, False, True, True]
    m = spans.layer_metrics(tree, speed=2.0)
    assert m["distance.self_s"] == pytest.approx(2.0)
    assert m["expmap.self_s"] == pytest.approx(2.5)
    assert m["trig.self_s"] == pytest.approx(0.5)
    assert m["trig.calls"] == 2
    assert m["trig.elems"] == 100  # the nested sinc is not counted twice
    assert m["expmap.covectors_built"] == 8
    assert m["expmap.points_evaluated"] == 5
    assert m["distance.builds_per_target"] == pytest.approx(0.25)


def test_empty_trace_gives_zero_metrics():
    m = spans.layer_metrics(spans.SpanTable.from_rows([]), speed=1.0)
    assert m["trig.calls"] == 0 and m["trig.ns_per_elem"] == 0.0


def _originals():
    return {
        "geodesics.frame_apply": geodesics.frame_apply,
        "distance.group_product": distance.group_product,
        "distance.distance_batch": distance.distance_batch,
        "expmap._trig.t1": expmap._trig.t1,
        "ClosedFormPath.point": expmap.ClosedFormPath.__dict__["point"],
        "ClosedFormPath.__post_init__": expmap.ClosedFormPath.__dict__["__post_init__"],
    }


def test_wrappers_are_installed_where_callers_look_and_removed_after():
    before = _originals()
    with spans.Tracer() as tracer:
        assert geodesics.frame_apply is not before["geodesics.frame_apply"]
        assert groups.frame_apply is geodesics.frame_apply
        assert expmap.ClosedFormPath.__dict__["point"] is not before["ClosedFormPath.point"]
        tracer.active = True
        distance.distance_point(groups.h1(), np.zeros(3), np.array([0.3, 0.2, 0.05]))
        tracer.active = False
        names = set(tracer.table().name.tolist())
        assert {"distance_point", "distance_batch", "group_product", "__post_init__", "point", "t1", "sinc"} <= names
    assert _originals() == before
    assert spans.installed_wrappers() == []


def test_wrappers_are_removed_when_the_run_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert _originals() == before
    assert spans.installed_wrappers() == []


@pytest.mark.parametrize("name", ["shoot-corank1", "cli"])
def test_traced_and_untraced_outputs_are_bit_identical(name):
    wl = workloads.workloads(ROOT)[name]
    st = wl.setup(3)
    plain, rounds = run.run_rounds(wl, st, machine.SpeedClock(), rounds=1, inprocess=True)
    with spans.Tracer() as tracer:
        traced, _ = run.run_rounds(wl, st, machine.SpeedClock(), rounds=rounds, tracer=tracer, inprocess=True)
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert [r.verdicts for r in plain] == [r.verdicts for r in traced]
    assert len(tracer) > 0


def test_same_seed_same_inputs_other_seed_other_inputs():
    wl = workloads.workloads(ROOT)["cli"]
    st = wl.setup(1)
    first = [op.run.args for op in next(wl.rounds(st))]
    again = [op.run.args for op in next(wl.rounds(st))]
    other = [op.run.args for op in next(wl.rounds(workloads.State(2, st.groups)))]
    assert len(first) == 6
    assert first == again
    assert first != other


def test_exp_oracle_agrees_with_the_closed_form_path():
    rng = np.random.default_rng(0)
    for g in (groups.h1(), groups.hn(3), groups.random_two_step(4, 3, rng)):
        P0 = rng.standard_normal(g.n)
        P0[: g.h] /= np.linalg.norm(P0[: g.h])
        want = expmap.ClosedFormPath(group=g, x0=np.zeros(g.n), P0=P0).point(1.7)
        assert np.max(np.abs(oracle.exp2(g.C, g.h, P0, 1.7) - want)) < 1e-12


def test_length_verdicts():
    assert oracle.classify_length(2.0, exact=2.0) == "ok"
    assert oracle.classify_length(2.0 * 1.01, exact=2.0) == "wrong"
    assert oracle.classify_length(2.0 / 1.01, exact=2.0) == "invalid"
    assert oracle.classify_length(1.5, upper=2.0, lower=1.0) == "ok"
    assert oracle.classify_length(0.99, upper=2.0, lower=1.0) == "invalid"
    assert oracle.classify_length(float("nan"), exact=2.0) == "invalid"


def test_distance_oracle_rejects_a_perturbed_answer():
    g = groups.hn(3)
    P0 = np.concatenate([np.eye(6)[0], [0.5]])
    target = oracle.exp2(g.C, g.h, P0, 2.0)
    assert workloads._check_point(g, target, 2.0, SimpleNamespace(T=2.0, P0=P0)) == ["ok"]
    assert workloads._check_point(g, target, 2.0, SimpleNamespace(T=2.0 * 1.01, P0=P0)) != ["ok"]
    bent = P0 + np.array([0, 0, 0, 0, 0, 0, 0.01])
    assert workloads._check_point(g, target, 2.0, SimpleNamespace(T=2.0, P0=bent)) == ["invalid:endpoint"]


def test_batch_oracle_rejects_a_perturbed_answer():
    g = groups.random_two_step(4, 3, np.random.default_rng(workloads.CORANK3_GROUP_SEED))
    P0 = np.concatenate([np.eye(4)[1], [0.2, -0.1, 0.3]])
    ys = oracle.exp2(g.C, g.h, P0, 1.5)[None]
    batch = SimpleNamespace(T=np.array([1.5]), P0=P0[None], converged=np.array([True]))
    assert workloads._check_batch(g, ys, np.array([1.5]), batch) == ["ok"]
    assert workloads._check_batch(g, ys, np.array([1.5 / 1.01]), batch) == ["wrong"]
    batch.T = batch.T * 1.01
    assert workloads._check_batch(g, ys, np.array([1.5]), batch) != ["ok"]
    batch.converged = np.array([False])
    assert workloads._check_batch(g, ys, np.array([1.5]), batch) == ["unconverged"]


def test_cli_check_rejects_text_after_the_json():
    check = partial(workloads._check_cli, partial(workloads._check_cli_distance, 1.0))
    doc = json.dumps({"distance": 1.0}).encode()
    assert check(workloads.CliResult(0, doc)) == ["ok"]
    assert check(workloads.CliResult(0, doc + b"\nretained: 4 of 12 swept\n")) == ["json"]
    assert check(workloads.CliResult(0, doc[:-1])) == ["json"]
    assert check(workloads.CliResult(0, json.dumps({"distance": 1.01}).encode())) == ["wrong"]
    assert check(workloads.CliResult(4, b"")) == ["raised:exit4"]
    assert check(workloads.CliResult(1, b"")) == ["invalid:exit1"]


def _scale_last_row(text, col):
    lines = text.decode().splitlines()
    row = [float(v) for v in lines[-1].split()]
    row[col] *= 1.01
    return ("\n".join(lines[:-1] + [" ".join("%.12e" % v for v in row)]) + "\n").encode()


def test_cli_checks_accept_the_program_and_reject_perturbed_answers():
    wl = workloads.workloads(ROOT)["cli"]
    st = wl.setup(4)
    ops = {op.kind: op for op in next(wl.rounds(st))}
    out = {kind: op.run_traced() for kind, op in ops.items()}
    assert {kind: ops[kind].check(res) for kind, res in out.items()} == {kind: ["ok"] for kind in ops}
    assert not os.path.exists(wl.out)

    def bent(kind, **changes):
        return ops[kind].check(replace(out[kind], **changes))

    assert bent("exp", stdout=_scale_last_row(out["exp"].stdout, 1)) == ["invalid:exp-vs-closed-form"]
    assert bent("jacobi", stdout=_scale_last_row(out["jacobi"].stdout, 2)) == ["invalid:jacobi-vs-variation"]
    assert bent("exp", stdout=out["exp"].stdout + b"retained: 1\n") == ["invalid:table"]
    doc = json.loads(out["geodesic"].main)
    doc["x"][-1][3] *= 1.01
    assert bent("geodesic", main=json.dumps(doc).encode()) == ["invalid:rk4-vs-engel-oracle"]
    assert bent("sphere", main=out["sphere"].main + b"retained: 4 of 12 swept\n") == ["json"]
    doc = json.loads(out["surface project"].stdout)
    doc["t"] *= 1.01
    assert bent("surface project", stdout=json.dumps(doc).encode()) == ["invalid:round-trip"]


def test_known_defect_probes_are_fixed_and_show_the_defects():
    table = workloads.workloads(ROOT)
    wl = table["cli"]
    st = wl.setup(1)
    assert run.probe_verdicts(wl, st) == ["ok", "json", "json", "json", "ok", "json"]
    assert not os.path.exists(wl.out)
    wl = table["shoot-corank1"]
    st = wl.setup(1)
    first, again = wl.probes(st), wl.probes(workloads.State(2, st.groups))
    assert [op.run.args[1].tolist() for op in first] == [op.run.args[1].tolist() for op in again]
    assert table["flow-chart"].probes(st) == []


def test_flow_checks_reject_perturbed_answers():
    g = groups.h1()
    rng = np.random.default_rng(1)
    xs, ts = workloads._h1_planted_points(g, rng, 3)
    res = SimpleNamespace(y=xs, t=ts)  # the targets themselves lie off the surface
    assert workloads._check_projection(g, workloads._h1_surface_gradient, xs, ts, res) == ["invalid:round-trip"]

    h3 = groups.hn(3)
    P = np.concatenate([np.eye(6)[2], [0.7]])[None]
    tr = geodesics.integrate_normal(h3, np.zeros(7), P, 1.0, 200)
    assert workloads._check_closed_form(h3, P, 1.0, tr) == ["ok"]
    tr.xs[-1, 0, 6] *= 1.01
    assert workloads._check_closed_form(h3, P, 1.0, tr) == ["invalid:rk4-vs-closed-form"]


def test_engel_check_catches_a_wrong_step3_frame(monkeypatch):
    g = groups.engel()
    P = np.array([[0.6, 0.8, 0.5, -0.7], [1.0, 0.0, -0.3, 0.9]])
    tr = geodesics.integrate_normal(g, np.zeros(4), P, 1.5, 1500)
    assert workloads._check_engel(P, 1.5, tr) == ["ok"]
    real = groups._nilpotent_apply

    def no_step3_term(group, x, w):  # frame_apply without its 1/12 correction
        return -0.5 * np.einsum("bij,...i,...j->...b", group.CV, w, x)

    monkeypatch.setattr(groups, "_nilpotent_apply", no_step3_term)
    bent = geodesics.integrate_normal(g, np.zeros(4), P, 1.5, 1500)
    monkeypatch.setattr(groups, "_nilpotent_apply", real)
    assert workloads._check_engel(P, 1.5, bent) == ["invalid:rk4-vs-engel-oracle"]


def _flow_round(seed=1):
    wl = workloads.workloads(ROOT)["flow-chart"]
    st = wl.setup(seed)
    return {op.kind: op for op in next(wl.rounds(st))}


def test_jacobi_check_accepts_the_program_and_rejects_perturbed_fields():
    op = _flow_round()["integrate_jacobi"]
    fld = op.run()
    assert op.check(fld) == ["ok"]
    fld.components[:, 1] *= 1.01
    assert op.check(fld) == ["invalid:jacobi-vs-variation"]
    fld.components[:] = 0.0
    assert op.check(fld) == ["invalid:jacobi-vs-variation"]


def test_chart_check_accepts_the_program_and_rejects_a_bent_chart():
    op = _flow_round()["build_chart"]
    chart = op.run()
    assert op.check(chart) == ["ok"]
    E = chart.E.copy()
    chart.E = E[:, ::-1] * 1.01
    assert op.check(chart) == ["invalid:chart"]
    chart.E = E
    chart.eps0 = 0.0
    assert op.check(chart) == ["invalid:chart"]


def test_projection_check_accepts_the_planted_answer():
    g = groups.h1()
    xs, ts = workloads._h1_planted_points(g, np.random.default_rng(2), 4)
    field = carnot.cli._parse_surface(workloads.H1_SURFACE, 3)
    chart = carnot.surfaces.build_chart(g, field, np.zeros(3), radius=1.0, eps0=0.5)
    res = carnot.surfaces.project_to_surface(chart, xs)
    grad = workloads._h1_surface_gradient
    assert workloads._check_projection(g, grad, xs, ts, res) == ["ok"]
    res.t = res.t * 1.01
    assert workloads._check_projection(g, grad, xs, ts, res) == ["invalid:round-trip"]


def test_without_sources_the_benchmark_exits_nonzero(tmp_path, capsys):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    saved = run.ROOT
    try:
        run.ROOT = str(tmp_path)
        assert run.main(["--workload", "cli", "--seed", "1"]) == 2
    finally:
        run.ROOT = saved
    assert capsys.readouterr().out == ""
