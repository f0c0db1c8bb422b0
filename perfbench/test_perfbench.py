"""Tests of the plan benchmark. Run with `python -m pytest perfbench`."""

import json
from pathlib import Path

import pytest

import layers
import run
from tracing import Span, Tracer, group_seconds, self_times, summarize

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _nested_spans():
    #   a [0, 10]
    #     b [1, 4]
    #       c [2, 3]
    #     d [5, 9]
    #       b [6, 8]    same name as an ancestor
    return [Span("a", 0.0, 10.0, -1, 0), Span("b", 1.0, 4.0, 0, 0),
            Span("c", 2.0, 3.0, 1, 0), Span("d", 5.0, 9.0, 0, 0),
            Span("b", 6.0, 8.0, 3, 0)]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_nested_spans()) == [3.0, 2.0, 1.0, 2.0, 2.0]


def test_summary_and_groups_count_nested_time_once():
    spans = _nested_spans() + [Span("b", 20.0, 21.0, -1, 1), Span("b", 20.5, 20.75, 5, 1)]
    table = summarize(spans)
    assert table["b"] == {"calls": 4, "s": 3.0 + 2.0 + 1.0, "self_s": 2.0 + 2.0 + 0.75 + 0.25}
    assert table["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    # d holds a b, so the group {b, d} covers b [1, 4], d [5, 9] and b [20, 21]
    assert group_seconds(spans, ("b", "d")) == 3.0 + 4.0 + 1.0


def test_tracer_records_parents_and_only_inside_ops():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2,
                        on_return=lambda result, x: tracer.counts.update(out=result))
    assert outer(1) == 4 and tracer.spans == []
    tracer.op = 7
    assert outer(2) == 6
    assert tracer.spans == [Span("outer", 0.0, 3.0, -1, 7), Span("inner", 1.0, 2.0, 0, 7)]
    assert tracer.counts["out"] == 6


def test_derived_config_overrides_exactly_one_line():
    text = "n_slots = 30   # slots\nv_max = 3.0\n[obstacle]\nheight = 2.0\n"
    assert run.derive_config(text, {"n_slots": "120"}) == text.replace("30", "120")
    with pytest.raises(ValueError):
        run.derive_config(text, {"n_irs_elements": "64"})


def test_thread_caps_keep_smaller_settings():
    env = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "16", "MKL_NUM_THREADS": "x"}
    run.cap_threads(env, 2)
    assert env["OMP_NUM_THREADS"] == "1"
    assert all(env[var] == "2" for var in run.THREAD_VARS if var != "OMP_NUM_THREADS")


def test_per_layer_list_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == layers.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_planner(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "BASE_CONFIG", tmp_path / "configs" / "desk_scenario.cfg")
    assert run.main(["--workload", "desk-m64-r25", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_smoke_on_a_tiny_map(tmp_path):
    """desk-m64 on a 10x6 map with 5 draws per cell, untraced and traced."""
    configs = run.setup("desk-m64", tmp_path / "config")
    ops, loop_s = run.run_ops(configs, seed=3, seconds=0.001, out=tmp_path / "op",
                              grid=(10, 6), draws=5)
    assert [op.problem for op in ops] == [None]
    end_to_end = run.end_to_end_metrics(ops, loop_s, setup_s=0.5)
    assert list(end_to_end) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(value > 0 for value, _ in end_to_end.values())

    tracer = Tracer()
    traced_ops, _ = run.run_ops(configs, seed=3, seconds=0.001, out=tmp_path / "op",
                                tracer=tracer, grid=(10, 6), draws=5)
    assert [op.problem for op in traced_ops] == [None]
    assert traced_ops[0].energy_j == ops[0].energy_j > 0
    traced = {name: value for name, (value, _) in run.traced_metrics(traced_ops, tracer).items()}
    assert list(traced) == [name for name, _, _ in layers.PER_LAYER]
    assert traced["radiomap.cells"] == traced["channel.optimal_snr_samples.calls"] == 60
    assert traced["channel.draws"] == 300
    assert traced["sco.stop.epsilon"] + traced["sco.stop.plateau"] + traced["sco.stop.cap"] == 1
    assert traced["conic.solve.calls"] == traced["socp.assemble_p4.calls"] >= 1
    assert traced["conic.optimal_ratio"] == 1.0
    assert 0 < traced["socp.G_density"] < 1
    assert traced["conic.solve.self_s"] < traced["conic.solve.s"] < traced["sco.run.s"]
    assert traced["artifacts.bytes"] > 0
    assert 0 < traced["trace.overhead_frac"] < 1
    assert {span.op for span in tracer.spans} == {0}


def test_reruns_must_write_the_same_artifacts(tmp_path):
    configs = run.setup("desk-m64", tmp_path / "config")
    import irsplan.cli as cli

    references = {}
    for op_id in range(2):
        op = run.run_op(cli, configs[0], 0, 3, (10, 6), 5, tmp_path / "op", None, op_id,
                        references)
        assert op.problem is None
    references[0] = dict(references[0], **{"trace.csv": b""})
    op = run.run_op(cli, configs[0], 0, 3, (10, 6), 5, tmp_path / "op", None, 2, references)
    assert op.problem == "differs from the first op of this plan: trace.csv"
