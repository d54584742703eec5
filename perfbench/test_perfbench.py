"""The benchmark's own checks: every workload runs at a tiny size, and each
correctness check fails on a planted fault.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus as C  # noqa: E402
import run  # noqa: E402

TINY = {
    "trickle": dict(recipes=8, min_commits=2),
    "toolchain_bump": dict(recipes=8, independent=2, min_commits=2),
    "bulk_payload": dict(recipes=3, payload_bytes=3 * C.CHUNK + 17, min_commits=2),
}


@pytest.fixture(autouse=True)
def tiny_shapes(monkeypatch):
    for name, sizes in TINY.items():
        monkeypatch.setitem(C.SHAPES, name, dataclasses.replace(C.SHAPES[name], **sizes))


def measured(workload, tmp_path, trace=0, seed=5):
    """Set up a tiny workspace and run exactly ``min_commits`` commits."""
    spec = C.make_spec(workload, seed)
    ws = run.Workspace(tmp_path / "ws")
    run.setup(spec, ws, width=2, clock=run.make_clock(workload, tmp_path / "probe"))
    result = run.measure({
        "workload": workload, "seed": seed, "seconds": 0, "first": 0, "trace": trace, "width": 2,
        "workspace": str(ws.root), "src": str(HERE.parent / "src"),
        "trace_path": str(tmp_path / "trace.json"),
    })
    return spec, ws, result


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_runs_clean(workload, tmp_path):
    spec, ws, result = measured(workload, tmp_path)
    assert result["error"] is None
    assert result["commits"] == spec.shape.min_commits
    assert all(failed == 0 for _, failed in result["ops"].values())
    assert all(value > 0 for value in run.summarize(spec, [result]).values())
    run.check_final(spec, ws, 0, result["commits"])


def test_segments_continue_the_commit_stream(tmp_path):
    spec, ws, one = measured("bulk_payload", tmp_path / "one")
    first = run.summarize(spec, [one])
    ws = run.Workspace(tmp_path / "two" / "ws")
    run.setup(spec, ws, width=2, clock=run.make_clock("bulk_payload", tmp_path / "two" / "probe"))
    two = run.measure({
        "workload": "bulk_payload", "seed": 5, "seconds": 0, "first": one["commits"],
        "trace": 0, "width": 2, "workspace": str(ws.root), "src": str(HERE.parent / "src"),
        "trace_path": str(tmp_path / "trace.json"),
    })
    assert two["error"] is None
    run.check_final(spec, ws, one["commits"], two["commits"])
    with pytest.raises(run.CheckFailed, match="site files differ"):
        run.check_final(spec, ws, 0, two["commits"])
    both = run.summarize(spec, [one, two])
    assert both["repo_bytes_per_rev"] == first["repo_bytes_per_rev"]
    assert len(one["c2s"] + two["c2s"]) == 2 * spec.shape.min_commits


@pytest.mark.parametrize("workload", sorted(TINY))
def test_seed_varies_content_not_dag(workload):
    one, two = C.make_spec(workload, 1), C.make_spec(workload, 2)
    assert one.deps == two.deps
    assert one.tokens != two.tokens and one.stamps != two.stamps


def test_clock_scales_by_the_probe():
    times = iter([0.01, 0.03, 0.02])
    clock = run.Clock(lambda: next(times), reference_s=0.004)
    assert clock.scale() == pytest.approx(0.004 / 0.02)
    assert clock.scale() == pytest.approx(0.004 / 0.025)


def test_every_workload_has_a_probe(tmp_path):
    assert run.PROBES.keys() == C.SHAPES.keys()
    for workload, (mix, reference_s) in run.PROBES.items():
        assert reference_s > 0
        assert run.Probe(tmp_path / workload, *mix)() > 0
        assert not any((tmp_path / workload).iterdir())


def test_same_seed_same_bytes(tmp_path):
    metrics = []
    for i in range(2):
        spec, _, result = measured("trickle", tmp_path / str(i), seed=3)
        metrics.append(run.summarize(spec, [result]))
    for name in ("repo_bytes_per_rev", "site_write_bytes_per_rev"):
        assert metrics[0][name] == metrics[1][name]


def test_traced_run_writes_every_layer(tmp_path):
    spec, _, result = measured("trickle", tmp_path, trace=1)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= run.summarize(spec, [result]).keys()
    doc = json.loads((tmp_path / "trace.json").read_text())
    names = {span["name"] for span in doc["spans"]}
    assert {"cli.run", "pipeline.run_plan", "pipeline.run_job", "repo.publish",
            "siteclient.sync"} <= names
    by_id = {span["id"]: span for span in doc["spans"]}
    job = next(s for s in doc["spans"] if s["name"] == "pipeline.run_job")
    assert by_id[job["parent"]]["name"] == "pipeline.run_plan"


def test_flipped_site_byte_is_caught(tmp_path):
    spec, ws, result = measured("trickle", tmp_path)
    victim = next(p for p in sorted((ws.site / "tree").rglob("*")) if p.is_file()
                  and p.parent.name == "bin")
    data = bytearray(victim.read_bytes())
    data[0] ^= 0x01
    victim.write_bytes(bytes(data))
    with pytest.raises(run.CheckFailed, match="site files differ"):
        run.check_final(spec, ws, 0, result["commits"])


def test_dropped_job_is_caught():
    spec = C.make_spec("toolchain_bump", 5)
    changed = [spec.names[0]]
    rebuilt = C.rebuild_set(spec, changed)
    order = [n for n in spec.names if n in rebuilt]  # names are in dependency order
    lines = [f"{n}/{C.VERSION} {t} Delivered 3" for n in order for t in C.TARGETS]

    def report(jobs):
        return "\n".join(jobs + ["RESULT ok", "published revision 2 (job c00001)"]) + "\n"

    assert run.check_run_report(spec, changed, report(lines)) == len(lines)
    with pytest.raises(run.CheckFailed, match="planned"):
        run.check_run_report(spec, changed, report(lines[:3] + lines[4:]))
    with pytest.raises(run.CheckFailed, match="before its dependency"):
        run.check_run_report(spec, changed, report(lines[::-1]))


def test_corrupt_repo_object_is_caught(tmp_path):
    spec, ws, result = measured("bulk_payload", tmp_path)
    blob = next(p for p in sorted((ws.repo / "objects").glob("??/*")))
    blob.write_bytes(blob.read_bytes() + b"x")
    with pytest.raises(run.CheckFailed, match="does not hash to its name"):
        run.check_final(spec, ws, 0, result["commits"])


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "trickle", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
