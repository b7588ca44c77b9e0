"""Tests of the benchmark itself: python -m pytest bench

The smoke runs go through the same code path as a measured run, at tiny
sizes, in a few seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _span(id, parent, start, end, name="x"):
    return {"id": id, "parent": parent, "name": name, "start": start, "end": end,
            "thread": 0, "attrs": None}


def test_self_times_add_up_to_root_plus_overlap():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),   # two children running side by side
        _span(3, 1, 2.0, 6.0),
        _span(4, 3, 2.5, 3.0),
    ]
    selfs, overlap = self_times(spans)
    assert selfs == {1: 5.0, 2: 3.0, 3: 3.5, 4: 0.5}
    assert overlap == 2.0
    assert sum(selfs.values()) - overlap == 10.0


def test_tracer_keeps_parents_and_counts_across_threads():
    tracer = Tracer("stress")
    inner = tracer.wrap("inner", lambda: tracer.count("calls"))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(20)])
    threads = [threading.Thread(target=lambda: [outer() for _ in range(50)])
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert tracer.counters["calls"] == 8 * 50 * 20
    by_id = {s[0]: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans) == 8 * 50 * 21
    for span_id, parent, name, thread, *_ in tracer.spans:
        if name == "inner":
            assert by_id[parent][2] == "outer" and by_id[parent][3] == thread
        else:
            assert parent == tracer.root_id


def _grid(plan):
    return [
        {"model": plan.model, "algorithm": plan.algorithm, "n": n, "d": d, "eps": eps,
         "C": c, "T": plan.iters[n], "seed": s, "iter": it, "error": 1.0 + it}
        for (n, d, eps, c) in plan.cells for s in plan.seeds
        for it in range(plan.iters[n] + 1)
    ]


def test_checks_reject_wrong_outputs(tmp_path):
    plan = run.sweep_mrm(tmp_path, 1, smoke=True)
    rows = _grid(plan)
    assert run.check_results(plan, rows) == []
    assert run.check_results(plan, rows[:-1])
    assert run.check_results(plan, rows + rows[:1])
    assert run.check_results(plan, [dict(rows[0], error=float("inf"))] + rows[1:])

    medians = {}
    for r in rows:
        medians.setdefault((r["n"], r["d"], r["eps"], r["iter"]), []).append(r["error"])
    lines = ["n,d,eps,C,iter,n_seeds,median_error"] + [
        f"{n},{d},{eps},,{it},{len(v)},{sorted(v)[len(v) // 2]}"
        for (n, d, eps, it), v in medians.items()
    ]
    plan.summary.write_text("\n".join(lines) + "\n")
    assert run.check_summary(plan, rows) == []
    wrong_median = lines[-1].rsplit(",", 1)[0] + ",99.0"
    plan.summary.write_text("\n".join(lines[:-1] + [wrong_median]) + "\n")
    assert run.check_summary(plan, rows)


def _smoke(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_is_correct_and_reports_no_metrics(workload, trace):
    out = _smoke(workload, trace)
    assert out.returncode == 0, out.stderr
    *_, env_line, last = out.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"] == {}
    info = json.loads(env_line)
    assert {"nproc", "python", "numpy", "scipy", "git_commit", "seed"} <= set(info["env"])
    if trace:
        details = json.loads((ROOT / info["details"]).read_text())
        layers = details["per_layer"]
        if workload == "pipeline-rmc":
            assert layers["robust.robust_mean_columns_calls"] == 0
            assert layers["numeric.sample_gaussian_calls"] == 0
        if workload == "dpem-gmm":
            assert layers["robust.far_entries"] == 0
            assert layers["robust.robust_mean_columns_calls"] > 0
        for command in details["trace_accounting"]:
            assert not command["missing"]
            assert 0.0 <= command["remainder_s"] < command["wall_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _smoke("sweep-mrm", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
