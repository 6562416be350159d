"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Each workload runs at toy size through the runner and its checks; corrupted
results must count as failed; a wrapper that changes the simulated path must
fail the traced-equals-untraced check; every printed metric name must be in
BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_at_toy_size(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    known = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    printed = [ln.split()[1] for ln in lines if ln.startswith("  metric ")]
    assert printed and set(printed) <= known
    assert "checks PASS" in lines
    stored = json.loads((ROOT / ".perfbench" / f"{workload}-trace{trace}.json").read_text())
    assert set(stored["provenance"]) == {"host", "git_rev", "seed", "calibration_mops"}
    assert stored["provenance"]["seed"] == 3


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "incast_pfc", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_untraced_run_warms_up_then_takes_fresh_inputs():
    import run

    queue, minimum = run.schedule(5, "hybrid_2k", traced=False)
    seeds = [s for s, _, _ in itertools.islice(queue, 9)]
    assert minimum == run.INPUT_SETS + 1
    assert seeds[0] == seeds[1] and len(set(seeds)) == 8
    again = run.schedule(5, "hybrid_2k", traced=False)[0]
    assert [s for s, _, _ in itertools.islice(again, 9)] == seeds


def test_end_to_end_skips_the_warm_up_and_pools_six_inputs():
    import run

    def child(subseed, wall, ref, slowdown, **over):
        return dict(subseed=subseed, traced=False, wall_s=wall, ref_s=ref, setup_s=1.0,
                    peak_rss_mb=100.0, fncc_slowdowns=[slowdown], **over)

    children = [child(1, 100.0, 1.0, 99.0, warmup=True)]
    children += [child(s, 3.0 * s, 0.5 * s, float(s)) for s in range(1, 8)]
    m = run.end_to_end(children)
    assert m["wall_ref"] == 6.0
    # The seventh input set is timed but not pooled: p50 of 1..6.
    assert m["sim_slowdown_p50"] == 3.5


def _cell(**over):
    records = [(0, 1000, 900), (1, 2000, 2000)]
    counters = dict.fromkeys(
        ("failed_senders", "pause_sent", "pause_received", "resume_sent", "resume_received"), 0
    )
    c = dict(key="fncc", cc="fncc", n_flows=2, records=records, counters=counters)
    c.update(over)
    return c


def test_clean_cell_passes():
    assert checks.cell_errors(_cell()) == []


def test_fct_below_ideal_fails():
    assert checks.cell_errors(_cell(records=[(0, 899, 900), (1, 2000, 2000)]))


def test_missing_flow_fails():
    assert checks.cell_errors(_cell(records=[(0, 1000, 900)]))


def test_unbalanced_pause_ledger_fails():
    counters = dict(_cell()["counters"], pause_sent=3, pause_received=2)
    assert checks.cell_errors(_cell(counters=counters))


def _child(subseed, fp, work=None, traced=False, errors=()):
    return dict(subseed=subseed, traced=traced, fingerprints={"fncc": fp},
                work=work or {"events": 1}, errors=list(errors), n_flows=10, failed_flows=0)


def test_fingerprint_mismatch_counts_every_flow_failed():
    children = [_child(1, "a"), _child(1, "a"), _child(1, "b"), _child(2, "c")]
    bad = checks.repeat_errors(children)
    assert list(bad) == [2]
    assert checks.account(children, bad) == (40, 10)


def test_failed_check_counts_every_flow_failed():
    children = [_child(1, "a"), _child(1, "a", errors=["fncc: 9 of 10 flows completed"])]
    assert checks.account(children, checks.repeat_errors(children)) == (20, 10)


def _experiment(tracer):
    cfg = workloads.TOY["fct_websearch_k8"]
    cells, _ = workloads.run("fct_websearch_k8", cfg, 5, tracer=tracer)
    work = {k: sum(c["counters"][k] for c in cells) for k in ("events", "frame_hops", "train_frames")}
    return dict(subseed=5, traced=tracer is not None, errors=[], n_flows=48, failed_flows=0,
                fingerprints={c["key"]: c["fingerprint"] for c in cells}, work=work)


def test_traced_run_matches_untraced():
    plain = _experiment(None)
    tracer = Tracer()
    workloads.install_tracer(tracer, "fct_websearch_k8", {})
    try:
        traced = _experiment(tracer)
    finally:
        tracer.uninstall()
    assert tracer.calls("net.host_receive") > 0 and tracer.calls("sim.run") > 0
    assert plain["work"]["train_frames"] > 0
    assert checks.repeat_errors([plain, traced]) == {}


def test_path_changing_wrapper_fails_the_check():
    """Timing an ECMP switch's router by swapping it after install closes
    the frame-train gate: same FCTs, different path, so the check fails."""
    import repro.lb.base

    plain = _experiment(None)
    tracer = Tracer()
    install = repro.lb.base.install_lb

    def install_then_swap(topo, *args, **kwargs):
        out = install(topo, *args, **kwargs)
        for sw in topo.switches:
            sw.router = tracer.timed("lb.route", sw.router)
        return out

    repro.lb.base.install_lb = install_then_swap
    try:
        swapped = _experiment(tracer)
    finally:
        repro.lb.base.install_lb = install
    assert swapped["work"]["train_frames"] != plain["work"]["train_frames"]
    assert list(checks.repeat_errors([plain, dict(swapped, traced=True)])) == [1]
