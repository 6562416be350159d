"""The repository benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload fct_websearch_k8 --seed 1 --seconds 28 --trace 0

Each run is a closed loop with one client: it starts one batch experiment
(``cell.py``, a fresh interpreter) at a time until the next experiment
would end after ``--seconds``.  Untraced, it warms up on the first of six
fixed input sets derived from ``--seed``, runs the six, then takes further
input sets from the same seed-derived stream; traced, it cycles through
the six.  Between experiments it times a fixed reference kernel on the
CPUs the experiments run on, so host time can be read relative to how
fast the host ran at that moment.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
pairs every untraced experiment with a traced one and reports the
per-layer metrics plus the tracing overhead.
``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Provenance, every
batch experiment's figures and the traced spans are written under
``.perfbench/`` in the checkout.  See README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import provenance
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Input sets every run covers: the simulated metrics pool the FNCC flows
#: of exactly these, so they are deterministic per seed.
INPUT_SETS = 6
#: A run must end well inside three minutes, whatever --seconds says.
RUN_LIMIT_S = 170.0
#: Pool size of ``lb_sweep``, the only workload that uses the pool.
POOL_JOBS = min(2, os.cpu_count() or 1)


def input_seeds(seed: int):
    """The endless stream of input-set seeds derived from ``seed``."""
    rng = random.Random(f"perfbench:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def run_child(name, subseed, traced, size, jobs, deadline) -> dict:
    """One batch experiment in a fresh interpreter; a crash, a timeout or
    unreadable output becomes an experiment whose every flow failed."""
    # A fixed hash seed removes one source of process-to-process timing
    # variation; the program's results do not depend on it.
    # One thread per BLAS library: the numpy import must not start pools
    # that compete with the interpreter for the host's few cores.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spans = OUT / f"{name}-{subseed}.spans.json"
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "cell.py"), "--workload", name,
        "--seed", str(subseed), "--trace", str(int(traced)), "--t0", repr(t0),
        "--jobs", str(jobs), "--size", size, "--spans", str(spans) if traced else "",
    ]
    cfg = workloads.configs(size)[name]
    failed = {
        "subseed": subseed, "traced": traced, "jobs": jobs, "n_flows": workloads.planned_flows(name, cfg),
        "fingerprints": {}, "work": {}, "fncc_slowdowns": [], "exec": None,
        "wall_s": None, "setup_s": None, "peak_rss_mb": None,
    }
    failed["failed_flows"] = failed["n_flows"]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        return dict(failed, errors=[f"seed {subseed}: timed out"])
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return dict(failed, errors=[f"seed {subseed}: exit {proc.returncode}: {tail[0]}"])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return dict(failed, errors=[f"seed {subseed}: no result line"])


def plan(name: str, traced: bool, cycle: int) -> list:
    """(traced, jobs) of the batch experiments one input set gets per cycle.

    Only ``lb_sweep`` uses the pool.  Its traced experiment runs in-process
    so the wrappers see inside the cells; an untraced in-process twin gives
    the tracing overhead, and the untraced pool experiment gives the
    ``exec`` figures and the pool fingerprints the in-process ones must
    equal.  Traced runs alternate which of a pair goes first."""
    jobs = POOL_JOBS if name == "lb_sweep" else 1
    if not traced:
        return [(False, jobs)]
    pairs = [(False, 1), (True, 1)]
    if cycle % 2:
        pairs.reverse()
    return pairs + ([(False, jobs)] if jobs > 1 else [])


def run_cpus(jobs: int):
    """The CPUs a run keeps to: one per process that works at a time, so
    the reference kernel is timed where the experiments run."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return set(sorted(os.sched_getaffinity(0))[:jobs])


def reference_s(kernel, cpus) -> float:
    """The reference kernel's time, averaged over ``cpus`` with the runner
    pinned to each in turn; the runner, and so every experiment it
    starts, is left pinned to ``cpus``."""
    if cpus is None:
        return kernel.time_s()
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times.append(kernel.time_s())
    os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def schedule(seed: int, name: str, traced: bool):
    """(subseed, traced, jobs) of every batch experiment a run may start,
    in order, and how many of them a run starts at least.

    Untraced: a warm-up on the first fixed input set (checked, but not
    timed; it also makes that input repeat), the six fixed input sets,
    then fresh input sets, so the host figures average over as many
    traffic draws as the time allows.  Traced: cycles over the six fixed
    input sets, each cycle running ``plan`` on each."""
    stream = input_seeds(seed)
    fixed = list(itertools.islice(stream, INPUT_SETS))
    if not traced:
        jobs = plan(name, False, 0)[0][1]
        seeds = itertools.chain(fixed[:1], fixed, stream)
        return ((s, False, jobs) for s in seeds), INPUT_SETS + 1
    queue = (
        (s, t, j)
        for cycle in itertools.count()
        for s in fixed
        for t, j in plan(name, True, cycle)
    )
    return queue, INPUT_SETS * len(plan(name, True, 0))


def collect(name, seed, seconds, traced, size) -> list:
    """Run batch experiments in ``schedule`` order until the next one
    would end after ``seconds`` (but at least the minimum).

    The reference kernel is timed before the first experiment and after
    each; an experiment's ``ref_s`` is the mean of the two timings around
    it, so it tells how fast the host ran while the experiment did."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    queue, minimum = schedule(seed, name, traced)
    cpus = run_cpus(plan(name, False, 0)[0][1])
    kernel = provenance.ReferenceKernel()
    ref = reference_s(kernel, cpus)
    children = []
    for s, t, j in queue:
        elapsed = time.monotonic() - start
        if len(children) >= minimum and (
            elapsed * (len(children) + 1) / len(children) > min(seconds, RUN_LIMIT_S)
        ):
            break
        child = run_child(name, s, t, size, j, deadline)
        after = reference_s(kernel, cpus)
        child["ref_s"] = (ref + after) / 2
        ref = after
        children.append(child)
    if not traced:
        children[0]["warmup"] = True
    return children


def _per_input(children, key) -> float:
    ok = [c for c in children if c.get(key) is not None]
    return checks.per_input_mean(ok, lambda c: c[key]) if ok else 0.0


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(children) -> dict:
    """Host figures: medians over the untraced batch experiments after the
    warm-up; ``wall_ref`` is each experiment's wall time over the
    reference kernel's time around it.  Simulated figures: the FNCC flows
    of the six fixed input sets, pooled."""
    plain = [c for c in children if not c["traced"] and not c.get("warmup")]
    fixed = set(itertools.islice(
        dict.fromkeys(c["subseed"] for c in plain), INPUT_SETS
    ))
    pooled, seen = [], set()
    for c in plain:
        if c["subseed"] in fixed and c["subseed"] not in seen and c["fncc_slowdowns"]:
            seen.add(c["subseed"])
            pooled += c["fncc_slowdowns"]
    return {
        "wall_ref": _median(
            c["wall_s"] / c["ref_s"] for c in plain if c["wall_s"] is not None
        ),
        "setup_s": _median(c["setup_s"] for c in plain),
        "peak_rss_mb": _median(c["peak_rss_mb"] for c in plain),
        "sim_slowdown_p50": checks.percentile(pooled, 50),
        "sim_slowdown_p99": checks.percentile(pooled, 99),
    }


def per_layer(name, children) -> dict:
    traced = [c for c in children if c["traced"] and c.get("layers")]
    plain = [c for c in children if not c["traced"]]
    keys = traced[0]["layers"] if traced else {}
    out = {k: checks.per_input_mean(traced, lambda c, k=k: c["layers"][k]) for k in keys}
    run_s = out.get("sim.run_s", 0.0)
    train, hops = out.pop("net.train_frames", 0), out.get("net.frame_hops", 0)
    out["sim.events_per_s"] = out.get("sim.events", 0) / run_s if run_s else 0.0
    out["net.frame_hops_per_s"] = hops / run_s if run_s else 0.0
    out["net.train_share"] = train / hops if hops else 0.0
    pool = [c for c in plain if c.get("exec") and c["jobs"] > 1]
    for k in ("exec.map_s", "exec.cells_s", "exec.overhead_s",
              "exec.parallel_efficiency", "exec.workers", "exec.cells_failed"):
        out[k] = checks.per_input_mean(pool, lambda c, k=k: c["exec"][k]) if pool else 0.0
    in_process = [c for c in plain if c["jobs"] == 1]
    out["trace.overhead_s"] = _per_input(traced, "wall_s") - _per_input(in_process, "wall_s")
    # The untraced experiments shaped like the timed runs' experiments.
    timed = [c for c in plain if c["jobs"] == plan(name, False, 0)[0][1]]
    out["host.wall_s"] = _per_input(timed, "wall_s")
    out["host.ref_s"] = _per_input(children, "ref_s")
    return out


def run_workload(name, seed, seconds, trace, size, bench) -> dict:
    children = collect(name, seed, seconds, bool(trace), size)
    bad = checks.repeat_errors(children)
    attempted, failed = checks.account(children, bad)
    errors = sorted({e for c in children for e in c["errors"]} | set(bad.values()))
    section = "per_layer" if trace else "end_to_end"
    values = per_layer(name, children) if trace else end_to_end(children)
    units = {m["name"]: m["unit"] for m in bench[section]}
    unknown = set(values) - set(units)
    missing = set(units) - set(values)
    if unknown or (missing and not errors):
        raise SystemExit(f"metrics {sorted(unknown | missing)} disagree with BENCHMARK.json")
    # With every traced experiment failed there is nothing to report.
    values = {k: values.get(k, 0.0) for k in units}
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    prov = provenance.record(ROOT, seed)
    n_sets = len({c["subseed"] for c in children})
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"{len(children)} batch experiments over {n_sets} input sets")
    print("provenance " + json.dumps(prov))
    for k in units:
        print(f"  metric {k:<30} {values[k]:>16.6f} {units[k]}")
    print(f"host wall_s median {_median(c['wall_s'] for c in children):.3f} s, "
          f"reference kernel median {_median(c['ref_s'] for c in children):.4f} s")
    print(f"checks {'PASS' if not errors else 'FAIL'}")
    for e in errors:
        print(f"  {e}")
    print(f"flows attempted {attempted} failed {failed}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-trace{trace}.json", "w") as fh:
        json.dump({"provenance": prov, "result": result, "experiments": [
            {k: v for k, v in c.items() if k != "fncc_slowdowns"} for c in children
        ]}, fh, indent=1)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not bench_file.is_file():
        print("perfbench: no program to measure (src/repro or BENCHMARK.json missing)",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [
        run_workload(n, args.seed, args.seconds, args.trace, args.size, bench)
        for n in names
    ]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        for n, r in zip(names, results):
            print(f"{n} " + json.dumps(r))
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
