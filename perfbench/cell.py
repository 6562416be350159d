"""One batch experiment in a fresh interpreter (started by run.py).

Prints one JSON line: the experiment's timings, fingerprints, work counters,
check verdicts and, when traced, the per-layer values.  The program is
imported inside :func:`main` only: it is part of the measured set-up, and
pool workers spawned by ``lb_sweep`` re-import this module.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext

import checks
import workloads
from tracing import FirstEvent, Tracer


def layer_values(tr, counters: dict, info: dict, import_s: float, hybrid: dict) -> dict:
    """Raw per-layer values of one traced experiment (ratios are derived
    by the runner after aggregation)."""
    cc_names = ("fncc", "hpcc", "dcqcn")
    return {
        "sim.events": counters["events"],
        "sim.run_s": tr.total_s("sim.run"),
        "sim.self_s": tr.self_s("sim.run"),
        "net.frame_hops": counters["frame_hops"],
        "net.train_frames": counters["train_frames"],
        "net.pause_frames": counters["pause_sent"],
        "net.fncc_pause_frames": counters["fncc_pause_sent"],
        "net.ecn_marked": counters["ecn_marked"],
        "net.drops": counters["drops"],
        "net.host_receive_s": tr.self_s("net.host_receive"),
        "transport.acks": counters["acks"],
        "transport.data_packets": counters["data_packets"],
        "transport.timeouts": counters["timeouts"],
        "transport.fast_rewinds": counters["fast_rewinds"],
        "transport.ooo_buffered": counters["ooo_buffered"],
        "transport.sender_on_ack_s": tr.self_s("transport.sender_on_ack"),
        "transport.receiver_on_data_s": tr.self_s("transport.receiver_on_data"),
        "transport.launch_s": tr.total_s("transport.launch"),
        "cc.on_ack_calls": sum(tr.calls(f"cc.{n}.on_ack") for n in cc_names),
        **{f"cc.{n}.on_ack_s": tr.total_s(f"cc.{n}.on_ack") for n in cc_names},
        "cc.dcqcn.on_cnp_calls": counters["cnps"],
        "cc.fncc.lhcs_activations": counters["lhcs"],
        "lb.install_s": tr.total_s("lb.install"),
        "lb.route_calls": tr.calls("lb.route"),
        "lb.route_s": tr.total_s("lb.route"),
        "lb.reroutes": counters["reroutes"],
        "lb.probes": counters["probes"],
        "hybrid.classify_s": tr.total_s("hybrid.classify"),
        "hybrid.background_s": tr.total_s("hybrid.background"),
        "hybrid.final_fluid_s": tr.total_s("hybrid.final_fluid"),
        "hybrid.packet_s": tr.total_s("hybrid.packet"),
        "hybrid.driver_s": tr.self_s("hybrid.run"),
        "hybrid.fluid_events": hybrid["fluid_events"],
        "hybrid.waterfills": hybrid["waterfills"],
        "hybrid.rate_changes": hybrid["rate_changes"],
        "hybrid.demoted": info.get("demoted", 0),
        "setup.import_s": import_s,
        "topo.build_s": tr.self_s("topo.build"),
        "traffic.generate_s": tr.total_s("traffic.generate"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this interpreter was started")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--spans", default="", help="write the traced run's spans here")
    args = ap.parse_args()

    name = args.workload
    cfg = workloads.configs(args.size)[name]
    tracer = Tracer() if args.trace else None
    hybrid = dict(fluid_events=0, waterfills=0, rate_changes=0)

    t_imp = time.monotonic()
    with tracer.span("setup.import") if tracer is not None else nullcontext():
        workloads.import_entry(name)
    import_s = time.monotonic() - t_imp

    if tracer is not None:
        workloads.install_tracer(tracer, name, hybrid)
    first = FirstEvent()
    if name != "lb_sweep":  # lb cells record their own, in their process
        from repro.sim.engine import Simulator

        first.arm(Simulator, "run")
        if name == "hybrid_2k":
            from repro.analysis.flowsim import FlowLevelSimulator

            first.arm(FlowLevelSimulator, "run")

    cells, info = workloads.run(name, cfg, args.seed, tracer=tracer, jobs=args.jobs)
    first_event = info.get("first_event", first.at)
    errors = checks.experiment_errors(cells, workloads.planned_cells(name, cfg))
    errors += info.get("errors", [])
    counters = {k: sum(c["counters"][k] for c in cells) for k in cells[0]["counters"]} if cells else {}
    if counters:
        counters["fncc_pause_sent"] = sum(
            c["counters"]["pause_sent"] for c in cells if c["cc"] == "fncc"
        )
    n_flows = workloads.planned_flows(name, cfg)
    t_done = time.monotonic()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + info.get("worker_rss_kb", 0)
    out = {
        "subseed": args.seed,
        "traced": bool(args.trace),
        "jobs": args.jobs,
        "errors": errors,
        "n_flows": n_flows,
        "failed_flows": n_flows - sum(len(c["records"]) for c in cells),
        "wall_s": t_done - args.t0,
        "setup_s": (first_event - args.t0) if first_event is not None else None,
        "peak_rss_mb": rss_kb / 1024.0,
        "fingerprints": {c["key"]: c["fingerprint"] for c in cells},
        "work": {k: counters.get(k, 0) for k in ("events", "frame_hops", "train_frames")},
        "fncc_slowdowns": [
            fct / ideal for c in cells if c["cc"] == "fncc"
            for _, fct, ideal in c["records"] if ideal
        ],
        "exec": info.get("exec"),
    }
    if out["setup_s"] is None:
        out["errors"].append("no simulated event ran")
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_values(tracer, counters, info, import_s, hybrid)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
