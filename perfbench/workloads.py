"""The benchmark's four workloads, driven only through the program's
public entry points.

Every workload is a closed loop with one client: the runner starts one
batch experiment (one fresh interpreter running :func:`run`) and the next
starts only when the previous one has finished.  Inputs come from the
benchmark seed; the program receives only the generated flows (or, where
the entry point generates its own traffic, only the seed).

Why each workload exists (the layer map is in README.md):

* ``fct_websearch_k8`` -- the paper's section 5.5 / Fig. 14 cell on its
  k=8 fat-tree: WebSearch flows on the packet backend with ECMP, FNCC,
  HPCC and DCQCN on identical flows.  The main packet path: engine loop,
  fused frame-train hops, transport and INT-based CC.
* ``incast_pfc`` -- an N-to-1 incast on a k=4 fat-tree with a tight PFC
  XOFF, FNCC and DCQCN cells: deep queues, PFC pause/resume transitions
  and FNCC's last-hop speedup (LHCS).  Costs on the pause path show here.
* ``hybrid_2k`` -- ``run_fct_hybrid`` on k=8 in the ``million_flows_quick``
  shape, scaled to 2000 flows: the fluid tier does the work.  The
  no-change control for packet-path changes.
* ``lb_sweep`` -- ``SweepExecutor.map`` over LB-matrix ``sweep_specs``
  (spray, flowlet and ConWeave-lite on fat-tree and Jellyfish, permutation
  traffic, FNCC, two seeds per sweep): the only workload where the pool
  (spawn, re-import, pickle), per-packet LB and the reorder buffer work.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, List, Optional

from tracing import FirstEvent, Tracer

KB = 1000
#: After the last flow completes, run the fabric this much longer so PFC
#: frames still on a wire arrive and the pause ledger can balance.
DRAIN_PS = 100_000_000

#: Full-size configurations (what BENCHMARK.json measures).
FULL: Dict[str, dict] = {
    "fct_websearch_k8": dict(
        k=8, load=0.3, scale=0.035, n_flows=150, ccs=("fncc", "hpcc", "dcqcn")
    ),
    "incast_pfc": dict(
        k=4, senders=15, size=1_000_000, xoff=100 * KB, jitter_ps=1_000_000,
        ccs=("fncc", "dcqcn"),
    ),
    "hybrid_2k": dict(k=8, load=0.2, scale=0.01, n_flows=2000),
    "lb_sweep": dict(
        lbs=("spray", "flowlet", "conweave"), topos=("fattree", "jellyfish"),
        perm_flow_bytes=150 * KB, cell_seeds=2,
    ),
}

#: Toy configurations: the same code paths in well under a second each.
TOY: Dict[str, dict] = {
    "fct_websearch_k8": dict(
        k=4, load=0.3, scale=0.02, n_flows=16, ccs=("fncc", "hpcc", "dcqcn")
    ),
    "incast_pfc": dict(
        k=4, senders=4, size=60_000, xoff=20 * KB, jitter_ps=1_000_000,
        ccs=("fncc", "dcqcn"),
    ),
    "hybrid_2k": dict(k=4, load=0.2, scale=0.01, n_flows=150),
    "lb_sweep": dict(
        lbs=("spray", "conweave"), topos=("fattree",), perm_flow_bytes=20 * KB,
        cell_seeds=2,
    ),
}

WORKLOADS = tuple(FULL)

#: Modules each workload's entry points live in: importing them is the
#: ``setup.import_s`` part of set-up.
ENTRY_MODULES = {
    "fct_websearch_k8": ("repro.experiments.fct_experiment",),
    "incast_pfc": ("repro.experiments.fct_experiment", "repro.topo.fattree"),
    "hybrid_2k": ("repro.hybrid.backend",),
    "lb_sweep": ("repro.experiments.lbmatrix",),
}


def configs(size: str) -> Dict[str, dict]:
    return TOY if size == "toy" else FULL


def planned_cells(name: str, cfg: dict) -> int:
    if name == "lb_sweep":
        return len(cfg["lbs"]) * len(cfg["topos"]) * cfg["cell_seeds"]
    if name == "hybrid_2k":
        return 1
    return len(cfg["ccs"])


def planned_flows(name: str, cfg: dict) -> int:
    """Flows one batch experiment attempts (the operation count)."""
    per_cell = {
        "fct_websearch_k8": cfg.get("n_flows"),
        "incast_pfc": cfg.get("senders"),
        "hybrid_2k": cfg.get("n_flows"),
        # Permutation traffic: one flow per host; both fabrics have 16 hosts.
        "lb_sweep": 16,
    }[name]
    return per_cell * planned_cells(name, cfg)


def import_entry(name: str) -> None:
    import importlib

    for mod in ENTRY_MODULES[name]:
        importlib.import_module(mod)


# -- measurement helpers --------------------------------------------------


def fingerprint(records) -> str:
    """Digest of the sorted (flow_id, fct_ps) pairs: the determinism witness."""
    pairs = sorted((fid, fct) for fid, fct, _ in records)
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


def fabric_counters(sim, topo) -> Dict[str, int]:
    """The program's own public work counters, summed over a fabric."""
    c = dict.fromkeys(
        ("events", "frame_hops", "train_frames", "pause_sent", "pause_received",
         "resume_sent", "resume_received", "ecn_marked", "drops", "acks",
         "data_packets", "timeouts", "fast_rewinds", "ooo_buffered",
         "failed_senders", "lhcs", "cnps", "reroutes", "probes"),
        0,
    )
    if sim is None:
        return c
    c["events"] = sim.events_dispatched
    for node in list(topo.hosts) + list(topo.switches):
        for p in node.ports:
            s = p.stats
            c["frame_hops"] += p.tx_packets
            c["train_frames"] += p.train_frames
            c["pause_sent"] += s.pause_sent
            c["pause_received"] += s.pause_received
            c["resume_sent"] += s.resume_sent
            c["resume_received"] += s.resume_received
            c["ecn_marked"] += s.ecn_marked
            c["drops"] += s.drops
    for h in topo.hosts:
        for qp in h.senders.values():
            c["acks"] += qp.acks_received
            c["timeouts"] += qp.timeouts
            c["fast_rewinds"] += qp.fast_rewinds
            c["failed_senders"] += qp.failed
            c["lhcs"] += getattr(qp.cc, "lhcs_activations", 0)
            c["cnps"] += getattr(qp.cc, "cnps_received", 0)
        for rqp in h.receivers.values():
            c["data_packets"] += rqp.data_packets
            c["ooo_buffered"] += rqp.ooo_buffered
    for sw in topo.switches:
        c["reroutes"] += getattr(sw.lb, "reroutes", 0)
        c["probes"] += getattr(sw.lb, "probes", 0)
    return c


def cell(key: str, cc: str, n_flows: int, sim, topo, records) -> dict:
    """One (fabric, CC) cell's outputs after its run; drains the fabric."""
    if sim is not None:
        sim.run(until=sim.now + DRAIN_PS)
    recs = [(r.flow.flow_id, r.fct_ps, r.ideal_fct_ps) for r in records]
    return dict(
        key=key, cc=cc, n_flows=n_flows, records=recs,
        fingerprint=fingerprint(recs), counters=fabric_counters(sim, topo),
    )


def _timed(tracer: Optional[Tracer], name: str, fn):
    return fn if tracer is None else tracer.timed(name, fn, span=True)


def _span(tracer: Optional[Tracer], name: str):
    return nullcontext() if tracer is None else tracer.span(name)


# -- input generation -----------------------------------------------------


def websearch_flows(n_hosts: int, cfg: dict, rng: random.Random):
    """WebSearch flows with Poisson arrivals at ``cfg['load']``.

    Sizes are the WebSearch CDF's quantiles at stratified points, so every
    seed sends the same size multiset (heavy-tailed sizes would otherwise
    move the total work by +-20% between seeds); the seed draws which flow
    gets which size, the arrival gaps, and the destinations.  Sources take
    turns, so every host sends about the same number of flows."""
    from repro.traffic.distributions import websearch_cdf
    from repro.transport.flow import Flow
    from repro.units import SEC

    n = cfg["n_flows"]
    cdf = websearch_cdf(scale=cfg["scale"])
    sizes = [cdf.quantile((i + 0.5) / n) for i in range(n)]
    rng.shuffle(sizes)
    mean_gap_ps = SEC * (sum(sizes) / n) * 8 / (cfg["load"] * n_hosts * 100e9)
    srcs: List[int] = []
    while len(srcs) < n:
        turn = list(range(n_hosts))
        rng.shuffle(turn)
        srcs += turn
    flows, t = [], 0.0
    for i, size in enumerate(sizes):
        t += rng.expovariate(1.0) * mean_gap_ps
        src = srcs[i]
        dst = rng.randrange(n_hosts - 1)
        if dst >= src:
            dst += 1
        flows.append(Flow(i, src, dst, size, start_ps=round(t)))
    return flows


def incast_flows(n_hosts: int, cfg: dict, rng: random.Random):
    """N senders to one receiver; the seed picks the receiver, the
    senders and each sender's start jitter."""
    from repro.transport.flow import Flow

    dst = rng.randrange(n_hosts)
    others = [h for h in range(n_hosts) if h != dst]
    senders = rng.sample(others, cfg["senders"])
    return [
        Flow(i, src, dst, cfg["size"], start_ps=rng.randrange(cfg["jitter_ps"]))
        for i, src in enumerate(senders)
    ]


# -- the workloads ----------------------------------------------------------


def _run_websearch(cfg, seed, tracer):
    from repro.experiments.common import launch_flows
    from repro.experiments.fct_experiment import build_fct_fabric, drive_fct

    cells = []
    for cc in cfg["ccs"]:
        # The fabric's own one-flow Poisson list is ignored: the program
        # receives the benchmark's generated flows.
        fab = _timed(tracer, "topo.build", build_fct_fabric)(
            cc, k=cfg["k"], load=cfg["load"], scale=cfg["scale"], n_flows=1, seed=seed
        )
        with _span(tracer, "traffic.generate"):
            flows = websearch_flows(len(fab.topo.hosts), cfg, random.Random(seed))
        _timed(tracer, "transport.launch", launch_flows)(fab.topo, flows, fab.env)
        drive_fct(fab.sim, fab.collector, len(flows), 50.0)
        cells.append(cell(cc, cc, len(flows), fab.sim, fab.topo, fab.collector.records))
    return cells, {}


def _run_incast(cfg, seed, tracer):
    from repro.experiments.common import build_cc_env, launch_flows
    from repro.metrics.fct import FctCollector
    from repro.sim.engine import Simulator
    from repro.sim.rng import SeedSequenceFactory
    from repro.topo.base import LinkSpec
    from repro.topo.fattree import fattree
    from repro.units import MS, us

    cells = []
    for cc in cfg["ccs"]:
        sim = Simulator()
        env = build_cc_env(cc, pfc_xoff=cfg["xoff"])
        topo = _timed(tracer, "topo.build", fattree)(
            sim, k=cfg["k"], link=LinkSpec(rate_gbps=100.0, prop_delay_ps=us(1.5)),
            switch_config=env.switch_config, seeds=SeedSequenceFactory(seed),
            cnp_enabled=env.cnp_enabled,
        )
        env.post_install(topo)
        collector = FctCollector(topo)
        with _span(tracer, "traffic.generate"):
            flows = incast_flows(len(topo.hosts), cfg, random.Random(seed))
        _timed(tracer, "transport.launch", launch_flows)(topo, flows, env)
        t, horizon = 0, 50 * MS
        while collector.completed() < len(flows) and t < horizon:
            t = min(t + MS // 2, horizon)
            sim.run(until=t)
        cells.append(cell(cc, cc, len(flows), sim, topo, collector.records))
    return cells, {}


def hybrid_config():
    """``million_flows_quick``'s tier split: demote only persistently hot
    elephants (at scale 0.01 every flow is sub-BDP)."""
    from repro.hybrid.backend import HybridConfig
    from repro.units import DEFAULT_MTU

    return HybridConfig(
        threshold=0.99, min_link_flows=10, congested_frac=0.9, refine_rounds=0,
        mouse_bytes=0, epoch_us=200.0, bg_quantum_bytes=64 * DEFAULT_MTU,
    )


def _fluid_phase(args, kwargs) -> str:
    if kwargs.get("congestion") is not None:
        return "hybrid.classify"
    if kwargs.get("bg") is not None:
        return "hybrid.background"
    return "hybrid.final_fluid"


def _run_hybrid(cfg, seed, tracer):
    from repro.hybrid.backend import run_fct_hybrid

    res = _timed(tracer, "hybrid.run", run_fct_hybrid)(
        "fncc", config=hybrid_config(), k=cfg["k"], load=cfg["load"],
        scale=cfg["scale"], n_flows=cfg["n_flows"], seed=seed,
    )
    c = cell("fncc", "fncc", cfg["n_flows"], res.sim, res.topo, res.records)
    return [c], {"demoted": res.stats.get("demoted", 0)}


def lb_cell(seed: int, **kwargs) -> dict:
    """Sweep-spec target: one LB-matrix cell (``run_lb_cell``) with the
    outputs the checks need, plus when its first event ran, its process
    and that process's peak RSS.  Runs in a pool worker or in-process."""
    from repro.experiments.lbmatrix import run_lb_cell
    from repro.sim.engine import Simulator

    first = FirstEvent()
    first.arm(Simulator, "run")
    c = run_lb_cell(seed=seed, **kwargs)
    key = "/".join(map(str, c.key + (seed,)))
    out = cell(key, c.key[3], c.n_flows, c.sim, c.topo, c.collector.records)
    out.update(
        first_event=first.at, pid=os.getpid(),
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return out


def _run_lb(cfg, seed, tracer, jobs):
    from repro.exec import SweepExecutor
    from repro.experiments.lbmatrix import sweep_specs

    rng = random.Random(seed)
    seeds = tuple(rng.randrange(1, 2**31) for _ in range(cfg["cell_seeds"]))
    specs = [
        replace(s, fn="workloads:lb_cell")
        for s in sweep_specs(
            lbs=cfg["lbs"], ccs=("fncc",), topos=cfg["topos"],
            workloads=("permutation",), seeds=seeds,
            perm_flow_bytes=cfg["perm_flow_bytes"],
        )
    ]
    ex = SweepExecutor(jobs=jobs, raise_on_error=False)
    t0 = time.perf_counter()
    results = _timed(tracer, "exec.map", ex.map)(specs)
    map_s = time.perf_counter() - t0
    cells, busy, rss = [], {}, {}
    for r in results:
        if r.ok:
            cells.append(r.value)
            rss[r.pid] = max(rss.get(r.pid, 0), r.value["rss_kb"])
        busy[r.pid] = busy.get(r.pid, 0.0) + r.wall_s
    cells_s = sum(r.wall_s for r in results)
    workers = len(busy)
    pool = jobs > 1 and len(specs) > 1
    info = {
        "first_event": min(
            (c["first_event"] for c in cells if c["first_event"] is not None),
            default=None,
        ),
        "errors": [r.error for r in results if not r.ok],
        "exec": {
            "exec.map_s": map_s,
            "exec.cells_s": cells_s,
            "exec.overhead_s": map_s - max(busy.values()),
            "exec.parallel_efficiency": cells_s / (workers * map_s),
            "exec.workers": workers,
            "exec.cells_failed": sum(not r.ok for r in results),
        },
        # Pool workers' peaks add to this process's own.
        "worker_rss_kb": sum(rss.values()) if pool else 0,
    }
    return cells, info


def install_tracer(tracer: Tracer, name: str, hybrid_counts: dict) -> None:
    """Wrap the public calls into each layer, before any fabric is built."""
    import repro.lb
    import repro.lb.base
    from repro.cc.dcqcn import Dcqcn
    from repro.cc.fncc import Fncc
    from repro.cc.hpcc import Hpcc
    from repro.net.host import Host
    from repro.sim.engine import Simulator
    from repro.transport.receiver import ReceiverQP
    from repro.transport.sender import SenderQP

    tracer.wrap(Simulator, "run", "sim.run", span=True)
    tracer.wrap(Host, "receive", "net.host_receive")
    tracer.wrap(SenderQP, "on_ack", "transport.sender_on_ack")
    tracer.wrap(ReceiverQP, "on_data", "transport.receiver_on_data")
    # Fncc inherits Hpcc.on_ack: wrap it first, from the unwrapped method.
    tracer.wrap(Fncc, "on_ack", "cc.fncc.on_ack")
    tracer.wrap(Hpcc, "on_ack", "cc.hpcc.on_ack")
    tracer.wrap(Dcqcn, "on_ack", "cc.dcqcn.on_ack")
    # ECMP installs through repro.lb.base, other strategies through repro.lb.
    tracer.wrap(repro.lb, "install_lb", "lb.install", span=True)
    tracer.wrap(repro.lb.base, "install_lb", "lb.install", span=True)
    if name == "hybrid_2k":
        import repro.hybrid.backend as backend
        from repro.analysis.flowsim import FlowLevelSimulator
        from repro.traffic.generator import PoissonWorkload

        def count(res) -> None:
            hybrid_counts["fluid_events"] += res.n_events
            hybrid_counts["waterfills"] += res.n_waterfills
            hybrid_counts["rate_changes"] += res.n_rate_changes

        tracer.wrap(backend, "build_fct_fabric", "topo.build", span=True)
        tracer.wrap(PoissonWorkload, "generate", "traffic.generate", span=True)
        tracer.wrap(backend, "launch_flows", "transport.launch", span=True)
        tracer.wrap(backend, "drive_fct", "hybrid.packet", span=True)
        tracer.wrap(FlowLevelSimulator, "run", _fluid_phase, span=True, on_result=count)
    elif name == "lb_sweep":
        import repro.experiments.lbmatrix as lbmatrix
        from repro.lb import ConWeaveLiteLB, FlowletLB, SprayLB

        tracer.wrap(lbmatrix, "fattree", "topo.build", span=True)
        tracer.wrap(lbmatrix, "jellyfish", "topo.build", span=True)
        tracer.wrap(lbmatrix, "permutation_flows", "traffic.generate", span=True)
        tracer.wrap(lbmatrix, "launch_flows", "transport.launch", span=True)
        # Only strategies that are not train-transparent: their routers
        # already run per frame, so timing them cannot change the path.
        for cls in (SprayLB, FlowletLB, ConWeaveLiteLB):
            tracer.wrap_factory(cls, "make_router", "lb.route")


def run(name: str, cfg: dict, seed: int, tracer: Optional[Tracer] = None, jobs: int = 1):
    """One batch experiment of workload ``name``: (cells, info)."""
    if name == "fct_websearch_k8":
        return _run_websearch(cfg, seed, tracer)
    if name == "incast_pfc":
        return _run_incast(cfg, seed, tracer)
    if name == "hybrid_2k":
        return _run_hybrid(cfg, seed, tracer)
    if name == "lb_sweep":
        return _run_lb(cfg, seed, tracer, jobs)
    raise ValueError(f"unknown workload {name!r}")
