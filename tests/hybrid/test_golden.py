"""Golden digests of the hybrid backend's outputs.

Each cell pins two things by SHA-256 digest:

* the FCT fingerprint (``(flow_id, fct_ps)`` pairs), and
* every background-load map handed to the packet tier, one per packet
  phase: the per-(link, epoch) fluid byte integrals, with their values
  *and* their key order (dict order decides the order in which
  ``bg_drain`` events are scheduled, so it is part of the output).

The digests were recorded before the fluid tier learned to replay its
classification trajectory instead of re-solving it; any change to them is
a change to what the reproduction outputs and has to be re-blessed on
purpose, with the fidelity-gate numbers attached.
"""

import hashlib
import random

import pytest

import repro.hybrid.backend as backend
from repro.hybrid.backend import HybridConfig, run_fct_hybrid
from repro.units import DEFAULT_MTU


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _default_cell():
    # DCQCN marks ECN, so the packet phase triggers one refine round: the
    # background map is built twice, for two different fluid subsets.
    return run_fct_hybrid(
        "dcqcn", workload="websearch", k=4, load=0.5, n_flows=60, scale=0.1, seed=2
    )


def _quick_split_cell():
    # The ``million_flows_quick`` tier split (bench harness, strict mode).
    cfg = HybridConfig(
        threshold=0.99, min_link_flows=10, congested_frac=0.9, refine_rounds=0,
        mouse_bytes=0, epoch_us=200.0, bg_quantum_bytes=64 * DEFAULT_MTU,
    )
    return run_fct_hybrid(
        "fncc", config=cfg, workload="websearch", k=4, load=0.6, n_flows=400,
        scale=0.01, seed=1,
    )


def _partition_cell():
    rng = random.Random(7)
    picks = {}

    def classify(flow):
        return picks.setdefault(flow.flow_id, rng.random() < 0.5)

    return run_fct_hybrid(
        "fncc", classify_fn=classify, workload="websearch", k=4, load=0.5,
        n_flows=30, scale=0.1, seed=2,
    )


#: name -> (cell, refine rounds used, FCT digest, background-map digest)
GOLDEN = {
    "default": (_default_cell, 1, "7d19f73dd60ade30", "9e0f84afbcc47ccb"),
    "quick_split": (_quick_split_cell, 0, "276281826645336d", "fbb40cd7efc71e83"),
    "partition": (_partition_cell, 0, "036559781486a194", "1e0921b1ba81d92f"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_hybrid_outputs_match_golden(name, monkeypatch):
    cell, rounds, fct_digest, bg_digest = GOLDEN[name]
    captured = []
    schedule = backend._schedule_bg_drains

    def spy(fab, bg_bytes, epoch_ps, quantum):
        captured.append([(lk, list(per_epoch.items())) for lk, per_epoch in bg_bytes.items()])
        return schedule(fab, bg_bytes, epoch_ps, quantum)

    monkeypatch.setattr(backend, "_schedule_bg_drains", spy)
    res = cell()
    assert res.stats["refine_rounds"] == rounds
    assert len(captured) == rounds + 1
    assert res.completed() == res.n_flows
    assert _digest(res.fct_fingerprint()) == fct_digest
    assert _digest(captured) == bg_digest
