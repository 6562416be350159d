"""Output checks, operation accounting and the statistics the runner reports.

An operation is one flow.  A flow fails if it does not complete or its
sender gives up (RTO failure).  No faults are armed, so no flow is expected
to fail; when any check on a batch experiment fails, every flow of that
experiment counts as failed instead of the run aborting.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence


def cell_errors(cell: dict) -> List[str]:
    """Checks on one (fabric, CC) cell's outputs."""
    key, n = cell["key"], cell["n_flows"]
    recs = cell["records"]
    errs = []
    ids = {fid for fid, _, _ in recs}
    if len(recs) != n or len(ids) != n:
        errs.append(f"{key}: {len(ids)} of {n} flows completed")
    if cell["counters"]["failed_senders"]:
        errs.append(f"{key}: {cell['counters']['failed_senders']} senders failed")
    below = sum(1 for _, fct, ideal in recs if not ideal or fct < ideal)
    if below:
        errs.append(f"{key}: {below} flows finished faster than their ideal FCT")
    c = cell["counters"]
    if c["pause_sent"] != c["pause_received"] or c["resume_sent"] != c["resume_received"]:
        errs.append(
            f"{key}: PFC ledger unbalanced (pause {c['pause_sent']} sent, "
            f"{c['pause_received']} received; resume {c['resume_sent']} sent, "
            f"{c['resume_received']} received)"
        )
    return errs


def experiment_errors(cells: Sequence[dict], planned_cells: int) -> List[str]:
    errs = [e for c in cells for e in cell_errors(c)]
    if len(cells) != planned_cells:
        errs.append(f"{planned_cells - len(cells)} of {planned_cells} cells missing")
    return errs


def repeat_errors(children: Sequence[dict]) -> Dict[int, str]:
    """Index -> reason, for every batch experiment whose fingerprints or work
    counters differ from the first untraced experiment on the same input.

    This covers three checks: repeats of one seed agree; a traced run
    reproduces the untraced run (fingerprints, ``events``, ``frame_hops``,
    ``train_frames``); and pool cells equal in-process cells."""
    first: Dict[int, dict] = {}
    for ch in children:
        if ch.get("fingerprints") and not ch["traced"]:
            first.setdefault(ch["subseed"], ch)
    bad = {}
    for i, ch in enumerate(children):
        ref = first.get(ch["subseed"])
        if ref is None or ch is ref or not ch.get("fingerprints"):
            continue
        if ch["fingerprints"] != ref["fingerprints"]:
            diff = sorted(
                k for k in set(ch["fingerprints"]) | set(ref["fingerprints"])
                if ch["fingerprints"].get(k) != ref["fingerprints"].get(k)
            )
            bad[i] = f"seed {ch['subseed']}: FCT fingerprint differs in {', '.join(diff)}"
        elif ch["work"] != ref["work"]:
            bad[i] = f"seed {ch['subseed']}: work counters differ: {ch['work']} vs {ref['work']}"
    return bad


def account(children: Sequence[dict], bad: Dict[int, str]) -> tuple:
    """(attempted, failed) flows over a run's batch experiments."""
    attempted = failed = 0
    for i, ch in enumerate(children):
        attempted += ch["n_flows"]
        if ch["errors"] or i in bad:
            failed += ch["n_flows"]
        else:
            failed += ch["failed_flows"]
    return attempted, failed


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolated linearly (numpy's default);
    0.0 when there are fewer than two values."""
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_input_mean(children: Iterable[dict], value) -> float:
    """Mean over input sets (sub-seeds) of the median over that input's
    repeats: the median rejects host noise, the mean averages inputs."""
    by: Dict[int, List[float]] = {}
    for ch in children:
        by.setdefault(ch["subseed"], []).append(value(ch))
    return statistics.fmean(statistics.median(v) for v in by.values())
