"""The background integrals the fluid tier hands to the packet tier are a
replay of the solved trajectory; check them against an independent
integration of the same trajectory.

The reference cuts each tracked flow's rate history into piecewise-constant
segments (checked to carry exactly the flow's bytes between its arrival
and its finish), then integrates every segment over every epoch of every
background link the flow crosses.  The replay instead keeps one running
load per link and flushes it at each change; both must agree.
"""

import random

import pytest

from repro.analysis.flowsim import FlowLevelSimulator
from repro.transport.flow import Flow
from repro.units import DEFAULT_MTU, KB, MB, us

HEADER = 48
WIRE = DEFAULT_MTU / (DEFAULT_MTU - HEADER)


def random_cell(seed):
    """A random fabric of independent directed links and flows crossing
    one to three of them, sized to span many epochs."""
    rng = random.Random(seed)
    fls = FlowLevelSimulator()
    n_links = rng.randint(3, 6)
    keys = []
    for j in range(n_links):
        fls.add_link(("u", j), ("v", j), rng.choice((10.0, 25.0, 40.0, 100.0)))
        keys.append((("u", j), ("v", j)))
    paths, flows = {}, []
    for fid in range(rng.randint(4, 12)):
        paths[fid] = rng.sample(keys, rng.randint(1, min(3, n_links)))
        size = rng.randint(20 * KB, 2 * MB)
        flows.append(Flow(fid, 0, 1, size, start_ps=rng.randrange(0, us(400))))
    return fls, flows, paths, keys, rng


def rate_segments(res, flows):
    """flow_id -> [(t0, t1, rate)]: each flow's piecewise-constant rate
    (bytes/ps of wire bytes, float picoseconds), read off the run's log of
    committed rate changes."""
    eng = res._engine
    changes = {f.flow_id: [] for f in flows}
    for t, i, delta in zip(eng._log_t, eng._log_flow, eng._log_delta):
        changes[flows[i].flow_id].append((t, delta))
    segs = {}
    for f in flows:
        rate, out = 0.0, []
        hist = changes[f.flow_id]
        for (t0, delta), (t1, _) in zip(hist, hist[1:]):
            rate += delta
            if t1 > t0:
                out.append((t0, t1, rate))
        segs[f.flow_id] = out
        # The history is the whole flow: it starts at the arrival, ends
        # at the finish, and carries exactly the flow's wire bytes.
        start, finish = res.windows[f.flow_id]
        assert hist[0][0] == start and hist[-1][0] == finish
        assert rate + hist[-1][1] == pytest.approx(0.0, abs=1e-12)
        sent = sum(r * (t1 - t0) for t0, t1, r in out)
        assert sent == pytest.approx(f.size_bytes * WIRE, rel=1e-9)
    return segs


def integrate(segs, paths, tracked, links, epoch):
    """link -> {epoch: bytes} from the tracked flows' rate segments."""
    out = {k: {} for k in links}
    for fid in tracked:
        for k in paths[fid]:
            if k not in out:
                continue
            acc = out[k]
            for t0, t1, rate in segs[fid]:
                e = int(t0 // epoch)
                while e * epoch < t1:
                    lo, hi = max(t0, e * epoch), min(t1, (e + 1) * epoch)
                    if hi > lo:
                        acc[e] = acc.get(e, 0.0) + rate * (hi - lo)
                    e += 1
    return out


def assert_integrals_match(got, want, links):
    for k in links:
        g, w = got.get(k, {}), want[k]
        for e in set(g) | set(w):
            # A tracked load that returns to zero through float
            # subtraction can leave a ~1e-18 bytes/ps residue: allow it an
            # absolute sliver, and 1e-9 relative on everything else.
            assert g.get(e, 0.0) == pytest.approx(w.get(e, 0.0), rel=1e-9, abs=1e-6), (k, e)


@pytest.mark.parametrize("seed", range(10))
def test_replayed_background_matches_rate_integral(seed):
    fls, flows, paths, keys, rng = random_cell(seed)
    epoch = us(rng.choice((5, 20, 50)))
    bg_links = rng.sample(keys, rng.randint(1, len(keys)))
    tracked = sorted(rng.sample(sorted(paths), rng.randint(1, len(paths))))
    # Exact progressive filling, or the hybrid backend's damped default.
    rate_eps, ripple_rounds = ((0.0, None), (0.02, 2))[seed % 2]

    res = fls.run(
        flows, lambda f: paths[f.flow_id], bg=(epoch, bg_links, tracked),
        rate_eps=rate_eps, ripple_rounds=ripple_rounds,
    )
    assert len(res.records) == len(flows)
    segs = rate_segments(res, flows)
    # Multi-epoch flows, or the check would be one bucket deep.
    assert max(t1 for s in segs.values() for _, t1, _ in s) > 5 * epoch
    assert_integrals_match(res.bg_bytes, integrate(segs, paths, tracked, bg_links, epoch), bg_links)

    # The same run replays any other (links, flows) split without solving
    # again, and the bg= hook is exactly that replay.
    others = [fid for fid in sorted(paths) if fid not in tracked] or tracked
    assert res.background(epoch, bg_links, tracked) == res.bg_bytes
    assert_integrals_match(
        res.background(epoch, keys, others),
        integrate(segs, paths, others, keys, epoch),
        keys,
    )
