"""One event order for every engine, at fleet scale.

Serial fused, serial unfused and 2-shard runs of the same cell must be
the *same run*: equal makespan, messages, steals, events-equivalent and
every per-pid counter. They fire the same events in the same order
because every heap entry is keyed by ``(time, origin pid, per-origin
ordinal)`` (:mod:`repro.sim.events`), which no engine can tell apart.

The cells are the scale sweep's (:func:`repro.experiments.scale.scale_cell`:
10 ms flat fleet network, quantum 16) at n in {500, 1000}. The first three
are the ones that split under insertion-order tie-breaking: there the
fused run fired a tie the other way and ended 38,986 messages /
0.3617929 s against the unfused 38,973 / 0.3713968 s (BTD synthetic),
0.3637258 vs 0.3640907 s (TD bin_small) and 0.3637658 vs 0.3834459 s
(BTD bin_small).
"""

import dataclasses
from itertools import product

import pytest

from repro.experiments.runner import run_instrumented
from repro.experiments.scale import scale_cell
from repro.sim.shard import run_sharded
from repro.sim.stats import _FLOAT_FIELDS, _INT_FIELDS

SYNTH_UNITS = 500   # units per node of the synthetic cells

#: (protocol, app, n, seed)
MOTIVATION = [("BTD", "synthetic", 1000, 6), ("TD", "uts", 1000, 44),
              ("BTD", "uts", 1000, 21)]
#: the sweep: every protocol x app x n, one seed each
GRID = [(proto, app, n, seed) for seed, (n, proto, app) in enumerate(
    product((500, 1000), ("TD", "BTD", "RWS"), ("synthetic", "uts")), start=1)]


def _observables(res, stats):
    rows = [tuple(getattr(st, name) for name in _INT_FIELDS + _FLOAT_FIELDS)
            for st in stats.per_process]
    return (res.makespan, res.work_done_time, res.total_units,
            res.total_msgs, res.total_steals, res.events_equivalent,
            rows)


@pytest.mark.parametrize("proto,app,n,seed", MOTIVATION + GRID)
def test_fused_unfused_sharded_agree(proto, app, n, seed):
    cfg, spec, expected = scale_cell(proto, app, n, seed=seed,
                                     units_per_node=SYNTH_UNITS,
                                     preset="bin_small")
    fused = run_instrumented(cfg, spec.build())
    unfused = run_instrumented(dataclasses.replace(cfg, fuse=False),
                               spec.build())
    res_p, stats_p, _walls = run_sharded(cfg, spec, 2)
    assert fused[0].total_units == expected
    assert fused[0].macro_events > 0, "fusion never engaged"
    assert unfused[0].macro_events == 0
    want = _observables(*fused)
    assert _observables(*unfused) == want
    assert _observables(res_p, stats_p) == want
