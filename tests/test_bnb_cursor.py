"""The paused-DFS cursor on ``BnBWork``: resumed == rebuilt.

``BnBEngine`` continues a paused depth-first search from
``BnBWork.cursor`` instead of rebuilding the stack from the head's
position. The cursor is a pure cache, so an engine whose cursor is dropped
before every call (the *cold* twin: the pre-cursor behaviour) must produce
the same nodes, positions, incumbents and pause points, call by call —
whatever happens to the intervals in between.
"""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.bnb_app import BnBApplication
from repro.baselines.master_worker import NOTIFY, MWMaster, MWWorker
from repro.bnb.engine import BnBEngine
from repro.bnb.interval import tree_leaves
from repro.bnb.state import BoundState
from repro.bnb.taillard import scaled_instance
from repro.bnb.work import BnBWork
from repro.core.worker import WorkerConfig
from repro.runtime.codec import from_wire, to_wire
from repro.sim import Simulator, uniform_network
from repro.sim.messages import Message
from tests.bnb_scalar import make_engine

BOUNDS = ["lb1", "llrk", "llrk-full"]
QUANTA = [1, 3, 16, 64]


class Twin:
    """One worker's (work, incumbent) on a warm and on a cold engine."""

    def __init__(self, inst, bound="lb1", batch=True, intervals=None):
        n = inst.n_jobs
        self.engines = (make_engine(inst, bound, batch),
                        make_engine(inst, bound, batch))
        self.works = tuple(
            BnBWork(n, intervals) if intervals else BnBWork.full_tree(n)
            for _ in range(2))
        self.shareds = (BoundState(), BoundState())
        self.nodes = 0

    @property
    def done(self):
        return self.works[0].is_empty()

    def step(self, q):
        """One ``explore(q)`` on both sides; asserts they agree."""
        self.works[1].cursor = None      # the cold twin always rebuilds
        seen = []
        for eng, work, shared in zip(self.engines, self.works, self.shareds):
            res = eng.explore(work, shared, q)
            seen.append((res.nodes, res.improved, res.exhausted,
                         work.as_tuples(), shared.value, shared.perm))
        assert seen[0] == seen[1]
        self.nodes += seen[0][0]
        return seen[0]

    def each(self, fn):
        """Apply the same interval surgery to both sides."""
        return [fn(w) for w in self.works]

    def finish(self, q):
        while not self.done:
            self.step(q)
        return self.nodes


# -- resumed == rebuilt, call by call ----------------------------------------

@pytest.mark.parametrize("batch", [True, False])
@pytest.mark.parametrize("idx", range(1, 11))
def test_resumed_equals_rebuilt_on_every_golden(idx, batch):
    """Ta2{idx}s 8x10: every call agrees, and the total is the golden
    single-call node count (counts stay independent of the quantum)."""
    inst = scaled_instance(idx, n_jobs=8, n_machines=10)
    for bound in BOUNDS:
        golden = BnBEngine(inst, bound=bound).solve()[2]
        for q in QUANTA if bound == "lb1" else QUANTA[2:]:
            twin = Twin(inst, bound, batch)
            assert twin.finish(q) == golden
            warm, cold = twin.engines
            assert (warm.rebuilds, cold.resumes) == (1, 0)
            assert warm.resumes == cold.rebuilds - 1


def test_small_quanta_every_bound_and_mode():
    """q in {1, 3} on the pair bounds, both modes (a prefix: the cold twin
    pays a rebuild per node)."""
    inst = scaled_instance(4, n_jobs=8, n_machines=10)
    for bound in BOUNDS[1:]:
        for batch in (True, False):
            for q in QUANTA[:2]:
                twin = Twin(inst, bound, batch)
                for _ in range(400):
                    assert not twin.step(q)[2]


def test_sequential_q16_solve_rebuilds_exactly_once():
    eng = BnBEngine(scaled_instance(1, n_jobs=10, n_machines=10))
    _, _, nodes = eng.solve(quantum=16)
    assert eng.rebuilds == 1
    assert eng.resumes > nodes // (16 + 10)


# -- invalidation: anything but a pause takes the rebuild ---------------------

INST = scaled_instance(3, n_jobs=8, n_machines=10)
N = INST.n_jobs
TOTAL = tree_leaves(N)


def test_split_cutting_the_heads_b_keeps_the_cursor_valid():
    twin = Twin(INST)
    twin.step(16)
    before = twin.engines[0].rebuilds
    pieces = twin.each(lambda w: w.split(0.5))
    assert pieces[0].as_tuples() == pieces[1].as_tuples()
    assert len(twin.works[0].intervals) == 1          # the head itself was cut
    twin.step(16)
    assert twin.engines[0].rebuilds == before         # resumed, new b re-read
    twin.finish(16)


def test_merge_into_an_empty_container_rebuilds():
    twin = Twin(INST)
    twin.step(16)

    def move(w):
        fresh = BnBWork.empty(N)
        fresh.merge(w)
        return fresh
    moved = twin.each(move)
    assert all(w.is_empty() for w in twin.works)
    twin.works = tuple(moved)
    before = twin.engines[0].rebuilds
    twin.step(16)                        # same list objects, no cursor: cold
    assert twin.engines[0].rebuilds == before + 1
    twin.finish(16)


def test_pop_head_from_outside_rebuilds_on_the_next_head():
    cut = TOTAL // 3
    twin = Twin(INST, intervals=[(0, cut), (cut, TOTAL)])
    twin.step(16)
    twin.each(lambda w: w.pop_head())
    before = twin.engines[0].rebuilds
    assert twin.step(16)[3][0][1] == TOTAL
    assert twin.engines[0].rebuilds == before + 1
    twin.finish(16)


def test_moved_left_edge_rebuilds():
    """A master rewriting the head's ``a`` in place (same list object)."""
    twin = Twin(INST)
    twin.step(16)

    def skip_ahead(w):
        w.head()[0] += 1000
    twin.each(skip_ahead)
    before = twin.engines[0].rebuilds
    twin.step(16)
    assert twin.engines[0].rebuilds == before + 1
    twin.finish(16)


@pytest.mark.parametrize("pops", [True, False])
def test_mw_notify_editing_the_head_from_outside(pops):
    """The MW master re-grants part of a worker's interval: NOTIFY either
    shrinks the head's ``b`` (cursor stays valid) or pops the head."""
    runs = []
    for cold in (False, True):
        app = BnBApplication(INST)
        sim = Simulator(uniform_network(latency=1e-4), seed=1)
        sim.add_process(MWMaster(0, 2, app, WorkerConfig(quantum=16)))
        worker = sim.add_process(MWWorker(1, 2, app, WorkerConfig(quantum=16)))
        worker.work = BnBWork(N, [(0, TOTAL // 2), (TOTAL // 2, TOTAL)])
        worker.req_outstanding = True   # the pop must not send (sim not run)
        trace, rebuilds = [], []
        for call in range(8):
            if cold:
                worker.work.cursor = None
            if call == 3:
                pos = worker.work.head()[0]
                worker.handle(Message(0, 1, NOTIFY,
                                      pos if pops else pos + 5000))
            res = app.process(worker.work, 16, worker.shared)
            trace.append((res.units, res.improved, worker.work.as_tuples(),
                          worker.shared.value))
            rebuilds.append(app.engine.rebuilds)
        runs.append((trace, rebuilds))
    (warm, warm_rebuilds), (cold, _) = runs
    assert warm == cold
    assert len(warm[3][2]) == (1 if pops else 2)
    assert warm_rebuilds == [1, 1, 1] + [2 if pops else 1] * 5


# -- one engine, many workers -------------------------------------------------

@pytest.mark.parametrize("batch", [True, False])
def test_interleaved_workers_on_one_shared_engine(batch):
    """Two workers alternate on one engine whose scalar bound walks the
    published mask: a resume that forgot ``set_mask`` would bound worker
    A's children against worker B's unscheduled set."""
    cut = 3 * TOTAL // 8
    parts = ([(0, cut)], [(cut, TOTAL)])
    alone = []
    for part in parts:
        eng, work, shared = (make_engine(INST, "llrk", batch), BnBWork(N, part),
                             BoundState())
        trace = []
        while not work.is_empty():
            res = eng.explore(work, shared, 7)
            trace.append((res.nodes, res.improved, work.as_tuples(),
                          shared.value))
        alone.append(trace)
    eng = make_engine(INST, "llrk", batch)
    works = [BnBWork(N, part) for part in parts]
    shareds = [BoundState(), BoundState()]
    together = [[], []]
    while not all(w.is_empty() for w in works):
        for who in (0, 1):
            if not works[who].is_empty():
                res = eng.explore(works[who], shareds[who], 7)
                together[who].append((res.nodes, res.improved,
                                      works[who].as_tuples(),
                                      shareds[who].value))
    assert together == alone
    assert eng.rebuilds == 2


# -- the cursor never travels -------------------------------------------------

@pytest.mark.parametrize("carry", ["wire", "pickle"])
def test_round_trips_carry_no_cursor(carry):
    golden = BnBEngine(INST).solve()[2]
    eng = BnBEngine(INST)
    work, shared = BnBWork.full_tree(N), BoundState()
    nodes = eng.explore(work, shared, 100).nodes
    assert work.cursor is not None
    if carry == "wire":
        wire = json.dumps(to_wire(work))
        assert json.loads(wire) == {"__bnb": {
            "n": N, "i": [list(t) for t in work.as_tuples()]}}
        copy = from_wire(json.loads(wire))
    else:
        blob = pickle.dumps(work)
        assert len(blob) < 200                  # two ints, not a DFS stack
        copy = pickle.loads(blob)
    assert copy.cursor is None
    assert copy.as_tuples() == work.as_tuples()
    while not copy.is_empty():
        nodes += eng.explore(copy, shared, 100).nodes
    assert nodes == golden
    assert eng.rebuilds == 2


# -- every call makes progress ------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(idx=st.integers(1, 5), q=st.sampled_from(QUANTA),
       churn=st.lists(st.tuples(st.sampled_from(["split", "merge", "run"]),
                                st.floats(0.05, 0.9)), max_size=12),
       batch=st.booleans())
def test_property_a_call_enumerates_a_node_or_consumes_its_head(
        idx, q, churn, batch):
    """With budget >= 1 ``explore`` spends its whole budget or exhausts the
    work — there is no "budget ran out mid-rebuild" outcome — under any
    split/merge churn, and the resumed side tracks the cold one throughout."""
    inst = scaled_instance(idx, n_jobs=7, n_machines=5)
    twin = Twin(inst, "lb1", batch)
    parked = []
    ops = iter(churn + [("run", 0.0)] * 10_000)
    while not twin.done or parked:
        op, frac = next(ops)
        if op == "split" and not twin.done:
            pieces = twin.each(lambda w: w.split(frac))
            if pieces[0] is not None:
                parked.append(pieces)
        elif (op == "merge" or twin.done) and parked:
            pieces = parked.pop()
            for w, piece in zip(twin.works, pieces):
                w.merge(piece)
        elif not twin.done:
            nodes, _, exhausted, *_ = twin.step(q)
            assert exhausted or q <= nodes <= q + inst.n_jobs
