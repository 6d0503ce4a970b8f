"""Engine + process tests: delivery, occupancy, deadlock detection."""

import pytest

from repro.sim import (Message, SimConfigError, SimDeadlockError, SimProcess,
                       Simulator, uniform_network)


class Sink(SimProcess):
    """Records (time, kind) of everything it absorbs."""

    def __init__(self, pid):
        super().__init__(pid)
        self.log = []

    def on_message(self, msg: Message):
        self.log.append((self.now, msg.kind))


class Sender(SimProcess):
    def __init__(self, pid, dst, kinds):
        super().__init__(pid)
        self.dst, self.kinds = dst, kinds

    def start(self):
        for k in self.kinds:
            self.send(self.dst, k)


def _net(**kw):
    kw.setdefault("latency", 1e-4)
    kw.setdefault("handler_cost", 1e-5)
    return uniform_network(**kw)


def test_requires_processes():
    with pytest.raises(SimConfigError):
        Simulator(_net()).run()


def test_pid_order_enforced():
    sim = Simulator(_net())
    with pytest.raises(SimConfigError):
        sim.add_process(Sink(1))


def test_single_shot_run():
    sim = Simulator(_net())
    sim.add_process(Sink(0))
    sim.run()
    with pytest.raises(SimConfigError):
        sim.run()


def test_message_delivery_and_handler_cost():
    sim = Simulator(_net())
    sim.add_process(Sender(0, 1, ["A"]))
    sink = sim.add_process(Sink(1))
    sim.run()
    # arrival at latency + size/bw, handled handler_cost later
    (t, k), = sink.log
    assert k == "A"
    assert t == pytest.approx(1e-4 + 64 / sim.network.bandwidth + 1e-5)
    assert sink.stats.handler_time == pytest.approx(1e-5)
    assert sink.stats.msgs_received == 1


def test_messages_serialize_on_one_cpu():
    sim = Simulator(_net())
    sim.add_process(Sender(0, 1, ["A", "B", "C"]))
    sink = sim.add_process(Sink(1))
    sim.run()
    times = [t for t, _ in sink.log]
    kinds = [k for _, k in sink.log]
    assert kinds == ["A", "B", "C"]
    # same arrival instant, but handling occupies the CPU sequentially
    assert times[1] - times[0] == pytest.approx(1e-5)
    assert times[2] - times[1] == pytest.approx(1e-5)


def test_occupy_defers_message_handling():
    class Busy(Sink):
        def start(self):
            self.occupy(1.0, lambda: None)

    sim = Simulator(_net())
    sim.add_process(Sender(0, 1, ["A"]))
    busy = sim.add_process(Busy(1))
    sim.run()
    (t, _), = busy.log
    assert t == pytest.approx(1.0 + 1e-5)


def test_occupy_chaining():
    class Chain(SimProcess):
        def __init__(self, pid):
            super().__init__(pid)
            self.marks = []

        def start(self):
            self.occupy(1.0, self._first)

        def _first(self):
            self.marks.append(self.now)
            self.occupy(2.0, lambda: self.marks.append(self.now))

    sim = Simulator(_net())
    p = sim.add_process(Chain(0))
    sim.run()
    assert p.marks == [pytest.approx(1.0), pytest.approx(3.0)]


def test_on_cpu_free_fires_after_drain():
    class Counter(Sink):
        def __init__(self, pid):
            super().__init__(pid)
            self.freed = 0

        def on_cpu_free(self):
            self.freed += 1

    sim = Simulator(_net())
    sim.add_process(Sender(0, 1, ["A", "B"]))
    c = sim.add_process(Counter(1))
    sim.run()
    assert c.freed >= 1
    assert len(c.log) == 2


def test_deadlock_detection():
    class Stuck(SimProcess):
        def finished(self):
            return False

    sim = Simulator(_net())
    sim.add_process(Stuck(0))
    with pytest.raises(SimDeadlockError):
        sim.run()


def test_debug_tags_off_by_default():
    """Hot-path events carry no tag strings unless debug is on."""
    sim = Simulator(_net())
    sim.add_process(Sender(0, 1, ["A", "B"]))
    sim.add_process(Sink(1))
    sim.run(max_events=0)
    assert len(sim.queue) > 0
    assert all(tag == "" for _, tag in sim.queue.snapshot_tags())


def test_debug_tags_name_pending_events():
    """With debug=True, snapshot_tags names every pending hot-path event."""
    class Pinger(SimProcess):
        def start(self):
            self.send(0, "PING")
            self.call_after(1.0, lambda: None)

    sim = Simulator(_net(), debug=True)
    sim.add_process(Pinger(0))
    sim.run(max_events=0)
    tags = [tag for _, tag in sim.queue.snapshot_tags()]
    assert any(tag.startswith("deliver:PING") for tag in tags)
    assert any(tag.startswith("timer@") for tag in tags)


def test_deadlock_report_hints_at_debug_flag():
    class Stuck(SimProcess):
        def finished(self):
            return False

    sim = Simulator(_net())
    sim.add_process(Stuck(0))
    with pytest.raises(SimDeadlockError) as exc:
        sim.run()
    assert "debug=True" in str(exc.value)


def test_message_has_no_dict():
    msg = Message(0, 1, "A")
    assert not hasattr(msg, "__dict__")
    with pytest.raises(AttributeError):
        msg.extra = 1
    assert Message(0, 1, "A", size_bytes=1).size_bytes >= 64
    # equality ignores send_time (stamped in transit)
    a, b = Message(0, 1, "A"), Message(0, 1, "A", send_time=5.0)
    assert a == b


def test_max_time_truncates_without_deadlock_error():
    class Ticker(SimProcess):
        def start(self):
            self._tick()

        def _tick(self):
            self.call_after(1.0, self._tick)

        def finished(self):
            return False

    sim = Simulator(_net())
    sim.add_process(Ticker(0))
    stats = sim.run(max_time=10.5)
    assert stats.events_fired == 10


def test_max_events_truncates():
    class Ticker(SimProcess):
        def start(self):
            self._tick()

        def _tick(self):
            self.call_after(1.0, self._tick)

        def finished(self):
            return False

    sim = Simulator(_net())
    sim.add_process(Ticker(0))
    stats = sim.run(max_events=5)
    assert stats.events_fired == 5


def test_stop_aborts():
    class Stopper(SimProcess):
        def start(self):
            self.call_after(1.0, self.sim.stop)
            self.call_after(2.0, lambda: (_ for _ in ()).throw(AssertionError))

        def finished(self):
            return False

    sim = Simulator(_net())
    sim.add_process(Stopper(0))
    sim.run()  # must not raise


def test_unknown_destination_rejected():
    class Bad(SimProcess):
        def start(self):
            self.send(99, "X")

    sim = Simulator(_net())
    sim.add_process(Bad(0))
    from repro.sim.errors import SimRuntimeError
    with pytest.raises(SimRuntimeError):
        sim.run()


def test_determinism_across_runs():
    def one_run():
        sim = Simulator(_net(), seed=11)
        sim.add_process(Sender(0, 1, [f"k{i}" for i in range(20)]))
        sink = sim.add_process(Sink(1))
        sim.run()
        return sink.log

    assert one_run() == one_run()


def test_sent_stats_accounted():
    sim = Simulator(_net())
    sim.add_process(Sender(0, 1, ["A", "B"]))
    sim.add_process(Sink(1))
    st = sim.run()
    assert st.per_process[0].msgs_sent == 2
    assert st.per_process[0].bytes_sent == 2 * 64
    assert st.total_msgs == 2


def test_unreached_limit_does_not_suppress_deadlock():
    """Regression: passing max_time/max_events must not blanket-mark the
    run truncated.  A process that never finishes while the queue drains
    naturally is a deadlock, limit or no limit."""
    class Stuck(SimProcess):
        def finished(self):
            return False

    for kwargs in ({"max_time": 1e9}, {"max_events": 10 ** 9},
                   {"max_time": 1e9, "max_events": 10 ** 9}):
        sim = Simulator(_net())
        sim.add_process(Stuck(0))
        with pytest.raises(SimDeadlockError):
            sim.run(**kwargs)


def test_tripped_limit_still_suppresses_deadlock():
    """When the limit actually cuts work short, no deadlock is raised."""
    class Ticker(SimProcess):
        def start(self):
            self._tick()

        def _tick(self):
            self.call_after(1.0, self._tick)

        def finished(self):
            return False

    sim = Simulator(_net())
    sim.add_process(Ticker(0))
    stats = sim.run(max_events=3)  # events remain pending -> truncated
    assert stats.events_fired == 3

    sim = Simulator(_net())
    sim.add_process(Ticker(0))
    sim.run(max_time=2.5)  # next timer is beyond the horizon -> truncated


def test_exact_limit_with_drained_queue_is_not_truncated():
    """Hitting max_events exactly as the queue empties is a natural end:
    the deadlock check must still apply to unfinished processes."""
    class Stuck(SimProcess):
        def start(self):
            self.call_after(1.0, lambda: None)

        def finished(self):
            return False

    sim = Simulator(_net())
    sim.add_process(Stuck(0))
    with pytest.raises(SimDeadlockError):
        sim.run(max_events=1)  # fires the only event, queue now empty


# -- the event layout: posted deliveries and handler completions -------------


def test_equal_time_deliveries_completions_and_timers_keep_insertion_order():
    """Deliveries (posted by pid 0's start) beat the timer pid 1 pushes at
    the same instant in its start; each handler completion is posted when
    the CPU frees, so it fires after everything inserted before it."""
    net = _net(handler_cost=0.0)
    arrival = 1e-4 + 64 / net.bandwidth

    class Timed(Sink):
        def start(self):
            self.call_at(arrival, lambda: self.log.append((self.now, "timer")))

    sim = Simulator(net)
    sim.add_process(Sender(0, 1, ["A", "B", "C"]))
    sink = sim.add_process(Timed(1))
    sim.run()
    assert sink.log == [(arrival, "timer"), (arrival, "A"), (arrival, "B"),
                        (arrival, "C")]


def test_crash_cancelled_occupy_never_fires():
    from repro.sim.faults import FaultPlan

    class Busy(SimProcess):
        def start(self):
            self.occupy(1.0, self.done)

        def done(self):
            raise AssertionError("occupy completion fired after the crash")

    sim = Simulator(_net(), faults=FaultPlan(crashes=((1, 0.5),)))
    sim.add_process(SimProcess(0))
    sim.add_process(Busy(1))
    stats = sim.run()
    assert stats.per_process[1].crashes == 1
    assert sim.queue.skipped == 1 and sim.now == 0.5


def test_crash_cancelled_macro_event_never_fires():
    """A fused block pending at its worker's crash is skipped, never run."""
    from repro.apps.synthetic import SyntheticApplication
    from repro.experiments.runner import RunConfig, build_workers
    from repro.sim.faults import FaultPlan

    crash_at = 0.02
    plan = FaultPlan(crashes=((2, crash_at),))
    cfg = RunConfig(protocol="TD", n=4, quantum=16, seed=7, faults=plan,
                    network=uniform_network(latency=1e-3))
    sim = Simulator(network=cfg.network, seed=7, faults=plan, debug=True)
    workers = build_workers(sim, cfg, SyntheticApplication(4 * 50_000,
                                                          unit_cost=1e-6))
    victim = workers[2]
    fused_at = []
    real_done = victim._quantum_done

    def spy(units, improved):
        fused_at.append(sim.now)
        real_done(units, improved)

    victim._quantum_done = spy
    pending = []
    real_crash = sim._crash_process

    def crash(pid):
        pending.append(sim.processes[pid]._occupy_event)
        real_crash(pid)

    sim._crash_process = crash
    sim.run()
    (handle,) = pending
    assert handle is not None and handle.tag.startswith("macro@2")
    assert handle.cancelled and handle.time > crash_at
    assert fused_at and max(fused_at) <= crash_at


def test_cancelled_reliable_timer_never_fires(monkeypatch):
    """A partition trips circuit breakers, which park their transfers and
    cancel the retransmit timers: none of those timers ever runs."""
    from repro.apps.uts_app import UTSApplication
    from repro.experiments.runner import RunConfig, build_workers
    from repro.sim import grid5000
    from repro.sim.events import Event
    from repro.sim.faults import FaultPlan
    from repro.uts.params import PRESETS

    cancelled, fired = [], []
    real_cancel, real_fire = Event.cancel, SimProcess._fire_timer

    def cancel(ev):
        # a tripping breaker also cancels the timer that is firing right
        # now (it parks every transfer to the peer): only a cancel ahead
        # of the fire counts
        if not any(fn is ev.arg for fn in fired):
            cancelled.append(ev.arg)
        real_cancel(ev)

    def fire(proc, fn):
        fired.append(fn)
        real_fire(proc, fn)

    monkeypatch.setattr(Event, "cancel", cancel)
    monkeypatch.setattr(SimProcess, "_fire_timer", fire)
    n = 16
    plan = FaultPlan(partitions=((tuple(range(n // 2, n)), 1e-3, 8e-3),))
    cfg = RunConfig(protocol="TD", n=n, dmax=3, seed=1, faults=plan,
                    ack_timeout=5e-4, breaker_threshold=3, quantum=16)
    sim = Simulator(network=grid5000(), seed=1, faults=plan)
    build_workers(sim, cfg, UTSApplication(PRESETS["bin_tiny"].params))
    stats = sim.run()
    assert stats.total_breaker_opens() > 0 and cancelled and fired
    # both lists keep their callables alive, so ids are unique
    dead = {id(fn) for fn in cancelled}
    assert not any(id(fn) in dead for fn in fired)


def test_debug_names_pending_deliveries_and_handles():
    """Under debug=True the snapshot and the deadlock report name what is
    pending, posted-path events included: a delivery and a handle."""
    class Stuck(Sink):
        def finished(self):
            return False

    class Bulky(SimProcess):
        def start(self):
            self.send(1, "B", body_bytes=200_000)   # 0.1 ms behind A

    net = _net()
    arrival = 1e-4 + 64 / net.bandwidth
    sim = Simulator(net, debug=True)
    sim.add_process(Sender(0, 1, ["A"]))
    sim.add_process(Stuck(1))
    sim.add_process(Bulky(2))
    sim.begin_windows()
    sim.run_window(arrival + 5e-6)     # A arrived, its handle is pending
    tags = [tag for _, tag in sim.queue.snapshot_tags()]
    assert tags == ["handle:A@1", "deliver:B->1"]
    with pytest.raises(SimDeadlockError) as exc:
        sim.finish_windows()
    assert "handle:A@1" in str(exc.value)
    assert "deliver:B->1" in str(exc.value)


# -- bound stats rows ---------------------------------------------------------


def test_stats_row_is_bound_once():
    """SimProcess.stats is the row of sim.stats, bound when the run begins
    (start() already sees it) and the same object through the run."""
    seen = {}

    class Probe(Sink):
        def start(self):
            seen["start"] = self.stats

        def on_message(self, msg):
            seen["handler"] = self.stats

    sim = Simulator(_net())
    sim.add_process(Sender(0, 1, ["A"]))
    probe = sim.add_process(Probe(1))
    stats = sim.run()
    assert seen["start"] is seen["handler"] is probe.stats
    assert probe.stats is stats.per_process[1]
    assert probe.stats.msgs_received == 1


def test_shard_ghost_stats_row_is_bound():
    from types import SimpleNamespace
    from repro.sim.shard import _GhostProcess

    sim = Simulator(_net(), shard=SimpleNamespace())
    ghost = sim.add_process(_GhostProcess(0))
    local = sim.add_process(Sink(1))
    sim.begin_windows()
    assert ghost._stats is sim.stats.per_process[0]
    assert local.stats is sim.stats.per_process[1]
    sim.finish_windows()
    assert ghost._stats is sim.stats.per_process[0]


def test_live_env_binds_the_stats_row():
    """LiveEnv.attach binds the row; the posted handler completion runs
    through the wall-clock queue and books into that same row."""
    from repro.runtime.env import LiveEnv

    env = LiveEnv(0, 2, mesh=None)
    proc = Sink(0)
    env.attach(proc)
    row = env.stats.per_process[0]
    assert proc.stats is row
    proc._arrive(Message(1, 0, "A"))
    assert env.queue.fire_due() == 1
    assert [k for _, k in proc.log] == ["A"]
    assert proc.stats is row and row.msgs_received == 1
