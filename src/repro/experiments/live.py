"""The ``live`` subcommand: one wall-clock multi-process run.

Usage::

    python -m repro.experiments live --app uts --preset bin_tiny \
        --protocol BTD --n 4
    python -m repro.experiments live --n 4 --fault-tolerance \
        --kill 2@500u --expect-conserved --json report.json

Spawns N OS worker processes under the :mod:`repro.runtime` supervisor —
the same protocol code the simulator executes, over real sockets — and
prints the same :class:`repro.obs.report.RunReport` rendering the
``report`` subcommand produces for simulated runs (``--json`` emits the
identical schema, with ``meta.live: true``).

Fault injection is real: ``--kill PID@0.5s`` SIGKILLs a worker half a
second after start, ``--kill PID@500u`` once its write-ahead spool shows
500 processed units (deterministic enough for CI), and
``--partition 2,3@0.2-1.2s`` cuts workers 2 and 3 off from the rest of
the fleet for a wall-clock window (each worker's mesh drops every ``msg``
frame it would send across the cut) before healing.  With
``--expect-conserved`` the exit status asserts the exact work-conservation
identity over survivors + spools; with ``--compare-sim`` the run is
cross-checked against the discrete-event simulator (equal UTS node
counts, equal B&B optima).

Protocol frames flow over direct worker<->worker connections (the
supervisor is control plane only), and membership is elastic:
``--join 4@1.5s`` spawns worker 4 a second and a half into the run (the
supervisor assigns its overlay position and announces it),
``--leave 2@1.5s`` orders worker 2 to drain its pool to its parent and
depart gracefully.  Both compose with ``--kill`` and ``--partition``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from ..obs.report import build_report
from ..runtime.env import LIVE_QUANTUM
from .runner import PROTOCOLS
from .runreport import add_job_arguments, spec_from_args

#: Protocols the live backend supports (MW/AHMW/LIFELINE would run, but
#: only these are cross-validated; keep the CLI honest).
LIVE_PROTOCOLS = tuple(p for p in PROTOCOLS
                       if p in ("TD", "BTD", "TR", "BTR", "RWS"))

_KILL_RE = re.compile(r"^(\d+)@(\d+(?:\.\d+)?)(s|u)$")
_PART_RE = re.compile(r"^(\d+(?:,\d+)*)@(\d+(?:\.\d+)?)-(\d+(?:\.\d+)?)s$")
_MEMBER_RE = re.compile(r"^(\d+)@(\d+(?:\.\d+)?)s$")


def parse_kill(text: str) -> dict:
    """``PID@<delay>s`` (wall seconds) or ``PID@<units>u`` (spooled units)."""
    m = _KILL_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"bad --kill spec {text!r} (want e.g. 2@0.5s or 2@500u)")
    pid, value, unit = int(m.group(1)), m.group(2), m.group(3)
    if unit == "s":
        return {"pid": pid, "after_s": float(value)}
    return {"pid": pid, "after_units": int(float(value))}


def parse_partition(text: str) -> dict:
    """``PIDS@<start>-<end>s``: isolate PIDS for that wall-clock window.

    ``2,3@0.2-1.2s`` cuts workers 2 and 3 off from the rest of the fleet
    between 0.2 s and 1.2 s after ``go`` (senders drop every ``msg``
    frame crossing the cut), then heals.
    """
    m = _PART_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"bad --partition spec {text!r} (want e.g. 2,3@0.2-1.2s)")
    side = [int(p) for p in m.group(1).split(",")]
    t0, t1 = float(m.group(2)), float(m.group(3))
    if t0 >= t1:
        raise argparse.ArgumentTypeError(
            f"--partition window must have start < end: {text!r}")
    return {"side": side, "start_s": t0, "end_s": t1}


def parse_member(text: str) -> dict:
    """``PID@<delay>s``: schedule a membership change (join or leave)."""
    m = _MEMBER_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"bad membership spec {text!r} (want e.g. 4@1.5s)")
    return {"pid": int(m.group(1)), "after_s": float(m.group(2))}


def add_live_arguments(parser: argparse.ArgumentParser) -> None:
    add_job_arguments(parser, preset="bin_tiny", bnb_machines=5,
                      protocols=LIVE_PROTOCOLS, n=4, quantum=LIVE_QUANTUM)
    parser.add_argument("--transport", choices=("tcp", "unix"),
                        default="tcp")
    parser.add_argument("--port", type=int, default=0,
                        help="preferred TCP port (0 = ephemeral)")
    parser.add_argument("--run-dir", default=None,
                        help="artifact directory (default: a tempdir)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="supervisor watchdog (wall seconds)")
    parser.add_argument("--fault-tolerance", action="store_true",
                        help="reliable channel + write-ahead spools")
    parser.add_argument("--kill", action="append", type=parse_kill,
                        default=[], metavar="PID@SPEC",
                        help="SIGKILL a worker: 2@0.5s (wall delay) or "
                             "2@500u (after spooled units); implies "
                             "--fault-tolerance")
    parser.add_argument("--partition", action="append",
                        type=parse_partition, default=[],
                        metavar="PIDS@T0-T1s",
                        help="cut a set of workers off for a wall-clock "
                             "window, then heal: 2,3@0.2-1.2s; implies "
                             "--fault-tolerance")
    parser.add_argument("--peer-port-base", type=int, default=0,
                        help="tcp data plane: worker PID listens on "
                             "base+PID (0 = ephemeral ports)")
    parser.add_argument("--join", action="append", type=parse_member,
                        default=[], metavar="PID@Ns",
                        help="spawn a new worker mid-run (pids count up "
                             "from n): 4@1.5s; implies --fault-tolerance")
    parser.add_argument("--leave", action="append", type=parse_member,
                        default=[], metavar="PID@Ns",
                        help="order a worker to drain its pool and depart "
                             "gracefully: 2@1.5s; implies "
                             "--fault-tolerance")
    parser.add_argument("--expect-conserved", action="store_true",
                        help="fail unless the work-conservation identity "
                             "holds exactly")
    parser.add_argument("--compare-sim", action="store_true",
                        help="also run the simulator and cross-check "
                             "(UTS node counts / B&B optimum)")
    parser.add_argument("--trace", dest="trace_out", default=None,
                        help="write the merged NDJSON trace here")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write the JSON run report here")
    parser.add_argument("--out", default=None,
                        help="also write the rendered report here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the stdout rendering")


def _compare_sim(live, cfg, spec) -> list[str]:
    """Cross-validate the live run against the simulator; returns errors."""
    from .runner import run_instrumented
    sim_result, _sim_stats = run_instrumented(cfg.run_config(), spec.build())
    errors = []
    if spec.kind == "uts" and not live.killed \
            and live.result.total_units != sim_result.total_units:
        # with kills, part of the tree sits in the victim's spool — the
        # conservation identity (--expect-conserved) is the check there
        errors.append(f"UTS node counts diverge: live "
                      f"{live.result.total_units} != simulated "
                      f"{sim_result.total_units}")
    if spec.kind == "bnb" and live.result.optimum != sim_result.optimum:
        errors.append(f"B&B optima diverge: live {live.result.optimum} != "
                      f"simulated {sim_result.optimum}")
    return errors


def live_main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments live",
        description="Run one live multi-process execution over sockets.")
    add_live_arguments(parser)
    args = parser.parse_args(argv)

    from ..runtime.supervisor import (LiveAborted, LiveConfig,
                                      LiveRuntimeError, run_live)
    spec = spec_from_args(args)
    want_trace = bool(args.trace_out)
    cfg = LiveConfig(
        protocol=args.protocol, n=args.n, app=spec.to_wire(), dmax=args.dmax,
        sharing=args.sharing, quantum=args.quantum, seed=args.seed,
        transport=args.transport, port=args.port, run_dir=args.run_dir,
        trace=want_trace, timeout_s=args.timeout,
        fault_tolerance=(args.fault_tolerance or bool(args.kill)
                         or bool(args.partition) or bool(args.join)
                         or bool(args.leave)),
        peer_port_base=args.peer_port_base,
        joins=tuple(sorted(args.join, key=lambda j: j["pid"])),
        leaves=tuple(args.leave),
        kills=tuple(args.kill), partitions=tuple(args.partition))
    try:
        live = run_live(cfg)
    except LiveAborted as exc:
        print(f"aborted ({exc}); workers drained", file=sys.stderr)
        return 130
    except LiveRuntimeError as exc:
        print(f"live run failed: {exc}", file=sys.stderr)
        return 1

    tracer = None
    if live.trace_path is not None:
        from ..obs.export import load_trace
        tracer = load_trace(live.trace_path).tracer
    unit_cost = 0.0   # live busy time is measured, not priced
    report = build_report(cfg.run_config(), live.result, live.stats,
                          tracer=tracer, metrics=live.metrics, app=spec.label,
                          unit_cost=unit_cost,
                          extra_meta={"live": True, "run_dir": live.run_dir,
                                      "killed": list(live.killed),
                                      "joined": list(live.joined),
                                      "left": list(live.left),
                                      "conserved_units": live.conserved,
                                      "wall_s": live.wall_s},
                          links=live.links)

    text = report.render()
    if not args.quiet:
        print(text)
        hs, reap = (live.metrics.gauge(f"live.{k}_s").value
                    for k in ("handshake", "reap"))
        print(f"start-up: handshake {hs:.3f} s (spawn -> last hello), "
              f"reap {reap:.3f} s, of {live.wall_s:.3f} s wall")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    if args.trace_out and live.trace_path and args.trace_out != live.trace_path:
        import shutil
        shutil.copyfile(live.trace_path, args.trace_out)

    failures = []
    if args.expect_conserved:
        # a run that ended before a planned edge landed conserves
        # vacuously: it proves nothing about the fault it was meant to take
        for what, plan, landed in (("kill", args.kill, live.killed),
                                   ("join", args.join, live.joined),
                                   ("leave", args.leave, live.left)):
            for edge in plan:
                if edge["pid"] not in landed:
                    failures.append(f"planned {what} of pid {edge['pid']} "
                                    f"never happened (the run ended first)")
        if live.conserved is None:
            failures.append("--expect-conserved needs --fault-tolerance")
        elif spec.kind != "uts":
            # B&B explores a bound-dependent node set; only UTS has a
            # fixed sequential total to conserve against
            failures.append("--expect-conserved is defined for UTS runs")
        else:
            from ..runtime.spool import drain
            app = spec.build()
            sequential = drain(app.initial_work(), app, app.make_shared())
            if live.conserved != sequential:
                failures.append(f"conservation violated: accounted "
                                f"{live.conserved} != sequential "
                                f"{sequential}")
            elif not args.quiet:
                print(f"conservation exact: {live.conserved} units "
                      f"accounted across survivors, spools and transfers")
    if args.compare_sim:
        errs = _compare_sim(live, cfg, spec)
        failures.extend(errs)
        if not errs and not args.quiet:
            print("live run matches the simulator")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


__all__ = ["LIVE_PROTOCOLS", "add_live_arguments", "live_main", "parse_kill",
           "parse_member", "parse_partition"]
