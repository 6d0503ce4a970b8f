"""The ``report`` subcommand: one instrumented run -> a full run report.

Usage::

    python -m repro.experiments report --app uts --preset bin_mini \
        --protocol BTD --n 16 --json report.json --trace run.ndjson.gz

Runs one simulation with a tracer and a metrics registry attached and
prints the :class:`repro.obs.report.RunReport` rendering (per-node load
table, steal matrix, utilization/idle breakdown, fault counters, metric
histograms). ``--json`` writes the schema-versioned JSON summary;
``--trace`` exports the structured NDJSON event trace (gzip when the path
ends in ``.gz``).

The run is also content-addressed exactly like a grid cell
(:func:`repro.experiments.cache.cell_key`): when the cell is already in
the on-disk result cache the fresh instrumented result is cross-checked
against the cached one, so a report doubles as a cache-consistency probe.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ..obs.export import export_trace
from ..obs.registry import MetricsRegistry
from ..obs.report import build_report
from ..sim.errors import SimConfigError
from ..sim.trace import Tracer
from .cache import ResultCache, cache_disabled_by_env, cell_key
from .runner import PROTOCOLS, RunConfig, run_instrumented
from .specs import AppSpec, BnBSpec, UTSSpec


def spec_from_args(args) -> AppSpec:
    """The app spec named by the ``--app``, ``--preset`` and ``--bnb-*``
    options that the ``report`` and ``live`` subcommands share."""
    if args.app == "uts":
        spec = UTSSpec(args.preset)
        try:
            spec.params     # an unknown preset fails here, not in a run
        except SimConfigError as exc:
            raise SystemExit(str(exc)) from None
        return spec
    return BnBSpec(args.bnb_index, n_jobs=args.bnb_jobs,
                   n_machines=args.bnb_machines, bound=args.bound)


def add_job_arguments(parser: argparse.ArgumentParser, *, preset: str,
                      bnb_machines: int, protocols: tuple, n: int,
                      quantum: int) -> None:
    """The app options :func:`spec_from_args` reads and the run options,
    shared by the ``report`` and ``live`` subcommands."""
    parser.add_argument("--app", choices=("uts", "bnb"), default="uts")
    parser.add_argument("--preset", default=preset,
                        help=f"UTS preset (default: {preset})")
    parser.add_argument("--bnb-index", type=int, default=1,
                        help="Taillard instance index (Ta(20+i))")
    parser.add_argument("--bnb-jobs", type=int, default=8)
    parser.add_argument("--bnb-machines", type=int, default=bnb_machines)
    parser.add_argument("--bound", default="lb1")
    parser.add_argument("--protocol", default="BTD", choices=protocols)
    parser.add_argument("--n", type=int, default=n)
    parser.add_argument("--quantum", type=int, default=quantum)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--dmax", type=int, default=10)
    parser.add_argument("--sharing", default="proportional")


def add_report_arguments(parser: argparse.ArgumentParser) -> None:
    add_job_arguments(parser, preset="bin_mini", bnb_machines=8,
                      protocols=PROTOCOLS, n=16, quantum=64)
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write the JSON summary here")
    parser.add_argument("--trace", dest="trace_out", default=None,
                        help="export the NDJSON trace here (.gz ok)")
    parser.add_argument("--out", default=None,
                        help="also write the rendered report here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the stdout rendering")


def report_main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments report",
        description="Run one instrumented simulation and emit a run report.")
    add_report_arguments(parser)
    args = parser.parse_args(argv)

    spec = spec_from_args(args)
    cfg = RunConfig(protocol=args.protocol, n=args.n, quantum=args.quantum,
                    seed=args.seed, dmax=args.dmax, sharing=args.sharing)

    key = cell_key(cfg, spec)
    cached = None
    if not cache_disabled_by_env():
        cached = ResultCache().get(key)

    tracer = Tracer()
    metrics = MetricsRegistry()
    app = spec.build()
    result, stats = run_instrumented(cfg, app, tracer=tracer,
                                     metrics=metrics)

    extra_meta = {"cell_key": key, "cached_cell": cached is not None}
    if cached is not None and cached != result:
        # the code fingerprint should make this impossible; if it fires,
        # the cache key is missing an input — a bug worth shouting about
        print("WARNING: cached grid cell differs from the fresh run "
              "(cache key under-specified?)", file=sys.stderr)
        extra_meta["cached_cell_mismatch"] = True

    report = build_report(cfg, result, stats, tracer=tracer,
                          metrics=metrics, app=spec.label,
                          unit_cost=app.unit_cost, extra_meta=extra_meta)

    text = report.render()
    if not args.quiet:
        print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    if args.trace_out:
        export_trace(tracer, args.trace_out,
                     meta={"app": spec.label, "protocol": cfg.protocol,
                           "n": cfg.n, "seed": cfg.seed,
                           "cell_key": key})
    return 0


__all__ = ["add_report_arguments", "report_main", "spec_from_args"]
