"""Ad-hoc protocol comparisons: the research tool behind the fixed figures.

``python -m repro.experiments.compare`` runs any set of protocols over any
workload/worker-count grid and prints time, efficiency and traffic side by
side::

    python -m repro.experiments.compare --protocols BTD RWS MW \\
        --app bnb:3 --n 32 128 --trials 2
    python -m repro.experiments.compare --protocols TD BTD LIFELINE \\
        --app uts:bin_small --n 64 --quantum 256 --jobs 4

Workload specs: ``uts:<preset>`` (see ``repro.uts.PRESETS``),
``bnb:<k>[:jobs[:machines]]`` for the scaled Taillard instance Ta(20+k),
NEH warm-started, or ``synthetic:<units>``.  The whole grid fans out over ``--jobs`` worker
processes (default ``$REPRO_JOBS``), with finished cells memoised on disk
unless ``--no-cache`` is given.
"""

from __future__ import annotations

import argparse
from typing import Callable, Optional

from ..apps.base import Application
from .parallel import ExperimentGrid
from .report import render_table
from .runner import PROTOCOLS
from .seqref import sequential_time
from .specs import GRAMMAR, AppSpec


def parse_app(text: str) -> AppSpec:
    """Turn a spec string (:data:`~repro.experiments.specs.GRAMMAR`) into
    an app spec, built once here: a bad preset fails before the grid
    starts, and a B&B spec carries its instance to the pool workers."""
    spec = AppSpec.parse(text)
    spec.build()
    return spec


def compare(protocols: list[str], app_factory: Callable[[], Application],
            ns: list[int], quantum: int, trials: int, seed: int,
            dmax: int = 10, jobs: Optional[int] = None,
            use_cache: Optional[bool] = None,
            app: Optional[Application] = None) -> list[list]:
    """Run the grid; returns table rows (also the CLI's output).

    ``app`` optionally passes an already-built application (reused for the
    sequential reference instead of building a throwaway one).
    """
    if app is None:
        app = app_factory()
    t_seq = sequential_time(app)
    grid = ExperimentGrid(seed=seed, default_trials=trials, jobs=jobs,
                          use_cache=use_cache)
    for n in ns:
        for proto in protocols:
            grid.add((n, proto), app_factory, protocol=proto, n=n, dmax=dmax,
                     quantum=quantum)
    grid.run()
    rows = []
    for n in ns:
        for proto in protocols:
            ts = grid.stats((n, proto))
            r0 = ts.results[0]
            optimum = r0.optimum
            rows.append([
                n, proto, ts.t_avg * 1e3, ts.t_std * 1e3,
                100 * t_seq / (n * ts.t_avg),
                sum(r.total_msgs for r in ts.results) // len(ts.results),
                sum(r.total_steals for r in ts.results) // len(ts.results),
                optimum,
            ])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.compare",
        description="Head-to-head protocol comparison on one workload.")
    parser.add_argument("--protocols", nargs="+", default=["BTD", "RWS"],
                        choices=list(PROTOCOLS))
    parser.add_argument("--app", default="uts:bin_tiny",
                        help=GRAMMAR)
    parser.add_argument("--n", nargs="+", type=int, default=[64])
    parser.add_argument("--quantum", type=int, default=64)
    parser.add_argument("--dmax", type=int, default=10)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the grid (default: "
                             "$REPRO_JOBS or 1; 0 = all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    args = parser.parse_args(argv)

    spec = parse_app(args.app)
    app = spec()   # names the table AND prices the seq reference
    rows = compare(args.protocols, spec, args.n, args.quantum,
                   args.trials, args.seed, dmax=args.dmax, jobs=args.jobs,
                   use_cache=False if args.no_cache else None, app=app)
    print(render_table(
        ["n", "protocol", "t_avg (ms)", "sigma (ms)", "PE %", "messages",
         "work requests", "optimum"],
        rows, title=f"{app.describe()} — {args.trials} trial(s)",
        digits=2))
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
