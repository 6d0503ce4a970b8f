"""Load generator: sustained job streams against one serve daemon.

``python -m repro.serve.loadgen --connect tcp:127.0.0.1:PORT --jobs 100
--submitters 4`` drives a mixed workload (``--mix``: app spec strings in
the grammar of ``python -m repro.experiments.compare --app``) from
concurrent submitter threads, each on its own connection, retrying
``busy`` rejections with backoff.  It reports throughput (completed jobs
per wall second), the p50 / p99 latency from submit to terminal (queue
wait included: what a caller sees), and fails unless every accepted job
ended ``done`` or dead-lettered, cross-checked against the daemon's
counters.  ``--poison-every K`` makes every K-th submission a spec that
cannot build (it must be dead-lettered); ``--restart-at K`` fires a
rolling restart mid-stream.  ``benchmarks/record.py serve`` wraps
:func:`run_loadgen`.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from typing import Optional

from ..experiments.specs import GRAMMAR, AppSpec
from .client import ServeClient, ServeClientError

#: A spec that passes shallow admission checks and fails at build time —
#: the canonical poisoned submission.
POISON_SPEC = {"kind": "uts", "preset": "__poisoned__"}

#: Default workload mix (cheap enough for CI, heavy enough to overlap).
DEFAULT_MIX = "synthetic:20000,uts:bin_mini,synthetic:8000"


def parse_mix(text: str) -> list[dict]:
    """``synthetic:20000,uts:bin_mini,bnb:0:6:5`` -> wire documents, one
    per comma-separated :meth:`~repro.experiments.specs.AppSpec.parse`
    string."""
    return [AppSpec.parse(part.strip()).to_wire()
            for part in text.split(",")]


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 on empty)."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1,
              max(0, int(round(q * (len(sorted_vals) - 1)))))
    return sorted_vals[idx]


def run_loadgen(address, jobs: int = 100, submitters: int = 4,
                mix: str = DEFAULT_MIX, poison_every: int = 0,
                restart_at: Optional[int] = None,
                job_timeout_s: float = 60.0,
                wait_timeout_s: float = 240.0) -> dict:
    """Drive ``jobs`` submissions from ``submitters`` threads; see module
    docstring for what is measured.  Returns the result document."""
    specs = parse_mix(mix)
    lock = threading.Lock()
    tickets = iter(range(jobs))           # drawn under the lock
    latencies: list[float] = []           # accept -> done
    dead_latencies: list[float] = []      # accept -> dead-letter
    errors: list[str] = []
    restart: list[dict] = []
    tally = {"accepted": 0, "busy_retries": 0}

    def fire_restart() -> None:
        try:
            with ServeClient(address) as rc:
                restart.append(rc.restart())
        except ServeClientError as exc:
            restart.append({"ok": False, "error": str(exc)})

    restarter = threading.Thread(target=fire_restart, daemon=True)

    def submitter() -> None:
        with ServeClient(address) as client:
            while True:
                with lock:
                    k = next(tickets, None)
                if k is None:
                    return
                if k == restart_at:
                    restarter.start()
                poisoned = poison_every and (k + 1) % poison_every == 0
                app = POISON_SPEC if poisoned else specs[k % len(specs)]
                t_req = time.monotonic()
                resp, rejections = client.submit_retry(
                    app, timeout_s=job_timeout_s,
                    retry_for_s=wait_timeout_s)
                st = (client.wait(resp["job_id"], timeout=wait_timeout_s)
                      if resp.get("ok") else {})
                dt = time.monotonic() - t_req
                with lock:
                    tally["busy_retries"] += rejections
                    if not resp.get("ok"):
                        errors.append(f"job {k}: submit failed: "
                                      f"{resp.get('error')}")
                        continue
                    tally["accepted"] += 1
                    if st.get("state") == "done":
                        latencies.append(dt)
                    elif st.get("state") == "dead":
                        dead_latencies.append(dt)
                        if not poisoned:
                            errors.append(
                                f"job {k} ({app}) dead-lettered: "
                                f"{st.get('error')}")
                    else:
                        errors.append(f"job {k}: non-terminal {st}")

    t0 = time.monotonic()
    threads = [threading.Thread(target=submitter, daemon=True,
                                name=f"submit{i}")
               for i in range(submitters)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if restarter.ident is not None:
        restarter.join(timeout=120.0)
    wall_s = time.monotonic() - t0

    with ServeClient(address) as client:
        stats = client.stats()
        dl = client.dead_letters(limit=jobs)

    done = len(latencies)
    dead = len(dead_latencies)
    lat = sorted(latencies)
    accepted = tally["accepted"]
    accounted = (accepted == done + dead
                 and stats.get("accepted", -1) >= accepted
                 and stats.get("completed", 0) + stats.get(
                     "dead_lettered", 0) >= done + dead)
    return {
        "jobs": jobs,
        "submitters": submitters,
        "mix": mix,
        "accepted": accepted,
        "completed": done,
        "dead_lettered": dead,
        "busy_retries": tally["busy_retries"],
        "wall_s": round(wall_s, 3),
        "jobs_per_s": round(done / wall_s, 3) if wall_s > 0 else 0.0,
        "p50_s": round(percentile(lat, 0.50), 4),
        "p99_s": round(percentile(lat, 0.99), 4),
        "mean_s": round(sum(lat) / done, 4) if done else 0.0,
        "poison_every": poison_every,
        "restart_at": restart_at,
        "restart": restart[0] if restart else None,
        "all_accounted": accounted,
        "errors": errors,
        "daemon": {k: stats.get(k) for k in
                   ("accepted", "completed", "dead_lettered",
                    "rejected_busy", "queue_depth", "running")},
        "dead_letter_count": dl.get("count", 0),
    }


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="sustained-load benchmark client for repro.serve")
    ap.add_argument("--connect", required=True,
                    help="daemon address (tcp:HOST:PORT or unix:/path)")
    ap.add_argument("--jobs", type=int, default=100)
    ap.add_argument("--submitters", type=int, default=4)
    ap.add_argument("--mix", default=DEFAULT_MIX,
                    help=f"comma-separated app specs ({GRAMMAR})")
    ap.add_argument("--poison-every", type=int, default=0,
                    help="every K-th submission is a poisoned spec")
    ap.add_argument("--restart-at", type=int, default=None,
                    help="fire a rolling restart at submission K")
    ap.add_argument("--job-timeout", type=float, default=60.0)
    ap.add_argument("--wait-timeout", type=float, default=240.0)
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also write the result document here")
    args = ap.parse_args(argv)
    doc = run_loadgen(args.connect, jobs=args.jobs,
                      submitters=args.submitters, mix=args.mix,
                      poison_every=args.poison_every,
                      restart_at=args.restart_at,
                      job_timeout_s=args.job_timeout,
                      wait_timeout_s=args.wait_timeout)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"loadgen: {doc['completed']}/{doc['jobs']} done "
          f"(+{doc['dead_lettered']} dead-lettered) in {doc['wall_s']}s "
          f"= {doc['jobs_per_s']} jobs/s; "
          f"p50 {doc['p50_s']}s p99 {doc['p99_s']}s; "
          f"busy retries {doc['busy_retries']}; "
          f"accounted={doc['all_accounted']}")
    for err in doc["errors"]:
        print(f"loadgen error: {err}")
    return 0 if (doc["all_accounted"] and not doc["errors"]) else 1


if __name__ == "__main__":
    import sys
    sys.exit(main())
