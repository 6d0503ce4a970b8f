"""Fig. 5 — scalability of BTD vs RWS: time and parallel efficiency.

Top: B&B on Ta21 and Ta23 for n = 200..1000. Bottom: UTS for n = 128..512.
Paper findings: RWS stays competitive at low scale but its parallel
efficiency collapses as n grows (blind random stealing), while BTD's
efficiency degrades only marginally; at the top scales BTD's advantage is
substantial for both applications.
"""

from __future__ import annotations

from .base import ExperimentReport, make_grid, timed
from .config import Scale, bnb_spec, uts_spec
from .report import Series, ascii_chart, render_series
from .seqref import sequential_time


def run(scale: Scale) -> ExperimentReport:
    def build() -> ExperimentReport:
        report = ExperimentReport(
            exp_id="fig5",
            title="scalability of BTD vs RWS (time + parallel efficiency)",
            expectation=("RWS efficiency collapses at scale, BTD degrades "
                         "marginally; holds for both B&B and UTS"),
        )
        specs = {"B&B Ta21": bnb_spec(scale, 1, big=True),
                 "B&B Ta23": bnb_spec(scale, 3, big=True),
                 "UTS": uts_spec(scale, "main")}
        sweep_ns = {"B&B Ta21": scale.fig45_n, "B&B Ta23": scale.fig45_n,
                    "UTS": scale.fig5_uts_n}
        quanta = {"B&B Ta21": scale.bnb_quantum,
                  "B&B Ta23": scale.bnb_quantum,
                  "UTS": scale.uts_quantum}
        grid = make_grid(scale)
        for label, spec in specs.items():
            for proto in ("BTD", "RWS"):
                for n in sweep_ns[label]:
                    grid.add((label, proto, n), spec,
                             trials=scale.scaling_trials,
                             label=f"fig5 {label} {proto} n={n}",
                             protocol=proto, n=n, dmax=10,
                             quantum=quanta[label])
        grid.run()
        data = {}
        t_seqs = {}
        for label, spec in specs.items():
            t_seq = sequential_time(spec())
            t_seqs[label] = t_seq
            t_series, pe_series = [], []
            for proto in ("BTD", "RWS"):
                ts_ser = Series(name=f"{proto} time")
                pe_ser = Series(name=f"{proto} PE%")
                for n in sweep_ns[label]:
                    ts = grid.stats((label, proto, n))
                    ts_ser.add(n, ts.t_avg * 1e3)
                    pe_ser.add(n, 100.0 * t_seq / (n * ts.t_avg))
                    data[(label, proto, n)] = ts
                t_series.append(ts_ser)
                pe_series.append(pe_ser)
            report.sections.append(render_series(
                t_series + pe_series, "n", "time (ms) | efficiency (%)",
                title=f"-- Fig 5 {label} (T_seq = {t_seq * 1e3:.0f} ms) --",
                digits=1))
            report.sections.append(ascii_chart(
                pe_series, x_label="n", y_label=f"{label} efficiency (%)"))
            report.sections.append("")
        report.data = {"runs": data,
                       "t_seq": {"Ta21": t_seqs["B&B Ta21"],
                                 "Ta23": t_seqs["B&B Ta23"],
                                 "UTS": t_seqs["UTS"]}}
        # shape checks at the extreme scales
        checks = []
        for label in specs:
            hi = sweep_ns[label][-1]
            btd = data[(label, "BTD", hi)].t_avg
            rws = data[(label, "RWS", hi)].t_avg
            checks.append(f"{label} at n={hi}: BTD faster than RWS: "
                          f"{'YES' if btd < rws else 'no'} "
                          f"(RWS/BTD = {rws / btd:.2f}x)")
        report.sections.append("shape checks:\n  " + "\n  ".join(checks))
        return report

    return timed(build)


__all__ = ["run"]
