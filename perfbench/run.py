"""The repository benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload catalog_fluid --seed 1 --seconds 20 --trace 0

Workloads: catalog_fluid, fabric_storm, paper_detailed, service_steady (see
``workloads.py`` and ``README.md``).  ``BENCHMARK.json`` gates catalog_fluid
and paper_detailed; the other two run by hand with the same command.
Everything runs in this one process,
with no worker pool, through ``repro.api``; only the set-up time is measured
in fresh child processes, one after another.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
spends half the time on untraced units and half on units run under the
per-layer ledger (``ledger.py``), and reports the per-layer metrics.  Every
unit's outputs are checked; the held-out input seed runs once, untimed,
first.  A human-readable report goes to standard output, its last line is
one JSON object with the metrics, and the full record (samples, simulated
outputs, ledger, spans) is written under ``perfbench/out/``.

All times are host seconds from ``time.perf_counter``.  Simulated time and
the other simulated statistics are outputs only; the model is unvalidated,
since the repository holds no hardware reference.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROCESSES = 3
#: Fewest timed units per untraced pass, and per traced pass.
MIN_UNITS = 3
MIN_TRACED_UNITS = 2
#: Samples beyond the tail percentile, once a run has enough of them.
TAIL_BEYOND = 10

clock = time.perf_counter


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src``, or refuse to run."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        fail(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        fail(f"imported repro from {repro.__file__}, not from {package}")


# -- statistics ----------------------------------------------------------------------------


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """(percentile, value, samples beyond it) of the tail, by nearest rank.

    From 100 samples up this is the highest percentile with TAIL_BEYOND
    samples beyond it.  With fewer samples that percentile drops under p90
    (under the median below 20 samples) and moves with the number of units a
    run fits in, so p90 stands in: the maximum for 9 samples or fewer.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, -(-9 * n // 10))  # 1-based; ceil(0.9 n)
    return 100.0 * rank / n, ordered[rank - 1], n - rank


# -- running units -------------------------------------------------------------------------


class Session:
    """One workload at one seed: its specs, its units and the failures seen."""

    def __init__(self, workload: str, seed: int, tiny: bool) -> None:
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.input_seed = workloads.derive_seed(workload, seed)
        self.held_out_seed = workloads.held_out_seed(workload, seed)
        self.specs = workloads.resolve_specs(workload, self.input_seed, tiny=tiny)
        self.expected_ops = workloads.expected_operations(self.specs)
        self.capture = workloads.Capture()
        self.attempted = 0
        self.problems: List[str] = []
        self.failed = 0

    def unit(self, specs: Optional[list] = None, expected: Optional[List[int]] = None) -> Any:
        """Run one unit (the timed specs unless others are given); None if it raised."""
        self.attempted += 1
        try:
            outcome = self.workloads.run_unit(
                specs or self.specs, expected or self.expected_ops, self.capture, clock
            )
        except Exception:  # noqa: BLE001 - a raising unit is a counted failure
            self.record_failure([f"raised:\n{traceback.format_exc()}"])
            return None
        if outcome.problems:
            self.record_failure(outcome.problems)
        return outcome

    def record_failure(self, problems: List[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)
        for problem in problems:
            print(f"FAILED {self.workload}: {problem}", file=sys.stderr)

    def held_out(self, tiny: bool) -> Any:
        """The untimed first unit: the held-out input seed must run clean too."""
        if self.workload in self.workloads.SEEDLESS:
            return None
        specs = self.workloads.resolve_specs(self.workload, self.held_out_seed, tiny=tiny)
        return self.unit(specs, self.workloads.expected_operations(specs))

    def timed(self, seconds: float, minimum: int, before_unit=None) -> List[Any]:
        """Units back to back until ``seconds`` would be exceeded (at least ``minimum``)."""
        outcomes: List[Any] = []
        started = clock()
        attempts = 0
        while True:
            gc.collect()
            if before_unit is not None:
                before_unit()
            outcome = self.unit()
            attempts += 1
            if outcome is not None:
                outcomes.append(outcome)
            elapsed = clock() - started
            typical = statistics.median(o.seconds for o in outcomes) if outcomes else 0.0
            if attempts >= minimum and elapsed + typical > seconds:
                return outcomes

    def check_repeats(self, outcomes: List[Any]) -> None:
        """Every unit of one seed must produce the same simulated outputs."""
        for outcome in outcomes[1:]:
            if outcome.digest != outcomes[0].digest:
                self.record_failure(
                    [f"sim_digest {outcome.digest} differs from {outcomes[0].digest}"]
                )

    def close(self) -> None:
        self.capture.close()


def measure_setup(workload: str, input_seed: int, tiny: bool) -> List[float]:
    """``setup_s`` in SETUP_PROCESSES fresh interpreters, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(input_seed)]
    if tiny:
        command.append("--tiny")
    values = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            command, cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        values.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return values


def accuracy_ratio(session: Session, outcome: Any) -> Optional[float]:
    """Detailed/fluid makespan ratio of the paper machine: the one accuracy figure."""
    if session.workload != "paper_detailed" or outcome is None:
        return None
    from repro import api

    fluid = api.run(session.specs[0].with_backend("fluid"))
    return outcome.sim["scenarios"][0]["makespan_us"] / fluid.makespan_us


# -- the two modes -----------------------------------------------------------------------


def end_to_end(session: Session, args: argparse.Namespace, record: Dict[str, Any]) -> Dict:
    setup = measure_setup(session.workload, session.input_seed, args.tiny)
    held_out = session.held_out(args.tiny)
    outcomes = session.timed(args.seconds, MIN_UNITS)
    session.check_repeats(outcomes)
    ok = [o for o in outcomes if not o.problems]
    if not ok:
        fail("no timed unit completed cleanly; see the failures above")
    times = [o.seconds for o in ok]
    p50 = statistics.median(times)
    tail_pct, tail_s, beyond = tail(times)
    attempted = session.attempted
    record.update(
        samples_s=times,
        setup_samples_s=setup,
        tail_percentile=tail_pct,
        tail_beyond=beyond,
        sim=ok[0].sim,
        detailed_over_fluid=accuracy_ratio(session, ok[0]),
        held_out_sim=held_out.sim if held_out else None,
    )
    return {
        "channels_per_s": (sum(o.channels for o in ok) / sum(times), "1/s"),
        "run_s_p50": (p50, "s"),
        "run_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_share": ((attempted - session.failed) / attempted, "ratio"),
    }


def per_layer(session: Session, args: argparse.Namespace, record: Dict[str, Any]) -> Dict:
    from ledger import Ledger
    from repro.scenarios.warmstart import global_cache

    session.held_out(args.tiny)
    untraced = session.timed(args.seconds / 2.0, MIN_TRACED_UNITS)
    ledger = Ledger(clock)
    ledger.install()
    before = global_cache().stats()
    counters: List[Dict[str, int]] = []

    def before_unit() -> None:
        if ledger.run_id:
            counters.append(ledger.unit_counters())
        ledger.begin_unit()

    try:
        traced = session.timed(args.seconds / 2.0, MIN_TRACED_UNITS, before_unit)
        counters.append(ledger.unit_counters())
    finally:
        ledger.close()
    after = global_cache().stats()
    times = [ledger.unit_times(run_id) for run_id in range(1, ledger.run_id + 1)]
    session.check_repeats(untraced + traced)
    for index, unit in enumerate(counters[1:], start=2):
        if unit != counters[0]:
            session.record_failure([f"ledger counters of traced unit {index} differ: {unit}"])
    if not untraced or not traced:
        fail("no unit completed in one of the two passes; see the failures above")
    OUT.mkdir(exist_ok=True)
    ledger.write_spans(str(OUT / f"{record['stem']}-spans.jsonl"))

    def med(key: str) -> float:
        return statistics.median(t.get(key, 0.0) for t in times)

    unit = counters[0]
    untraced_p50 = statistics.median(o.seconds for o in untraced)
    traced_p50 = statistics.median(o.seconds for o in traced)
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    engine_self = med("sim.engine.run.self_s")
    events = unit["sim.engine.events"]
    reallocations = unit["sim.flow.reallocations"]
    util = traced[0].utilisation
    metrics = {
        "scenarios.build_machine_s": (med("scenarios.build_machine_s"), "s"),
        "workloads.build_stream_s": (med("workloads.build_stream_s"), "s"),
        "scenarios.warmstart_hit_share": (
            (after["hits"] - before["hits"]) / lookups if lookups else 0.0,
            "ratio",
        ),
        "core.plan_calls": (unit["core.plan_calls"], "count"),
        "core.plan_s": (med("core.plan_s"), "s"),
        "core.candidates_s": (med("core.candidates_s"), "s"),
        "network.choose_calls": (unit["network.choose_calls"], "count"),
        "network.choose_s": (med("network.choose_s"), "s"),
        "sim.control.messages": (unit["sim.control.messages"], "count"),
        "sim.control.issue_messages_s": (med("sim.control.issue_messages_s"), "s"),
        "sim.flow.reallocations": (reallocations, "count"),
        "sim.flow.reallocate_s": (med("sim.flow.reallocate_s"), "s"),
        "sim.flow.reallocs_per_instant": (
            reallocations / unit["sim.flow.instants"] if reallocations else 0.0,
            "ratio",
        ),
        "sim.flow.peak_flows": (unit["sim.flow.peak_flows"], "count"),
        "sim.flow.start_s": (med("sim.flow.start_s"), "s"),
        "sim.engine.events": (events, "count"),
        "sim.engine.self_s": (engine_self, "s"),
        "sim.engine.us_per_event": (engine_self / events * 1e6 if events else 0.0, "us"),
        "sim.detailed.start_s": (med("sim.detailed.start_s"), "s"),
        "sim.detailed.center_submits": (unit["sim.detailed.center_submits"], "count"),
        "service.requests": (unit["service.requests"], "count"),
        "service.run_self_s": (med("service.run.self_s"), "s"),
        "trace.records": (unit["trace.records"], "count"),
        "trace.emit_s": (med("trace.emit_s"), "s"),
        "trace.run_s_p50": (traced_p50, "s"),
        "trace.overhead_share": (traced_p50 / untraced_p50 - 1.0, "ratio"),
        "model.util.teleporter": (util["teleporter"], "ratio"),
        "model.util.generator": (util["generator"], "ratio"),
        "model.util.purifier": (util["purifier"], "ratio"),
    }
    record.update(
        untraced_samples_s=[o.seconds for o in untraced],
        traced_samples_s=[o.seconds for o in traced],
        ledger_counters=unit,
        ledger_unit_times_s=times,
        sim=traced[0].sim,
    )
    return metrics


# -- reporting -----------------------------------------------------------------------------


def report(
    args: argparse.Namespace, session: Session, metrics: Dict, record: Dict[str, Any]
) -> None:
    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}")
    attempted, failed = session.attempted, session.failed
    if args.trace:
        traced_p50 = metrics["trace.run_s_p50"][0]
        for name, (value, unit) in metrics.items():
            share = f"  ({value / traced_p50:6.1%} of a traced unit)" if unit == "s" else ""
            print(f"  {name:32s} {value:14.6g} {unit}{share}")
    else:
        samples = len(record["samples_s"])
        notes = {
            "run_s_p50": f"median of {samples} units",
            "run_s_tail": f"p{record['tail_percentile']:.1f} of {samples} units, "
            f"{record['tail_beyond']} beyond it",
            "setup_s": f"median of {SETUP_PROCESSES} fresh processes",
        }
        for name, (value, unit) in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:16s} {value:14.6g} {unit}{note}")
        share = failed / attempted
        print(f"  {'failed_share':16s} {share:14.6g} ratio  ({failed}/{attempted} units)")
    sim = record["sim"]
    print("simulated outputs (not gated; the model is unvalidated: no hardware reference):")
    for row in sim["scenarios"]:
        fields = "  ".join(f"{k}={v!r}" for k, v in row.items() if k != "name")
        print(f"  {row['name']}: {fields}")
    if record.get("detailed_over_fluid") is not None:
        print(f"  detailed/fluid makespan on the paper machine: {record['detailed_over_fluid']!r}")
    print(f"  sim_digest {sim['sim_digest']}")
    if "ledger_counters" in record:
        print(f"  ledger counters {json.dumps(record['ledger_counters'], sort_keys=True)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    bootstrap()
    import workloads

    if args.workload not in workloads.NAMES:
        fail(f"unknown workload {args.workload!r}; expected one of {list(workloads.NAMES)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    session = Session(args.workload, args.seed, args.tiny)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": session.input_seed,
        "held_out_seed": session.held_out_seed,
        "trace": args.trace,
        "stem": f"{args.workload}-seed{args.seed}-trace{args.trace}",
    }
    try:
        mode = per_layer if args.trace else end_to_end
        metrics = mode(session, args, record)
    finally:
        session.close()
    report(args, session, metrics, record)
    record.update(
        attempted=session.attempted,
        failed=session.failed,
        problems=session.problems,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{record['stem']}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
