"""The benchmark's four workloads: specs from a seed, one timed unit, output checks.

Every workload is a closed loop: one client runs its unit back to back, and
each unit goes through the public API only (``ScenarioSpec.from_dict`` or
``repro.api.load_scenario``, then ``repro.api.run``).  ``runtime.allocator``
and ``runtime.backend`` stay at the spec defaults unless a workload says
otherwise, so a change of default shows up here.

Nothing in this module imports :mod:`repro` at import time: the set-up probe
imports it first and starts its clock before the package is imported.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

#: Why each workload exists; the ``why`` lines in ``BENCHMARK.json`` quote these.
#: ``BENCHMARK.json`` gates the first and third; the other two are run by hand
#: (see README.md, "Spread and bounds").
WHY = {
    "catalog_fluid": "one pass over the 11 catalog scenarios (10 batch, 1 service) "
    "on the fluid backend: fixed per-run costs dominate at small n",
    "fabric_storm": "256-qubit permutation on a k=16 fat tree under ECMP: 128 "
    "channels open at one instant, so the allocator works at depth, plus routing",
    "paper_detailed": "the paper's 8x8 Figure 16 machine on the detailed backend: "
    "the event engine with no allocator, so fluid changes must not move it",
    "service_steady": "two-tenant open-loop service on an 8x8 mesh over 2e7 us: "
    "thousands of small reallocations plus the service and trace layers",
}
NAMES = tuple(WHY)
#: Workloads with no random input: every seed gives the same specs, so there
#: is no held-out seed to try.
SEEDLESS = ("paper_detailed",)

#: Catalog scenarios that take a ``workload.params.seed``; besides these only
#: the service scenario's ``traffic.seed`` is random input.
_SEEDED_CATALOG = ("dragonfly_adaptive", "torus_permutation")


def derive_seed(workload: str, seed: int, stream: str = "main") -> int:
    """The workload's input seed for the benchmark ``seed`` (stable across Pythons)."""
    return random.Random(f"{workload}/{stream}/{seed}").randrange(2**31)


def held_out_seed(workload: str, seed: int) -> int:
    """A second input seed, never timed, that must also run clean."""
    return derive_seed(workload, seed, "held-out")


# -- spec dictionaries -------------------------------------------------------------


def _catalog(seed: int, tiny: bool) -> List[Dict[str, Any]]:
    from repro import api
    from repro.scenarios import list_scenarios

    names = ["service_smoke", "smoke", "torus_permutation"] if tiny else list_scenarios()
    specs = []
    for name in names:
        data = api.load_scenario(name).to_dict()
        if name in _SEEDED_CATALOG:
            data["workload"]["params"]["seed"] = seed
        if "traffic" in data:
            data["traffic"]["seed"] = seed
        specs.append(data)
    return specs


def _fabric_storm(seed: int, tiny: bool) -> List[Dict[str, Any]]:
    arity, qubits = (4, 8) if tiny else (16, 256)
    return [
        {
            "name": "fabric_storm",
            "topology": {"kind": "fat_tree", "width": arity},
            "workload": {"kind": "permutation", "num_qubits": qubits, "params": {"seed": seed}},
            "physics": {"teleporters": 2, "generators": 2, "purifiers": 1},
            "runtime": {"layout": "home_base"},
            "network": {"routing": {"policy": "ecmp"}},
        }
    ]


def _paper_detailed(seed: int, tiny: bool) -> List[Dict[str, Any]]:
    # QFT-16 on the 8x8 mesh has no random input: the seed changes nothing.
    from repro import api

    data = api.load_scenario("smoke" if tiny else "paper_baseline").to_dict()
    data["name"] = "paper_detailed"
    data["runtime"]["backend"] = "detailed"
    return [data]


def _service_steady(seed: int, tiny: bool) -> List[Dict[str, Any]]:
    from repro import api

    data = api.load_scenario("service_smoke").to_dict()
    data["name"] = "service_steady"
    data["topology"]["width"] = 3 if tiny else 8
    traffic = data["traffic"]
    traffic.update({"duration_us": 2e5 if tiny else 2e7, "max_inflight": 8, "seed": seed})
    traffic["tenants"]["bulk"]["mean_interarrival_us"] = 20000.0
    traffic["tenants"]["latency"]["mean_interarrival_us"] = 30000.0
    return [data]


_BUILDERS: Dict[str, Callable[[int, bool], List[Dict[str, Any]]]] = {
    "catalog_fluid": _catalog,
    "fabric_storm": _fabric_storm,
    "paper_detailed": _paper_detailed,
    "service_steady": _service_steady,
}


def resolve_specs(workload: str, input_seed: int, *, tiny: bool = False) -> list:
    """Validated :class:`~repro.scenarios.ScenarioSpec` objects for one unit."""
    from repro.scenarios import ScenarioSpec

    return [ScenarioSpec.from_dict(data) for data in _BUILDERS[workload](input_seed, tiny)]


# -- one unit and its output checks -------------------------------------------------


class Capture:
    """Keeps the simulator result behind each ``repro.api.run`` call.

    ``RunResult`` is the public view; the simulator's own records (operation
    and channel records) sit one layer down.  Wrapping the two simulators'
    ``run`` class attributes hands both to the output checks at the cost of
    one extra call per scenario, on traced and untraced runs alike.
    """

    def __init__(self) -> None:
        from repro.service.engine import ServiceSimulator
        from repro.sim.simulator import CommunicationSimulator

        self.results: List[Any] = []
        self._undo: List[Tuple[type, Callable[..., Any]]] = []
        for cls in (CommunicationSimulator, ServiceSimulator):
            original = cls.__dict__["run"]

            def run(sim: Any, *args: Any, _original: Any = original, **kwargs: Any) -> Any:
                result = _original(sim, *args, **kwargs)
                self.results.append(result)
                return result

            cls.run = run  # type: ignore[method-assign]
            self._undo.append((cls, original))

    def close(self) -> None:
        for cls, original in reversed(self._undo):
            cls.run = original  # type: ignore[method-assign]
        self._undo.clear()


@dataclass
class UnitOutcome:
    """One workload unit, reduced to what the benchmark keeps.

    The results themselves are dropped once reduced, so memory does not grow
    with the number of units a run fits in and ``peak_rss_mb`` measures the
    program, not the harness.
    """

    seconds: float
    channels: int
    sim: Dict[str, Any]
    utilisation: Dict[str, float]
    problems: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return self.sim["sim_digest"]


def check_outputs(spec: Any, result: Any, sim_result: Any, expected_ops: int) -> List[str]:
    """Output checks of one scenario run; each returned string is one failure."""
    problems = []
    where = spec.name
    if result.batch is not None:
        view = result.batch
        if view.operations != expected_ops or len(sim_result.operations) != expected_ops:
            problems.append(
                f"{where}: {view.operations} of {expected_ops} stream operations retired"
            )
        per_op = sum(op.channel_count for op in sim_result.operations)
        if not view.channel_count == len(sim_result.channels) == per_op:
            problems.append(
                f"{where}: channel counts disagree: view {view.channel_count}, "
                f"channel records {len(sim_result.channels)}, operation records {per_op}"
            )
        utilisation = view.utilisation
    else:
        view = result.service
        if view.offered != view.admitted + view.dropped:
            problems.append(
                f"{where}: offered {view.offered} != admitted {view.admitted} "
                f"+ dropped {view.dropped}"
            )
        if view.completed != view.admitted:
            problems.append(f"{where}: completed {view.completed} != admitted {view.admitted}")
        served = sum(int(t["completed_channels"]) for t in view.tenants.values())
        if served != len(sim_result.channels):
            problems.append(
                f"{where}: channel counts disagree: view {served}, "
                f"channel records {len(sim_result.channels)}"
            )
        utilisation = view.utilisation
    for kind, value in utilisation.items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"{where}: utilisation {kind}={value!r} outside [0, 1]")
    return problems


def expected_operations(specs: list) -> List[int]:
    """Operation count of each batch spec's stream (0 for service specs)."""
    from repro.scenarios import build_stream

    return [0 if spec.traffic is not None else len(build_stream(spec)) for spec in specs]


def run_unit(
    specs: list,
    expected_ops: List[int],
    capture: Capture,
    clock: Callable[[], float],
) -> UnitOutcome:
    """Run every spec of one unit through ``repro.api.run``; time, check and reduce it."""
    from repro import api

    capture.results.clear()
    start = clock()
    results = [api.run(spec) for spec in specs]
    seconds = clock() - start
    sim_results = list(capture.results)
    capture.results.clear()
    outcome = UnitOutcome(
        seconds=seconds,
        channels=sum(r.channel_count for r in sim_results),
        sim=sim_outputs(results),
        utilisation=unit_utilisation(results),
    )
    if len(sim_results) != len(results):
        outcome.problems.append(
            f"{len(sim_results)} simulator results captured for {len(results)} runs"
        )
        return outcome
    for spec, result, sim_result, ops in zip(specs, results, sim_results, expected_ops):
        outcome.problems.extend(check_outputs(spec, result, sim_result, ops))
    return outcome


def sim_outputs(results: list) -> Dict[str, Any]:
    """The simulated statistics of one unit: recorded as outputs, never gated.

    ``sim_digest`` is a SHA-256 over every ``RunResult`` of the unit with its
    host time removed, so two runs of one seed can be compared bit for bit.
    """
    rows = []
    payloads = []
    for result in results:
        payload = result.to_dict()
        payload.pop("wall_time_s")
        payloads.append(payload)
        row: Dict[str, Any] = {"name": result.name, "makespan_us": result.makespan_us}
        if result.batch is not None:
            row["channels"] = result.batch.channel_count
            row["operations"] = result.batch.operations
            row["utilisation"] = dict(result.batch.utilisation)
        else:
            view = result.service
            row["channels"] = sum(
                int(t["completed_channels"]) for t in view.tenants.values()
            )
            row["requests"] = view.offered
            row["latency_p50_us"] = view.latency_p50_us
            row["latency_p99_us"] = view.latency_p99_us
            row["utilisation"] = dict(view.utilisation)
        rows.append(row)
    text = json.dumps(payloads, sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"scenarios": rows, "sim_digest": digest}


def unit_utilisation(results: list) -> Dict[str, float]:
    """Mean modelled occupancy per component class over the unit's scenarios.

    The two teleporter sets (X and Y router halves) report separately; the
    busier one stands for the teleporter.
    """
    sums = {"teleporter": 0.0, "generator": 0.0, "purifier": 0.0}
    for result in results:
        view = result.batch if result.batch is not None else result.service
        util = view.utilisation
        sums["teleporter"] += max(
            util.get("teleporter_x", 0.0), util.get("teleporter_y", 0.0)
        )
        sums["generator"] += util.get("generator", 0.0)
        sums["purifier"] += util.get("purifier", 0.0)
    return {kind: total / len(results) for kind, total in sums.items()}
