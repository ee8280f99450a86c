"""Fixture-snippet tests: each checker fires on bad code and stays quiet on good.

Every test lints a small source fixture *as if* it lived at a chosen dotted
module path (``LintContext.for_source`` takes the module literally), which is
how the package-scoped checkers are driven without touching the real tree.
"""

import textwrap

from repro.lint import LintContext, Project, all_checkers, all_rules


def lint_source(source, *, module, path="fixture.py", project=None):
    """All findings every applicable checker raises on ``source``."""
    context = LintContext.for_source(
        textwrap.dedent(source),
        path=path,
        module=module,
        project=project if project is not None else Project(),
    )
    findings = []
    for checker_cls in all_checkers():
        checker = checker_cls()
        if checker.applies_to(context):
            findings.extend(checker.check(context))
    return findings


def rule_ids(findings):
    return sorted(f.rule for f in findings)


def test_rule_catalogue_has_five_distinct_checkers():
    prefixes = {rule_id[:3] for rule_id in all_rules() if not rule_id.startswith("LNT")}
    assert {"DET", "TRC", "SPE", "FLT", "API"} <= prefixes
    assert len(all_rules()) >= 10


# -- DET: determinism ---------------------------------------------------------------


def test_det001_flags_ambient_randomness_and_from_imports():
    findings = lint_source(
        """
        import random
        from random import randint

        def jitter(base_us):
            return base_us + random.random() + randint(0, 3)
        """,
        module="repro.workloads.traffic",
    )
    assert rule_ids(findings) == ["DET001", "DET001"]


def test_det001_flags_wall_clocks_and_uuid():
    findings = lint_source(
        """
        import time
        import uuid

        def stamp():
            return time.time(), uuid.uuid4()
        """,
        module="repro.sim.engine",
    )
    assert rule_ids(findings) == ["DET001", "DET001"]


def test_det002_flags_set_iteration_in_loops_and_comprehensions():
    findings = lint_source(
        """
        def drain(items):
            pending = set(items)
            for item in pending:
                yield item
            return [x for x in {1, 2} | pending]
        """,
        module="repro.network.router",
    )
    assert rule_ids(findings) == ["DET002", "DET002"]


def test_det002_tracks_annotated_self_attributes_across_methods():
    findings = lint_source(
        """
        from typing import Set

        class Tracker:
            def __init__(self):
                self.dirty: Set[str] = set()

            def flush(self):
                for key in self.dirty:
                    print(key)
        """,
        module="repro.sim.flow_like",
    )
    assert rule_ids(findings) == ["DET002"]


def test_det003_flags_module_scope_counters_in_both_import_forms():
    findings = lint_source(
        """
        import itertools
        from dataclasses import field
        from itertools import count as ids

        _message_ids = itertools.count()
        _next_pair_id = ids(1).__next__
        if True:
            _nested = itertools.count(start=5)

        def make_field():
            return field(default_factory=lambda: next(_message_ids))
        """,
        module="repro.network.messages",
    )
    assert rule_ids(findings) == ["DET003", "DET003", "DET003"]


def test_det003_clean_on_per_run_counters():
    findings = lint_source(
        """
        import itertools
        from itertools import count

        class ControlUnit:
            _shared = None

            def __init__(self):
                self._ids = count()
                self._sequence = itertools.count()

        def fresh_ids():
            return itertools.count()

        make_ids = lambda: count()
        total = sum([1, 2]).bit_count()
        """,
        module="repro.sim.control",
    )
    assert findings == []


def test_det003_does_not_apply_outside_the_sim_packages():
    findings = lint_source(
        "import itertools\n_ids = itertools.count()\n",
        module="repro.runtime.queue",
    )
    assert findings == []


def test_det_clean_on_sorted_iteration_and_substream_rng():
    findings = lint_source(
        """
        def drain(pending):
            for item in sorted(pending):
                yield item

        def draw(rng):
            return rng.substream("traffic").random()
        """,
        module="repro.workloads.traffic",
    )
    assert findings == []


def test_det_does_not_apply_outside_the_sim_packages():
    findings = lint_source(
        """
        import random

        def sample():
            return random.random()
        """,
        module="repro.analysis.report",
    )
    assert findings == []


# -- TRC: trace-record contract -----------------------------------------------------


RECORD_MODULE_BAD = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class TraceRecord:
        kind: str

    @dataclass
    class Mutable(TraceRecord):
        t_us: float

    @dataclass(frozen=True)
    class Unserializable(TraceRecord):
        payload: dict

    RECORD_TYPES = {"mutable": Mutable, "unserializable": Unserializable}

    @dataclass(frozen=True)
    class Unregistered(TraceRecord):
        t_us: float
"""


def test_trc_flags_mutable_unserializable_and_unregistered_records():
    findings = lint_source(RECORD_MODULE_BAD, module="repro.trace.records")
    assert rule_ids(findings) == ["TRC001", "TRC002", "TRC003"]
    by_rule = {f.rule: f.message for f in findings}
    assert "Mutable" in by_rule["TRC001"]
    assert "dict" in by_rule["TRC002"]
    assert "Unregistered" in by_rule["TRC003"]


def test_trc_clean_on_frozen_registered_jsonl_safe_records():
    findings = lint_source(
        """
        from dataclasses import dataclass
        from typing import Optional, Tuple

        @dataclass(frozen=True)
        class TraceRecord:
            kind: str

        @dataclass(frozen=True)
        class ChannelOpened(TraceRecord):
            t_us: float
            path: Tuple[int, ...]
            note: Optional[str] = None

        RECORD_TYPES = {"channel_opened": ChannelOpened}
        """,
        module="repro.trace.records",
    )
    assert findings == []


def test_trc004_flags_untyped_emission_sites():
    project = Project(record_names=["ChannelOpened"], factory_names=["machine_record"])
    findings = lint_source(
        """
        def run(bus, payload):
            bus.emit(payload)
            bus.emit(make_payload())
        """,
        module="repro.sim.engine",
        project=project,
    )
    assert rule_ids(findings) == ["TRC004", "TRC004"]


def test_trc004_accepts_record_classes_and_typed_factories():
    project = Project(record_names=["ChannelOpened"], factory_names=["machine_record"])
    findings = lint_source(
        """
        def run(bus, machine):
            bus.emit(ChannelOpened(t_us=0.0))
            bus.emit(machine_record(machine, workload="smoke"))
        """,
        module="repro.sim.engine",
        project=project,
    )
    assert findings == []


# -- SPEC: spec-field coverage ------------------------------------------------------


def test_spec001_flags_fields_missing_from_from_dict():
    findings = lint_source(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class NoiseSpec:
            target: float
            hidden_knob: int = 0

            @classmethod
            def from_dict(cls, payload):
                return cls(target=float(payload["target"]))
        """,
        module="repro.scenarios.noise_like",
    )
    assert rule_ids(findings) == ["SPEC001"]
    assert "hidden_knob" in findings[0].message


def test_spec001_resolves_module_tuple_constants():
    findings = lint_source(
        """
        from dataclasses import dataclass

        KEYS = ("target", "hidden_knob")

        @dataclass(frozen=True)
        class NoiseSpec:
            target: float
            hidden_knob: int = 0

            @classmethod
            def from_dict(cls, payload):
                for key in KEYS:
                    payload[key]
                return cls(**payload)
        """,
        module="repro.scenarios.noise_like",
    )
    assert findings == []


def test_spec001_flags_spec_dataclasses_without_from_dict():
    findings = lint_source(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class OrphanSpec:
            target: float
        """,
        module="repro.scenarios.noise_like",
    )
    assert rule_ids(findings) == ["SPEC001"]


def test_spec002_flags_unconditional_non_cosmetic_pops():
    findings = lint_source(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class NoiseSpec:
            name: str
            target: float

            @classmethod
            def from_dict(cls, payload):
                return cls(name=payload["name"], target=payload["target"])

            def canonical_dict(self):
                payload = {"name": self.name, "target": self.target}
                payload.pop("name")
                payload.pop("target")
                return payload
        """,
        module="repro.scenarios.noise_like",
    )
    assert rule_ids(findings) == ["SPEC002"]
    assert "'target'" in findings[0].message


def test_spec002_allows_guarded_pops_of_unset_sections():
    findings = lint_source(
        """
        from dataclasses import dataclass
        from typing import Optional

        @dataclass(frozen=True)
        class TopSpec:
            noise: Optional[float] = None

            @classmethod
            def from_dict(cls, payload):
                return cls(noise=payload.get("noise"))

            def canonical_dict(self):
                payload = {"noise": self.noise}
                if self.noise is None:
                    payload.pop("noise")
                return payload
        """,
        module="repro.scenarios.noise_like",
    )
    assert findings == []


# -- FLT: float discipline ----------------------------------------------------------


def test_flt001_flags_bare_equality_on_float_quantities():
    findings = lint_source(
        """
        def same(makespan_us, expected_us, value):
            return makespan_us == expected_us or value != 1.0
        """,
        module="repro.verify.parity",
    )
    assert rule_ids(findings) == ["FLT001", "FLT001"]


def test_flt001_clean_on_toleranced_comparison():
    findings = lint_source(
        """
        import math

        def same(makespan_us, expected_us):
            return math.isclose(makespan_us, expected_us, rel_tol=1e-9)
        """,
        module="repro.verify.parity",
    )
    assert findings == []


def test_flt002_flags_validators_without_a_finiteness_gate():
    findings = lint_source(
        """
        def validate_fidelity(fidelity: float) -> float:
            if not 0.0 <= fidelity <= 1.0:
                raise ValueError(fidelity)
            return fidelity
        """,
        module="repro.physics.states_like",
    )
    assert rule_ids(findings) == ["FLT002"]


def test_flt002_clean_when_validator_rejects_non_finite():
    findings = lint_source(
        """
        import math

        def validate_fidelity(fidelity: float) -> float:
            if not math.isfinite(fidelity):
                raise ValueError(fidelity)
            if not 0.0 <= fidelity <= 1.0:
                raise ValueError(fidelity)
            return fidelity
        """,
        module="repro.physics.states_like",
    )
    assert findings == []


# -- API: layering ------------------------------------------------------------------


def test_api001_flags_upward_imports_absolute_and_relative():
    findings = lint_source(
        """
        import repro.runtime.cli
        from repro.scenarios.spec import ScenarioSpec
        from ..verify import harness
        """,
        module="repro.sim.transport",
        path="src/repro/sim/transport.py",
    )
    assert rule_ids(findings) == ["API001", "API001", "API001"]


def test_api001_resolves_relative_imports_from_a_package_init():
    findings = lint_source(
        """
        from ..analysis import report
        """,
        module="repro.sim",
        path="src/repro/sim/__init__.py",
    )
    assert rule_ids(findings) == ["API001"]


def test_api001_clean_on_sideways_and_downward_imports():
    findings = lint_source(
        """
        from ..trace.bus import TraceBus
        from .flow import FlowNetwork
        from ..network.routing import DimensionOrder
        """,
        module="repro.sim.transport",
        path="src/repro/sim/transport.py",
    )
    assert findings == []
