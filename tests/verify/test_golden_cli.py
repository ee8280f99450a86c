"""Golden fixtures and the ``python -m repro verify`` CLI."""

import os

import pytest

from repro.errors import ScenarioError
from repro.runtime.cli import main
from repro.scenarios import get_scenario, load_scenario_file
from repro.verify import diff_golden, golden_path, record_golden

#: The detailed-backend golden scenarios (catalog scenarios on ``detailed``).
DETAILED_SPECS = os.path.join(os.path.dirname(__file__), "..", "golden", "specs", "detailed.yaml")


class TestGoldenFixtures:
    def test_record_then_diff_round_trips(self, tmp_path):
        directory = str(tmp_path)
        spec = get_scenario("smoke")
        path = record_golden(spec, directory=directory)
        assert os.path.exists(path)
        diff = diff_golden(spec, directory=directory)
        assert diff.ok
        assert diff.golden_lines == diff.current_lines > 0
        assert "match" in diff.summary()

    def test_missing_fixture_reported(self, tmp_path):
        diff = diff_golden(get_scenario("smoke"), directory=str(tmp_path))
        assert diff.missing and not diff.ok
        assert "verify record" in diff.summary()

    def test_tampered_fixture_pinpoints_line(self, tmp_path):
        directory = str(tmp_path)
        spec = get_scenario("smoke")
        path = record_golden(spec, directory=directory)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[3] = lines[3].replace('"t_us":', '"t_us":1e9, "_":')
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        diff = diff_golden(spec, directory=directory)
        assert not diff.ok
        assert any("line 4" in mismatch for mismatch in diff.mismatches)

    def test_extra_golden_lines_detected(self, tmp_path):
        directory = str(tmp_path)
        spec = get_scenario("smoke")
        path = record_golden(spec, directory=directory)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"run_end","t_us":0.0,"makespan_us":0.0,'
                         '"operations":0,"channels":0}\n')
        diff = diff_golden(spec, directory=directory)
        assert not diff.ok
        assert diff.golden_lines == diff.current_lines + 1

    def test_default_golden_dir_is_repo_anchored(self):
        from repro.verify import DEFAULT_GOLDEN_DIR

        assert os.path.isabs(DEFAULT_GOLDEN_DIR)
        assert os.path.isdir(DEFAULT_GOLDEN_DIR)

    def test_exact_mismatch_budget_is_not_marked_truncated(self, tmp_path):
        from repro.verify.golden import MAX_REPORTED_MISMATCHES

        directory = str(tmp_path)
        spec = get_scenario("smoke")
        path = record_golden(spec, directory=directory)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for index in range(1, 1 + MAX_REPORTED_MISMATCHES):
            lines[index] = lines[index].replace("{", '{"_":0,', 1)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        diff = diff_golden(spec, directory=directory)
        assert len(diff.mismatches) == MAX_REPORTED_MISMATCHES
        assert not any("truncated" in mismatch for mismatch in diff.mismatches)
        # One extra mismatch beyond the budget does get the truncation marker.
        lines[1 + MAX_REPORTED_MISMATCHES] = lines[1 + MAX_REPORTED_MISMATCHES].replace(
            "{", '{"_":0,', 1
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        diff = diff_golden(spec, directory=directory)
        assert diff.mismatches[-1] == "... (truncated)"
        assert len(diff.mismatches) == MAX_REPORTED_MISMATCHES + 1

    def test_trace_bus_attached_after_transport_construction_still_traces(self):
        # Components must discover the bus through the engine at emission
        # time, not snapshot it at construction.
        from repro.scenarios import build_machine
        from repro.sim.engine import SimulationEngine
        from repro.sim.flow import FlowTransport
        from repro.trace import ChannelOpened, TraceBus
        from repro.network.geometry import Coordinate
        from repro.network.layout import CommRequest
        from repro.sim.control import PlannedCommunication

        machine = build_machine(get_scenario("smoke"))
        engine = SimulationEngine()
        transport = FlowTransport(engine, machine)
        bus = TraceBus()
        engine.trace = bus
        source, dest = Coordinate(0, 0), Coordinate(2, 1)
        plan = machine.planner.plan(source, dest)
        planned = PlannedCommunication(
            request=CommRequest(source=source, dest=dest, qubit=1), plan=plan
        )
        transport.start(planned, lambda: None)
        engine.run()
        assert bus.filtered([ChannelOpened.kind])

    def test_sweep_names_are_filesystem_safe(self):
        path = golden_path("grid/mesh-qft")
        assert "/" not in os.path.basename(path)
        assert path.endswith("grid__mesh-qft.jsonl")

    def test_empty_name_rejected(self):
        with pytest.raises(ScenarioError):
            golden_path("  ")


class TestCheckedInGoldens:
    """The repository's own fixtures stay in sync with the simulator."""

    def test_smoke_and_ring_fixtures_match(self):
        for name in ("smoke", "ring_qft"):
            diff = diff_golden(get_scenario(name))
            assert diff.ok, diff.summary()

    def test_fabric_fixtures_match_and_carry_route_records(self):
        # The big-fabric scenarios pin their route choices: every channel
        # open is preceded by exactly one route record naming the policy.
        for name, policy in (
            ("fattree_smoke", "ecmp"),
            ("dragonfly_adaptive", "adaptive"),
        ):
            diff = diff_golden(get_scenario(name))
            assert diff.ok, diff.summary()
            with open(diff.path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            routes = [line for line in lines if '"kind":"route"' in line]
            opens = [line for line in lines if '"kind":"channel_open"' in line]
            assert len(routes) == len(opens) > 0
            assert all(f'"policy":"{policy}"' in line for line in routes)
        # Route records must not leak into pre-existing fixtures.
        with open(golden_path("smoke"), "r", encoding="utf-8") as handle:
            assert '"kind":"route"' not in handle.read()

    def test_noisy_fixture_matches_and_carries_fidelity_records(self):
        spec = get_scenario("smoke_noisy")
        diff = diff_golden(spec)
        assert diff.ok, diff.summary()
        with open(diff.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert any('"kind":"fidelity"' in line for line in lines)
        # Its noise-free sibling stays fidelity-free: the new record kind
        # must not leak into pre-existing fixtures.
        with open(golden_path("smoke"), "r", encoding="utf-8") as handle:
            assert '"kind":"fidelity"' not in handle.read()

    def test_detailed_backend_fixtures_match(self):
        # The detailed backend's per-pair event dynamics are pinned by their
        # own fixtures; the largest (paper_baseline_detailed) is diffed in CI.
        specs = {spec.name: spec for spec in load_scenario_file(DETAILED_SPECS)}
        assert set(specs) >= {"smoke_detailed", "paper_baseline_detailed"}
        for name in ("smoke_detailed", "smoke_noisy_detailed", "torus_permutation_detailed"):
            spec = specs[name]
            assert spec.runtime.backend == "detailed"
            diff = diff_golden(spec)
            assert diff.ok, diff.summary()

    def test_record_then_diff_round_trips_on_fresh_checkout(self, tmp_path):
        # Satellite check: `verify record` + `verify diff` must round-trip
        # cleanly from nothing (a fresh checkout recording into an empty
        # directory), fidelity records included.
        directory = str(tmp_path)
        for name in ("smoke", "smoke_noisy"):
            spec = get_scenario(name)
            assert diff_golden(spec, directory=directory).missing
            record_golden(spec, directory=directory)
            diff = diff_golden(spec, directory=directory)
            assert diff.ok, diff.summary()
            assert diff.golden_lines == diff.current_lines > 0


class TestVerifyCli:
    def test_verify_run_reports_agreement(self, capsys):
        code = main(["verify", "run", "smoke", "--allocators", "incremental,reference"])
        out = capsys.readouterr().out
        assert code == 0
        assert "smoke" in out and "1 agreed, 0 diverged" in out

    def test_verify_run_backends_flag(self, capsys):
        code = main(["verify", "run", "smoke", "--backends"])
        assert code == 0

    def test_verify_record_and_diff_cycle(self, tmp_path, capsys):
        directory = str(tmp_path)
        assert main(["verify", "record", "smoke", "--golden-dir", directory]) == 0
        assert main(["verify", "diff", "smoke", "--golden-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "recorded smoke" in out and "trace lines match" in out

    def test_verify_diff_missing_fixture_fails(self, tmp_path, capsys):
        code = main(["verify", "diff", "smoke", "--golden-dir", str(tmp_path)])
        assert code == 1
        assert "no golden fixture" in capsys.readouterr().out

    def test_unknown_scenario_name_errors(self, capsys):
        code = main(["verify", "run", "not-a-scenario"])
        assert code == 2
        assert "unknown scenario names" in capsys.readouterr().err

    def test_all_catalog_flag_with_spec_rejected(self, tmp_path, capsys):
        spec_file = tmp_path / "one.json"
        spec_file.write_text('{"name": "one", "extends": "smoke"}')
        code = main(["verify", "run", "--all-catalog", "--spec", str(spec_file)])
        assert code == 2

    def test_spec_file_selection(self, tmp_path, capsys):
        spec_file = tmp_path / "one.json"
        spec_file.write_text('{"name": "one", "extends": "smoke"}')
        code = main(["verify", "run", "--spec", str(spec_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "one" in out
