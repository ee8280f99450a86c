"""JSONL serialization and end-to-end traced simulation runs."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import build_machine, build_stream, get_scenario
from repro.sim.channel_setup import DetailedChannelSetup
from repro.sim.machine import QuantumMachine
from repro.sim.simulator import CommunicationSimulator
from repro.trace import (
    CANONICAL_KINDS,
    ChannelClosed,
    ChannelOpened,
    EprPairGenerated,
    EventDispatched,
    FlowRateChanged,
    OperationIssued,
    OperationRetired,
    PurificationMilestone,
    RunEnded,
    RunStarted,
    TeleportPerformed,
    TraceBus,
    WarmStartApplied,
    line_to_record,
    read_jsonl,
    record_to_line,
    trace_fingerprint,
    write_jsonl,
)


def _traced_smoke(allocator="incremental", kinds=None):
    spec = get_scenario("smoke")
    bus = TraceBus(kinds=kinds)
    result = CommunicationSimulator(build_machine(spec), allocator=allocator).run(
        build_stream(spec), trace=bus
    )
    return bus, result


class TestSerialization:
    def test_line_round_trip_is_exact(self):
        bus, _ = _traced_smoke()
        assert bus.records
        for record in bus.records:
            assert line_to_record(record_to_line(record)) == record

    def test_file_round_trip(self, tmp_path):
        bus, _ = _traced_smoke(kinds=CANONICAL_KINDS)
        path = str(tmp_path / "nested" / "smoke.jsonl")
        write_jsonl(path, bus.records)
        assert read_jsonl(path) == bus.records

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError):
            line_to_record("{not json")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_jsonl(str(tmp_path / "absent.jsonl"))

    def test_fingerprint_distinguishes_traces(self):
        bus, _ = _traced_smoke(kinds=CANONICAL_KINDS)
        assert trace_fingerprint(bus.records) != trace_fingerprint(bus.records[:-1])


class TestTracedFlowRuns:
    def test_untraced_run_unchanged(self):
        spec = get_scenario("smoke")
        plain = CommunicationSimulator(build_machine(spec)).run(build_stream(spec))
        bus, traced = _traced_smoke()
        assert traced.makespan_us == plain.makespan_us

    def test_run_brackets_and_op_channel_counts(self):
        bus, result = _traced_smoke()
        assert isinstance(bus.records[0], RunStarted)
        assert isinstance(bus.records[-1], RunEnded)
        assert bus.records[-1].makespan_us == result.makespan_us
        issues = bus.filtered([OperationIssued.kind])
        retires = bus.filtered([OperationRetired.kind])
        assert len(issues) == len(retires) == result.operation_count
        opens = bus.filtered([ChannelOpened.kind])
        closes = bus.filtered([ChannelClosed.kind])
        assert len(opens) == len(closes) == result.channel_count

    def test_channel_records_match_trace_timeline(self):
        bus, result = _traced_smoke()
        closes = bus.filtered([ChannelClosed.kind])
        assert [c.end_us for c in result.channels] == [r.t_us for r in closes]
        assert [c.hops for c in result.channels] == [r.hops for r in closes]

    def test_rate_changes_traced(self):
        bus, _ = _traced_smoke()
        rates = bus.filtered([FlowRateChanged.kind])
        assert rates
        assert all(rate.rate >= 0.0 for rate in rates)

    def test_event_dispatch_traced_when_wanted(self):
        bus, _ = _traced_smoke(kinds=[EventDispatched.kind])
        assert bus.records
        assert all(isinstance(record, EventDispatched) for record in bus.records)

    def test_identical_traces_across_allocators(self):
        # warm_start records reflect cross-run cache state (the first run
        # misses, later ones hit), so — like EventDispatched in goldens —
        # they are excluded from cross-run trace comparisons.
        def fingerprint(bus):
            return trace_fingerprint(
                [r for r in bus.records if r.kind != WarmStartApplied.kind]
            )

        inc, _ = _traced_smoke("incremental")
        ref, _ = _traced_smoke("reference")
        assert fingerprint(inc) == fingerprint(ref)

    def test_vectorized_trace_identical_up_to_heap_sequence(self):
        # Every event executes at the identical (time, priority) and every
        # non-bookkeeping record is bitwise identical.  (Heap insertion
        # sequence numbers are normalised away: they differed while only the
        # vectorized allocator chained its completion events.)
        def normalised(bus):
            out = []
            for record in bus.records:
                if record.kind == WarmStartApplied.kind:
                    continue
                if isinstance(record, EventDispatched):
                    out.append(("event", record.t_us, record.priority))
                else:
                    out.append(record)
            return out

        inc, _ = _traced_smoke("incremental")
        vec, _ = _traced_smoke("vectorized")
        assert normalised(inc) == normalised(vec)

    def test_warm_start_traced_and_hits_on_repeat(self):
        first, _ = _traced_smoke()
        second, _ = _traced_smoke()
        records = second.filtered([WarmStartApplied.kind])
        assert len(records) == 1
        assert records[0].hit  # the first run populated the entry
        assert records[0].plans > 0


class TestTracedDetailedRuns:
    def test_detailed_components_emit_milestones(self):
        from repro.network.geometry import Coordinate

        machine = QuantumMachine(5, num_qubits=10)
        plan = machine.planner.plan(Coordinate(0, 0), Coordinate(3, 2))
        bus = TraceBus()
        window = machine.allocation.teleporter_spec.storage_cells
        result = DetailedChannelSetup(machine, plan, trace=bus, max_pairs_in_flight=window).run()
        generated = bus.filtered([EprPairGenerated.kind])
        purified = bus.filtered([PurificationMilestone.kind])
        teleports = bus.filtered([TeleportPerformed.kind])
        assert len(generated) >= result.raw_pairs_injected
        assert len(purified) == result.good_pairs_delivered
        assert len(teleports) == result.teleports_performed
        assert purified[-1].good_pairs == result.good_pairs_delivered
