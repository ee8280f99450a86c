"""Routing-policy equivalence: the policy axis of the differential harness."""

import dataclasses

import pytest

from repro.errors import ScenarioError
from repro.runtime.cli import main
from repro.scenarios import get_scenario
from repro.trace import OperationRetired, RouteChosen
from repro.verify import harness, verify_routing


@pytest.fixture
def forge(monkeypatch):
    """Replace one policy's runs with a forged copy of the real ones."""

    def install(policy, tamper):
        real = harness.traced_run

        def forged(spec, **overrides):
            run = real(spec, **overrides)
            if run.policy == policy:
                tamper(run)
            return run

        monkeypatch.setattr(harness, "traced_run", forged)

    return install


def _aspects():
    # The fluid backend alone keeps the forged replays fast; the policy checks
    # run on the baseline backend's runs either way.
    divergences = verify_routing(get_scenario("smoke"), backends=["fluid"])
    return {divergence.aspect for divergence in divergences}


class TestVerifyRouting:
    def test_policies_agree_on_fattree_smoke(self):
        divergences = verify_routing(get_scenario("fattree_smoke"))
        assert divergences == [], [str(d) for d in divergences]

    def test_untampered_single_backend_replay_agrees(self):
        assert _aspects() == set()

    def test_missing_route_record_is_reported(self, forge):
        def drop_one_route(run):
            index = next(i for i, r in enumerate(run.records) if r.kind == RouteChosen.kind)
            del run.records[index]

        forge("least_loaded", drop_one_route)
        assert _aspects() == {"routing_records"}

    def test_route_record_naming_another_policy_is_reported(self, forge):
        def relabel_routes(run):
            run.records = [
                dataclasses.replace(r, policy="ecmp") if r.kind == RouteChosen.kind else r
                for r in run.records
            ]

        forge("adaptive", relabel_routes)
        assert _aspects() == {"routing_records"}

    def test_completion_set_mismatch_is_reported(self, forge):
        def drop_last_retirement(run):
            index = max(i for i, r in enumerate(run.records) if r.kind == OperationRetired.kind)
            del run.records[index]

        forge("adaptive", drop_last_retirement)
        assert _aspects() == {"routing_completion_set"}

    def test_least_loaded_losing_to_ecmp_is_reported(self, forge):
        def slow_down(run):
            run.result.makespan_us *= 1.5

        forge("least_loaded", slow_down)
        assert _aspects() == {"routing_makespan_order"}

    def test_rejects_empty_backends(self):
        with pytest.raises(ScenarioError, match="at least one backend"):
            verify_routing(get_scenario("smoke"), backends=[])

    def test_rejects_unknown_backend(self):
        with pytest.raises(ScenarioError, match="unknown backends"):
            verify_routing(get_scenario("smoke"), backends=["fluid", "bogus"])

    def test_rejects_empty_policies(self):
        with pytest.raises(ScenarioError, match="at least one policy"):
            verify_routing(get_scenario("smoke"), policies=[])


class TestVerifyRoutingCli:
    def test_cli_reports_equivalence(self, capsys):
        assert main(["verify", "routing", "smoke", "--policies", "ecmp,least_loaded"]) == 0
        out = capsys.readouterr().out
        assert "policies=ecmp,least_loaded  ok" in out
        assert "routing equivalence on 1 scenario: 1 agreed, 0 diverged" in out
