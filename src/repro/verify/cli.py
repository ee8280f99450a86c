"""``python -m repro verify`` — differential verification and golden traces.

Six subcommands over the same scenario selection (catalog names, a
``--spec`` file, or ``--all-catalog``).  ``run``, ``fidelity``, ``traffic``
and ``routing`` report through one loop: a status line per scenario, its
divergences, and an agreed/diverged summary.

``run``
    Replay each scenario under every requested allocator and diff makespans,
    per-operation completion orders, channel timelines and flow-rate
    (utilisation) timelines.  ``--backends`` additionally replays the
    scenario under both transport backends (fluid and detailed) and holds
    their makespans and op orders to the documented tolerances.  Exits
    non-zero on any divergence.
``record``
    (Re-)serialize each scenario's canonical trace to its golden fixture —
    the one deliberate command that moves the goldens.
``diff``
    Replay each scenario and compare its canonical trace line-by-line
    against the checked-in fixture.  Exits non-zero on any mismatch.
``fidelity``
    Replay each scenario under the fluid and detailed backends with fidelity
    accounting on (scenarios without a ``noise`` section get the documented
    parity noise applied) and hold the delivered per-channel fidelities to
    the documented tolerance.  Exits non-zero on any divergence.
``traffic``
    Replay each open-loop service scenario (one with a ``traffic`` section)
    under the fluid and detailed backends: the offered request streams must
    be bitwise identical, the completed request sets equal, the completion
    orders within the documented disorder tolerance and the delivered loads
    within the documented ratio.  Exits non-zero on any divergence.
``routing``
    Replay each scenario under every load-balancing policy: every opened
    channel must emit exactly one well-formed ``route`` record, the set of
    completed work must be identical across policies, ``least_loaded`` must
    not lose to ``ecmp`` on makespan beyond the documented tolerance, and
    the fluid and detailed backends must agree per policy within the
    documented tolerances.  Exits non-zero on any divergence.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from ..errors import ScenarioError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.spec import ScenarioSpec
    from .harness import Divergence


def add_verify_parser(subparsers: argparse._SubParsersAction) -> None:
    """Wire the ``verify`` command group onto the top-level parser."""
    verify = subparsers.add_parser(
        "verify", help="differential verification and golden-trace regression"
    )
    verify_subs = verify.add_subparsers(dest="verify_command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = verify_subs.add_parser(name, help=help_text)
        sub.add_argument(
            "names",
            nargs="*",
            metavar="NAME",
            help="scenario names (default: the full built-in catalog)",
        )
        sub.add_argument(
            "--all-catalog",
            action="store_true",
            help="select every built-in catalog scenario explicitly",
        )
        sub.add_argument(
            "--spec",
            default=None,
            metavar="FILE",
            help="JSON/YAML scenario file to select scenarios from",
        )
        return sub

    run = command("run", "replay scenarios under multiple allocators and diff the dynamics")
    run.add_argument(
        "--allocators",
        default=None,
        metavar="A,B",
        help="comma-separated allocators to diff (default: every allocator)",
    )
    run.add_argument(
        "--backends",
        action="store_true",
        help="also replay each scenario under the fluid and detailed transport "
        "backends and diff makespans/op order within documented tolerances",
    )

    for name, help_text in (
        ("record", "(re-)record golden trace fixtures — a deliberate act"),
        ("diff", "diff canonical traces against the checked-in golden fixtures"),
    ):
        command(name, help_text).add_argument(
            "--golden-dir",
            default=None,
            metavar="DIR",
            help="fixture directory (default: tests/golden)",
        )

    fidelity = command(
        "fidelity", "fluid-vs-detailed delivered-fidelity parity check (noise applied)"
    )
    fidelity.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="TOL",
        help="absolute delivered-fidelity tolerance (default: the documented "
        "FIDELITY_ABS_TOL)",
    )

    command(
        "traffic",
        "fluid-vs-detailed parity on open-loop service traffic "
        "(delivered load and request completion order)",
    )
    routing = command(
        "routing",
        "load-balancing policy equivalence (completion sets, makespan "
        "ordering, route records, fluid-vs-detailed parity per policy)",
    )
    routing.add_argument(
        "--policies",
        default=None,
        metavar="P,Q",
        help="comma-separated routing policies to replay (default: the "
        "documented ROUTING_POLICIES)",
    )


def _selected_specs(args: argparse.Namespace) -> List["ScenarioSpec"]:
    from ..scenarios import select_scenarios

    if args.all_catalog:
        if args.spec:
            raise ScenarioError("--all-catalog selects built-ins; it cannot follow --spec")
        return select_scenarios()
    return select_scenarios(args.names or None, args.spec)


def cmd_verify(args: argparse.Namespace) -> int:
    commands: Dict[str, Callable[[argparse.Namespace], int]] = {
        "run": _cmd_run,
        "record": _cmd_record,
        "diff": _cmd_diff,
        "fidelity": _cmd_fidelity,
        "traffic": _cmd_traffic,
        "routing": _cmd_routing,
    }
    return commands[args.verify_command](args)


def _report(
    specs: Sequence["ScenarioSpec"],
    check: Callable[["ScenarioSpec"], Tuple[str, List["Divergence"]]],
    title: str,
    suffix: str = "",
) -> int:
    """Check every spec, print one status line each, then a summary line.

    ``check(spec)`` returns the text between the scenario name and its
    status, plus the divergences found; ``title`` and ``suffix`` frame the
    agreed/diverged counts in the summary.  Exits 1 on any divergence.
    """
    width = max(len(spec.name) for spec in specs)
    failures = 0
    for spec in specs:
        what, divergences = check(spec)
        status = "ok" if not divergences else f"DIVERGED ({len(divergences)})"
        print(f"{spec.name:{width}s}  {what}  {status}")
        for divergence in divergences:
            print(f"  {divergence}")
        failures += bool(divergences)
    total = len(specs)
    print(
        f"{title} {total} scenario{'s' if total != 1 else ''}: "
        f"{total - failures} agreed, {failures} diverged{suffix}"
    )
    return 1 if failures else 0


def _cmd_run(args: argparse.Namespace) -> int:
    from ..sim.transport import ALLOCATORS
    from .harness import verify_backends, verify_scenario

    allocators = (
        ALLOCATORS
        if args.allocators is None
        else tuple(a for a in args.allocators.split(",") if a)
    )

    def check(spec: "ScenarioSpec") -> Tuple[str, List["Divergence"]]:
        verdict = verify_scenario(spec, allocators=allocators)
        divergences = verdict.divergences + (verify_backends(spec) if args.backends else [])
        return (
            f"makespan={verdict.makespan_us:14.3f} us  ops={verdict.operations:4d}  "
            f"channels={verdict.channels:4d}  allocators={','.join(verdict.allocators)}",
            divergences,
        )

    return _report(_selected_specs(args), check, "verified")


def _cmd_record(args: argparse.Namespace) -> int:
    from .golden import record_golden

    specs = _selected_specs(args)
    for spec in specs:
        path = record_golden(spec, directory=args.golden_dir)
        print(f"recorded {spec.name} -> {path}")
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    from .harness import FIDELITY_ABS_TOL, verify_fidelity

    tolerance = FIDELITY_ABS_TOL if args.tolerance is None else args.tolerance
    return _report(
        _selected_specs(args),
        lambda spec: (
            "fluid vs detailed delivered fidelity",
            verify_fidelity(spec, tolerance=tolerance),
        ),
        "fidelity parity on",
        f" (tolerance {tolerance:g})",
    )


def _cmd_traffic(args: argparse.Namespace) -> int:
    from .harness import verify_traffic

    specs = _selected_specs(args)
    service_specs = [spec for spec in specs if spec.traffic is not None]
    if not service_specs:
        raise ScenarioError(
            "no selected scenario has a traffic section; the traffic parity "
            "check needs open-loop service scenarios"
        )
    skipped = len(specs) - len(service_specs)
    return _report(
        service_specs,
        lambda spec: ("fluid vs detailed service traffic", verify_traffic(spec)),
        "traffic parity on",
        f" ({skipped} batch scenario{'s' if skipped != 1 else ''} skipped)" if skipped else "",
    )


def _cmd_routing(args: argparse.Namespace) -> int:
    from .harness import ROUTING_POLICIES, verify_routing

    policies = (
        ROUTING_POLICIES
        if args.policies is None
        else tuple(p for p in args.policies.split(",") if p)
    )
    return _report(
        _selected_specs(args),
        lambda spec: (f"policies={','.join(policies)}", verify_routing(spec, policies=policies)),
        "routing equivalence on",
    )


def _cmd_diff(args: argparse.Namespace) -> int:
    from .golden import diff_golden

    specs = _selected_specs(args)
    failures = 0
    for spec in specs:
        diff = diff_golden(spec, directory=args.golden_dir)
        print(diff.summary())
        failures += not diff.ok
    return 1 if failures else 0
