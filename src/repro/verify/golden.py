"""Golden-trace regression fixtures.

A golden fixture is the canonical JSONL trace of one scenario, checked into
``tests/golden/`` and re-derived on demand: ``record`` overwrites fixtures
deliberately, ``diff`` replays the scenario and compares line by line.  The
serialization is deterministic (see :mod:`repro.trace.serialize`), so a diff
is a pure string comparison and a mismatch pinpoints the first diverging
event — which makes "this refactor changed the physics" a one-line CI failure
instead of a silently shifted figure.

Fixtures open with the :class:`~repro.trace.RunStarted` header, so replaying
against a fixture recorded from a different machine/workload fails
immediately and explicitly rather than producing pages of event noise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Union

from ..errors import ScenarioError
from ..scenarios.spec import ScenarioSpec
from ..trace import CANONICAL_KINDS, records_to_lines, write_jsonl
from .harness import traced_run

def _default_golden_dir() -> str:
    """``tests/golden`` anchored at the repository root, not the CWD.

    The fixtures live next to the source tree (``src/repro/verify/`` is four
    levels below the root), so the verify CLI works from any directory; when
    the package runs from somewhere without that layout (e.g. installed),
    fall back to a CWD-relative path.
    """
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )
    if os.path.isdir(os.path.join(root, "tests")):
        return os.path.join(root, "tests", "golden")
    return os.path.join("tests", "golden")


#: Default fixture directory (repository-root ``tests/golden`` when present).
DEFAULT_GOLDEN_DIR = _default_golden_dir()

#: How many mismatching lines a diff reports before truncating.
MAX_REPORTED_MISMATCHES = 5


def golden_path(name: str, directory: Optional[str] = None) -> str:
    """Fixture path for scenario ``name`` (sweep slashes become ``__``)."""
    clean = (name or "").strip()
    if not clean:
        raise ScenarioError("a golden fixture needs a non-empty scenario name")
    filename = clean.replace(os.sep, "__").replace("/", "__") + ".jsonl"
    return os.path.join(directory or DEFAULT_GOLDEN_DIR, filename)


def canonical_trace_lines(spec: Union[ScenarioSpec, Mapping[str, Any]]) -> List[str]:
    """The scenario's canonical trace, serialized to JSONL lines."""
    run = traced_run(spec, kinds=CANONICAL_KINDS)
    return records_to_lines(run.records)


def record_golden(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    directory: Optional[str] = None,
) -> str:
    """(Re-)record the golden fixture for ``spec``; returns the path."""
    run = traced_run(spec, kinds=CANONICAL_KINDS)
    return write_jsonl(golden_path(run.spec.name, directory), run.records)


@dataclass
class GoldenDiff:
    """Outcome of diffing one scenario against its checked-in fixture."""

    scenario: str
    path: str
    missing: bool = False
    golden_lines: int = 0
    current_lines: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.missing and not self.mismatches

    def summary(self) -> str:
        if self.missing:
            return (
                f"[{self.scenario}] no golden fixture at {self.path} "
                f"(run `python -m repro verify record {self.scenario}`)"
            )
        if self.ok:
            return f"[{self.scenario}] {self.golden_lines} trace lines match {self.path}"
        lines = [
            f"[{self.scenario}] trace diverges from {self.path} "
            f"({self.current_lines} current vs {self.golden_lines} golden lines):"
        ]
        lines.extend(f"  {mismatch}" for mismatch in self.mismatches)
        return "\n".join(lines)


def diff_golden(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    directory: Optional[str] = None,
    max_mismatches: int = MAX_REPORTED_MISMATCHES,
) -> GoldenDiff:
    """Replay ``spec`` and diff its canonical trace against the fixture."""
    spec = ScenarioSpec.coerce(spec)
    path = golden_path(spec.name, directory)
    diff = GoldenDiff(scenario=spec.name, path=path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            golden = [line for line in handle.read().splitlines() if line.strip()]
    except OSError:
        diff.missing = True
        return diff
    current = canonical_trace_lines(spec)
    diff.golden_lines = len(golden)
    diff.current_lines = len(current)
    for index in range(max(len(golden), len(current))):
        want = golden[index] if index < len(golden) else "<missing>"
        got = current[index] if index < len(current) else "<missing>"
        if want != got:
            if len(diff.mismatches) >= max_mismatches:
                diff.mismatches.append("... (truncated)")
                break
            diff.mismatches.append(f"line {index + 1}: golden {want} != current {got}")
    return diff
