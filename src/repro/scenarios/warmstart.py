"""Cross-run warm-starting for sweeps and service runs.

Sweeps and service workloads replay near-identical machines thousands of
times: the spec-hash result cache only hits on *exact* spec matches, so a
sweep over, say, ``physics.generator_bandwidth_scale`` rebuilds every channel
plan, EPR budget, flow profile and demand vector at every point even though
none of them depend on the swept scalar.  :class:`WarmStartCache` closes that
gap (psim's ``GContext::this_run()`` cross-run cache is the model): entries
are keyed by a **structural hash** — the scenario's canonical dict minus the
knobs proven not to affect the cached state — and carry the memo dicts the
machine stack consults:

* the planner's per-distance EPR budgets and arrival states,
* the planner's per-endpoint-pair channel plans,
* the machine's per-distance flow demand profiles, and
* the fluid transport's per-endpoint-pair demand vectors — exactly the row
  content (resource keys + works) the transport appends to its flow store,
  so repeated points also skip rebuilding that structure.

Every cached object is a pure function of the structural key (the exclusions
below are each argued at the definition), so adoption can only skip
recomputation, never change a computed value — the verify harness's bitwise
gates run with warm-starting active and pin that.

Excluded from the key:

``runtime.allocator`` / ``runtime.backend`` / ``runtime.max_events``
    Execution strategy; plans, budgets, profiles and demands are computed
    from the machine structure the same way under all of them.
``physics.logical_gate_us``
    Gate latency enters the simulators' op scheduling only; no planner or
    profile quantity reads it.
``physics.generator_bandwidth_scale``
    Scales resource *capacities*, which live in the per-run transport, not
    in any warm-started object (demand works are pair counts × times).
``traffic``
    The offered request stream; structure-independent.

The cache is process-global: a single-process sweep (``workers=1``, the
in-process fast path) or a service simulator hits it across points and
requests.  Pool workers are separate processes with their own (empty) global
cache, so multi-worker sweeps warm up per worker rather than sharing hits.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Tuple

from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.machine import QuantumMachine

#: Entries kept before the least-recently-used one is evicted.  Entries are
#: small (memo dicts over distances and endpoint pairs), but sweeps over
#: structural axes (grid size, topology kind) would otherwise grow the cache
#: without bound.
MAX_ENTRIES = 64


def structural_key(spec: ScenarioSpec) -> str:
    """Hash of everything that can affect warm-started state.

    Starts from the spec's canonical dict (the result-cache key) and removes
    the documented non-structural knobs, so sweep points differing only in
    those share one entry.
    """
    from ..runtime.cache import parameter_hash

    payload: Dict[str, Any] = copy.deepcopy(spec.canonical_dict())
    payload.pop("traffic", None)
    runtime = payload.get("runtime")
    if isinstance(runtime, dict):
        for knob in ("allocator", "backend", "max_events"):
            runtime.pop(knob, None)
    physics = payload.get("physics")
    if isinstance(physics, dict):
        for knob in ("logical_gate_us", "generator_bandwidth_scale"):
            physics.pop(knob, None)
    return str(parameter_hash(payload))


@dataclass
class WarmStartEntry:
    """The shared memo dicts for one machine structure."""

    key: str
    budget_cache: Dict[int, Any] = field(default_factory=dict)
    arrival_cache: Dict[int, Any] = field(default_factory=dict)
    plan_cache: Dict[Tuple[Any, Any], Any] = field(default_factory=dict)
    flow_profiles: Dict[int, Any] = field(default_factory=dict)
    demand_cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Dict[Any, float]] = field(
        default_factory=dict
    )
    reuses: int = 0


class WarmStartCache:
    """LRU cache of :class:`WarmStartEntry` keyed by structural hash."""

    def __init__(self, max_entries: int = MAX_ENTRIES) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, WarmStartEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def entry_for(self, key: str) -> Tuple[WarmStartEntry, bool]:
        """The entry for ``key`` plus whether it already existed (a hit)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                entry.reuses += 1
                return entry, True
            self.misses += 1
            entry = WarmStartEntry(key=key)
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return entry, False

    def stats(self) -> Dict[str, int]:
        """Counters for bench payloads and result metadata."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


#: The process-global cache ``build_machine`` attaches through.
_GLOBAL_CACHE = WarmStartCache()


def global_cache() -> WarmStartCache:
    return _GLOBAL_CACHE


def attach(
    machine: "QuantumMachine",
    spec: ScenarioSpec,
    cache: WarmStartCache | None = None,
) -> Dict[str, object]:
    """Adopt the warm-start entry for ``spec`` onto a freshly built machine.

    Returns the attachment info dict also stored on the machine (and from
    there surfaced in ``SimulationResult``/``ServiceResult`` metadata and the
    ``warm_start`` trace record).
    """
    if cache is None:
        cache = _GLOBAL_CACHE
    key = structural_key(spec)
    entry, hit = cache.entry_for(key)
    machine.planner.adopt_caches(
        budgets=entry.budget_cache,
        arrivals=entry.arrival_cache,
        plans=entry.plan_cache,
    )
    info: Dict[str, object] = {
        "key": key,
        "hit": hit,
        "reuses": entry.reuses,
        "plans": len(entry.plan_cache),
        "profiles": len(entry.flow_profiles),
        "demands": len(entry.demand_cache),
        "hits": cache.hits,
        "misses": cache.misses,
    }
    machine.adopt_warm_state(
        flow_profiles=entry.flow_profiles,
        demand_cache=entry.demand_cache,
        info=info,
    )
    return info
