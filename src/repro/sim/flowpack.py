"""The fluid transport's one per-flow store, and its two rate kernels.

:class:`FlowPack` holds every in-flight flow of
:class:`~repro.sim.flow.FlowTransport`, whichever allocator runs, in flat
stdlib ``array`` buffers (so importing it needs no numpy):

``entry_col`` / ``entry_work`` and ``row_ptr``
    One entry per (flow, resource) demand, appended flow-major; row ``r``
    owns entries ``row_ptr[r]:row_ptr[r + 1]``.  Flow ids are monotonically
    increasing (``TransportBackend._next_flow_id``), so rows — and therefore
    entries — are always sorted by flow id.  That ordering is the whole
    bitwise-parity argument: every per-resource accumulation, in either
    kernel, walks entries in flow-id order, which is the order the
    ``reference`` oracle sums ``ChannelFlow.demands`` in.
``active`` / ``remaining`` / ``rate`` / ``start_us`` / ``floor_us`` / ``finish``
    Per-flow fluid state; ``finish`` is the completion time fixed at the last
    reallocation.  A removed flow's row is tombstoned (inactive, rate and
    remaining 0, finish inf) until :meth:`FlowPack.compact` drops it.
``col_keys`` / ``col_cap`` / ``col_kind``
    Interned resource keys with their capacity and kind.  Columns are never
    dropped (their number is bounded by the topology), so ``kind_capacity``,
    the per-kind capacity totals, grows exactly once per resource, in
    first-use order.
``kind_rate``
    Per-kind sum of ``rate × work`` over live flows, moved by ``delta × work``
    per entry, in entry order, whenever a rate changes or a flow leaves.  The
    transport's usage integral advances from it, so every allocator reports
    bitwise-equal utilisation.

:meth:`FlowPack.max_min_rates` is the pure-Python progressive-filling kernel
(the ``incremental`` allocator).  :class:`NumpyFlowPack` (``vectorized``)
replaces it, and the per-row passes a storm repeats (advancing the remaining
work, storing rates, fixing finish times), with numpy over zero-copy
``np.frombuffer`` views.  The views are taken per call and dropped before it
returns, because an ``array`` that exports a buffer cannot grow.  Its demand sums use ``np.bincount(cols, weights=w)``, which
accumulates strictly in input order (a sequential C loop), and its per-kind
rate deltas ``np.add.at``, which is sequential too; ``np.add.reduceat`` would
switch to pairwise summation above ~128 elements, so it is not used.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import SimulationError

#: Resource identifiers are ``(kind, *coordinates)`` tuples.
ResourceKey = Tuple[Any, ...]

#: Compact once tombstoned rows outnumber live ones, so every per-row pass
#: stays proportional to the live flows at amortised O(1) per removal — but
#: not below this many tombstones: on small packs one compaction costs about
#: what 40 tombstoned rows add to a reallocation's per-row passes.
_COMPACT_MIN_DEAD = 8

#: Per-row buffers, in the order :meth:`FlowPack.compact` filters them.
_ROW_FIELDS = ("row_flow_id", "active", "remaining", "rate", "start_us", "floor_us", "finish")

_INF = float("inf")


class FlowPack:
    """Per-flow fluid state and flow×resource incidence in ``array`` buffers."""

    def __init__(self, capacity_of: Callable[[ResourceKey], float]) -> None:
        self._capacity_of = capacity_of
        self._col_of_key: Dict[ResourceKey, int] = {}
        self.col_keys: List[ResourceKey] = []
        self.col_cap = array("d")
        self.col_kind = array("q")
        #: Resource kinds in first-use order, with per-kind totals.
        self.kinds: List[str] = []
        self.kind_capacity: List[float] = []
        self.kind_rate: List[float] = []
        self._row_of_flow: Dict[int, int] = {}
        self.row_flow_id = array("q")
        self.active = array("B")
        self.remaining = array("d")
        self.rate = array("d")
        self.start_us = array("d")
        self.floor_us = array("d")
        self.finish = array("d")
        self.row_ptr = array("q", [0])
        self.entry_col = array("q")
        self.entry_work = array("d")
        self._dead_rows = 0

    @property
    def n_flows(self) -> int:
        """Number of live (non-tombstoned) flows."""
        return len(self._row_of_flow)

    def row_of(self, flow_id: int) -> int:
        return self._row_of_flow[flow_id]

    def rate_of(self, flow_id: int) -> float:
        return self.rate[self._row_of_flow[flow_id]]

    def remaining_of(self, flow_id: int) -> float:
        return self.remaining[self._row_of_flow[flow_id]]

    # ------------------------------------------------------------------
    # Mutation

    def add_flow(
        self,
        flow_id: int,
        demands: Dict[ResourceKey, float],
        *,
        start_us: float = 0.0,
        floor_us: float = 0.0,
    ) -> None:
        """Append a flow row (remaining work 1, rate 0) and its demand entries.

        Rows must arrive in increasing flow-id order (the transport's flow
        ids are monotonic) — that invariant is what keeps every per-column
        accumulation in flow-id order without sorting.
        """
        if flow_id in self._row_of_flow:
            raise SimulationError(f"flow {flow_id} already packed")
        if self.row_flow_id and flow_id <= self.row_flow_id[-1]:
            raise SimulationError(
                f"flow ids must be appended in increasing order; got {flow_id} "
                f"after {self.row_flow_id[-1]}"
            )
        row = len(self.row_flow_id)
        self._row_of_flow[flow_id] = row
        self.row_flow_id.append(flow_id)
        self.active.append(1)
        self.remaining.append(1.0)
        self.rate.append(0.0)
        self.start_us.append(start_us)
        self.floor_us.append(floor_us)
        self.finish.append(_INF)
        col_of_key = self._col_of_key
        cols = [col_of_key.get(key) for key in demands]
        if None in cols:
            cols = [self._intern(key) for key in demands]
        self.entry_col.extend(cols)
        self.entry_work.extend(demands.values())
        self.row_ptr.append(len(self.entry_col))

    def _intern(self, key: ResourceKey) -> int:
        col = self._col_of_key.get(key)
        if col is None:
            col = self._col_of_key[key] = len(self.col_keys)
            self.col_keys.append(key)
            capacity = self._capacity_of(key)
            self.col_cap.append(capacity)
            if key[0] not in self.kinds:
                self.kinds.append(key[0])
                self.kind_capacity.append(0.0)
                self.kind_rate.append(0.0)
            kind = self.kinds.index(key[0])
            self.col_kind.append(kind)
            self.kind_capacity[kind] += capacity
        return col

    def _charge(self, row: int, delta: float) -> None:
        """Move ``kind_rate`` by ``delta × work`` for each of a row's entries."""
        kind_rate, col_kind, cols, works = self.kind_rate, self.col_kind, self.entry_col, self.entry_work
        for e in range(self.row_ptr[row], self.row_ptr[row + 1]):
            kind_rate[col_kind[cols[e]]] += delta * works[e]

    def remove_flow(self, flow_id: int) -> None:
        """Tombstone a flow's row; entries stay until the next compaction."""
        row = self._row_of_flow.pop(flow_id)
        self._charge(row, -self.rate[row])
        self.active[row] = 0
        self.rate[row] = 0.0
        self.remaining[row] = 0.0
        self.finish[row] = _INF
        self._dead_rows += 1
        if self._dead_rows >= _COMPACT_MIN_DEAD and self._dead_rows * 2 > len(self.active):
            self.compact()

    def compact(self) -> None:
        """Drop tombstoned rows and their entries; columns stay.

        Surviving rows keep their relative (flow-id) order and their entries
        theirs, so compaction is unobservable to the kernels: every
        per-column accumulation still walks the same works in the same order.
        """
        live = list(self._row_of_flow.values())
        for name in _ROW_FIELDS:
            old = getattr(self, name)
            setattr(self, name, array(old.typecode, [old[row] for row in live]))
        ptr, cols, works = self.row_ptr, self.entry_col, self.entry_work
        self.row_ptr, self.entry_col, self.entry_work = array("q", [0]), array("q"), array("d")
        for row in live:
            self.entry_col += cols[ptr[row] : ptr[row + 1]]
            self.entry_work += works[ptr[row] : ptr[row + 1]]
            self.row_ptr.append(len(self.entry_col))
        self._row_of_flow = {flow_id: row for row, flow_id in enumerate(self.row_flow_id)}
        self._dead_rows = 0

    # ------------------------------------------------------------------
    # Fluid state

    def advance(self, elapsed: float) -> None:
        """``remaining -= rate × elapsed`` clamped at 0, over all rows.

        Rows at rate 0 (stalled or tombstoned) are skipped: for them the
        update is the identity.
        """
        remaining = self.remaining
        for row, rate in enumerate(self.rate):
            if rate:
                remaining[row] = max(remaining[row] - rate * elapsed, 0.0)

    def max_min_rates(self, saturation_eps: float) -> Sequence[float]:
        """Progressive-filling max-min rate per row (0 for tombstones).

        Column member lists are built from the live entries in entry
        (flow-id) order.  Each round takes the bottleneck delta over
        the contended columns, charges them, freezes the members of the
        columns that crossed ``saturation_eps``, and re-sums only the columns
        those frozen flows touch.  Every unfrozen flow holds
        the same running sum of the round deltas, so a flow's rate is that
        sum when it freezes: the float program of the oracle, which adds
        each delta to each unfrozen flow in turn.
        """
        entry_col, entry_work, row_ptr = self.entry_col, self.entry_work, self.row_ptr
        rates = [0.0] * len(self.active)
        members: Dict[int, List[Tuple[int, float]]] = {}
        for row in self._row_of_flow.values():
            start, stop = row_ptr[row], row_ptr[row + 1]
            for col, work in zip(entry_col[start:stop], entry_work[start:stop]):
                bucket = members.get(col)
                if bucket is None:
                    members[col] = [(row, work)]
                else:
                    bucket.append((row, work))
        cap_left = {col: self.col_cap[col] for col in members}
        denom: Dict[int, float] = {}
        for col, bucket in members.items():
            d = 0.0
            for _, work in bucket:
                d += work
            if d > 0.0:
                denom[col] = d
        unfrozen = bytearray(self.active)
        live = self.n_flows
        level = 0.0
        while live:
            if not denom:
                # No shared resource constrains the remaining flows; give them
                # an effectively unconstrained rate (their floor dominates).
                level += 1.0
                break
            best_delta = min([cap_left[col] / d for col, d in denom.items()])
            level += best_delta
            frozen: Set[int] = set()
            for col, d in denom.items():
                left = cap_left[col] = cap_left[col] - best_delta * d
                if left <= saturation_eps:
                    frozen.update([row for row, _ in members[col]])
            if not frozen:
                break
            live -= len(frozen)
            dirty: Set[int] = set()
            for row in sorted(frozen):
                unfrozen[row] = 0
                rates[row] = level
                dirty.update(entry_col[row_ptr[row] : row_ptr[row + 1]])
            for col in sorted(dirty):
                bucket = members[col] = [member for member in members[col] if unfrozen[member[0]]]
                d = 0.0
                for _, work in bucket:
                    d += work
                if d > 0.0:
                    denom[col] = d
                else:
                    denom.pop(col, None)
        for row, still in enumerate(unfrozen):
            if still:
                rates[row] = level
        return rates

    def store_rates(self, rates: Sequence[float]) -> List[int]:
        """Store new per-row rates; return the rows whose rate changed.

        Rows come back in ascending (flow-id) order — the ``FlowRateChanged``
        stream — and each change moves ``kind_rate`` in that order.
        """
        changed = []
        old = self.rate
        for row, new in enumerate(rates):
            if new != old[row]:
                changed.append(row)
                self._charge(row, new - old[row])
                old[row] = new
        return changed

    def set_finish_times(self, now: float, completion_eps: float) -> None:
        """Fix every live row's finish time from the current rates.

        ``remaining <= eps`` finishes now; ``rate <= 0`` is stalled (inf);
        otherwise ``now + remaining / rate``; all clamped to the channel
        floor.  Called once per reallocation, so rows added since stay at
        inf (no completion is armed before a flow's first rate).
        """
        self.finish = array(
            "d",
            [
                max(
                    now
                    if left <= completion_eps
                    else (now + left / rate if rate > 0.0 else _INF),
                    start + floor,
                )
                if alive
                else _INF
                for alive, left, rate, start, floor in zip(
                    self.active, self.remaining, self.rate, self.start_us, self.floor_us
                )
            ],
        )

    def next_completion(self, spent: Set[int]) -> Optional[Tuple[int, float]]:
        """Earliest stored finish as ``(flow_id, finish_time)``, or None.

        Reads the finish times *stored* at the last reallocation, never ones
        recomputed from the current ``remaining``: a recomputation can round
        a nearly-done flow onto ``now`` (or off it) between a completion and
        the instant's deferred reallocation.  Ties resolve to the lowest row,
        i.e. the lowest flow id, and the transport re-arms after each
        completion, so tied flows fire one by one in flow-id order.  Flows in
        ``spent`` fired and no-op'd since the last reallocation; they are
        skipped until it re-arms them.
        """
        finish = self.finish
        if spent:
            finish = array("d", finish)
            for flow_id in spent:
                finish[self._row_of_flow[flow_id]] = _INF
        best = min(finish, default=_INF)
        if best == _INF:
            return None
        return self.row_flow_id[finish.index(best)], best

    def loads(self) -> Dict[ResourceKey, float]:
        """Per-resource load ``sum(rate × work)`` over live flows, in flow-id order."""
        sums: Dict[int, float] = {}
        for row in self._row_of_flow.values():
            rate, start, stop = self.rate[row], self.row_ptr[row], self.row_ptr[row + 1]
            for col, work in zip(self.entry_col[start:stop], self.entry_work[start:stop]):
                sums[col] = sums.get(col, 0.0) + rate * work
        return {self.col_keys[col]: load for col, load in sums.items() if load > 0.0}


class NumpyFlowPack(FlowPack):
    """:class:`FlowPack` with numpy kernels (the ``vectorized`` allocator)."""

    def __init__(self, capacity_of: Callable[[ResourceKey], float]) -> None:
        import numpy  # noqa: F401 -- fail at construction, not mid-run

        super().__init__(capacity_of)

    def _entry_rows(self) -> Any:
        """Each entry's row index, expanded from ``row_ptr``."""
        import numpy as np

        return np.repeat(np.arange(len(self.active)), np.diff(np.frombuffer(self.row_ptr, dtype=np.int64)))

    def max_min_rates(self, saturation_eps: float) -> Any:
        """Progressive filling as whole-array passes, bitwise-equal to the base.

        Per round: sum per-column demand over the unfrozen entries with
        ``bincount`` (sequential, flow-id order), take the min ``cap_left /
        denom`` bottleneck delta (min over floats is order-independent), add
        it to the running level, charge every contended column, and freeze
        the member rows of columns that crossed the saturation epsilon at
        that level.  The entry arrays shrink to unfrozen rows as they freeze;
        a dropped entry would have added an exact +0.0 to its column's
        partial sum.
        """
        import numpy as np

        alive = np.frombuffer(self.active, dtype=np.bool_).copy()
        rates = np.zeros(alive.shape[0])
        if not alive.any():
            return rates
        cap_left = np.frombuffer(self.col_cap).copy()
        n_cols = cap_left.shape[0]
        erow = self._entry_rows()
        keep = alive[erow]
        erow = erow[keep]
        ecol = np.frombuffer(self.entry_col, dtype=np.int64)[keep]
        ework = np.frombuffer(self.entry_work)[keep]
        level = 0.0
        while True:
            denom = np.bincount(ecol, weights=ework, minlength=n_cols)
            contended = denom > 0.0
            if not contended.any():
                level += 1.0
                break
            best_delta = float((cap_left[contended] / denom[contended]).min())
            level += best_delta
            cap_left[contended] -= best_delta * denom[contended]
            saturated = contended & (cap_left <= saturation_eps)
            if not saturated.any():
                break
            frozen = erow[saturated[ecol]]
            alive[frozen] = False
            rates[frozen] = level
            if not alive.any():
                break
            keep = alive[erow]
            erow = erow[keep]
            ecol = ecol[keep]
            ework = ework[keep]
        rates[alive] = level
        return rates

    def set_finish_times(self, now: float, completion_eps: float) -> None:
        """The base finish-time pass, elementwise over the rows."""
        import numpy as np

        remaining = np.frombuffer(self.remaining)
        rate = np.frombuffer(self.rate)
        with np.errstate(divide="ignore", invalid="ignore"):
            finish = now + remaining / rate
        finish = np.where(remaining <= completion_eps, now, finish)
        finish = np.where((rate <= 0.0) & (remaining > completion_eps), np.inf, finish)
        finish = np.maximum(finish, np.frombuffer(self.start_us) + np.frombuffer(self.floor_us))
        np.frombuffer(self.finish)[:] = np.where(
            np.frombuffer(self.active, dtype=np.bool_), finish, np.inf
        )

    def store_rates(self, rates: Any) -> List[int]:
        """The base store as array passes.  ``np.add.at`` applies the
        per-entry ``delta × work`` terms to ``kind_rate`` one by one in entry
        order; an unchanged row's entries add an exact 0.0."""
        import numpy as np

        old = np.frombuffer(self.rate)
        changed = np.nonzero(rates != old)[0]
        if changed.size:
            entry_col = np.frombuffer(self.entry_col, dtype=np.int64)
            terms = (rates - old)[self._entry_rows()]
            terms *= np.frombuffer(self.entry_work)
            kind_rate = np.array(self.kind_rate)
            np.add.at(kind_rate, np.frombuffer(self.col_kind, dtype=np.int64)[entry_col], terms)
            self.kind_rate = kind_rate.tolist()
            old[changed] = rates[changed]
        return changed.tolist()

    def advance(self, elapsed: float) -> None:
        """The base advance over whole arrays (a rate-0 row stays put)."""
        import numpy as np

        remaining = np.frombuffer(self.remaining)
        np.maximum(remaining - np.frombuffer(self.rate) * elapsed, 0.0, out=remaining)
