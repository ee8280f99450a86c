"""Queue purifier model (paper Section 5.1, Figure 14).

A naive tree purifier needs ``2**n - 1`` hardware purifiers for a depth-``n``
tree.  The paper's queue purifier instead keeps one queue per tree level:
incoming raw pairs are purified pairwise at level 0, survivors move to the
level-1 queue, and so on; a depth-``n`` tree needs only ``n`` purifier units,
failed rounds simply shrink the affected queue, and movement between levels is
minimal.  The price is latency: rounds at a level are serialised.

Two views are provided:

* :class:`QueuePurifierModel` — closed-form throughput/latency/served-rounds
  numbers used by the flow simulator and the ablation benchmarks;
* :class:`QueuePurifier` — an event-driven process on a
  :class:`~repro.sim.engine.SimulationEngine` that consumes raw pairs and
  emits good pairs, used by the detailed channel simulation and the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, List, Optional

from ..errors import ConfigurationError
from ..physics.parameters import IonTrapParameters
from ..physics.purification import PurificationProtocol
from ..physics.states import BellDiagonalState
from ..trace.records import PurificationMilestone
from .engine import SimulationEngine
from .resources import ServiceCenter


@dataclass(frozen=True)
class QueuePurifierModel:
    """Closed-form behaviour of a bank of queue purifiers.

    Attributes
    ----------
    units:
        Number of hardware purifier units available (the *p* of Figure 16).
    depth:
        Purification tree depth each good pair must climb.
    round_time_us:
        Duration of one purification round (Table 1's ~121 us plus any
        classical round trip, which the caller folds in).
    success_probability:
        Per-round success probability; 1.0 reproduces the paper's idealised
        ``2**n`` accounting, smaller values add the expected-yield overhead.
    """

    units: int = 1
    depth: int = 3
    round_time_us: float = 121.0
    success_probability: float = 1.0

    def __post_init__(self) -> None:
        if self.units < 1:
            raise ConfigurationError(f"units must be >= 1, got {self.units}")
        if self.depth < 0:
            raise ConfigurationError(f"depth must be >= 0, got {self.depth}")
        if self.round_time_us <= 0:
            raise ConfigurationError(f"round_time_us must be positive, got {self.round_time_us}")
        if not (0.0 < self.success_probability <= 1.0):
            raise ConfigurationError(
                f"success_probability must be in (0, 1], got {self.success_probability}"
            )

    @property
    def raw_pairs_per_good_pair(self) -> float:
        """Expected raw input pairs consumed per good output pair."""
        return (2.0 / self.success_probability) ** self.depth

    @property
    def rounds_per_good_pair(self) -> float:
        """Expected purification rounds executed per good output pair.

        A depth-``n`` binary tree has ``2**n - 1`` internal nodes; failed
        rounds inflate the count by the inverse success probability per level.
        """
        if self.depth == 0:
            return 0.0
        # Working backward from the single output pair: producing one pair at
        # tree level j+1 takes 1/s expected rounds at level j, each consuming
        # two level-j pairs, so level j executes (2/s)**(depth-1-j) / s
        # expected rounds per good output pair.
        total = 0.0
        ratio = 2.0 / self.success_probability
        for j in range(self.depth):
            total += (ratio ** (self.depth - 1 - j)) / self.success_probability
        return total

    @property
    def good_pair_period_us(self) -> float:
        """Steady-state time between good pairs from one bank of ``units``."""
        return self.rounds_per_good_pair * self.round_time_us / self.units

    @property
    def pipeline_latency_us(self) -> float:
        """Latency for the first good pair once raw pairs stream in."""
        return self.depth * self.round_time_us

    def throughput_per_us(self) -> float:
        """Good pairs produced per microsecond in steady state."""
        if self.depth == 0:
            return float("inf")
        return 1.0 / self.good_pair_period_us

    def hardware_units_naive_tree(self) -> int:
        """Hardware purifiers a naive tree implementation would need."""
        return max(2 ** self.depth - 1, 0)

    def time_to_produce(self, good_pairs: int) -> float:
        """Time to produce ``good_pairs`` outputs, including pipeline fill."""
        if good_pairs < 0:
            raise ConfigurationError(f"good_pairs must be non-negative, got {good_pairs}")
        if good_pairs == 0 or self.depth == 0:
            return 0.0
        return self.pipeline_latency_us + (good_pairs - 1) * self.good_pair_period_us


class QueuePurifier:
    """Event-driven queue purifier bank.

    Raw pairs are injected with :meth:`accept_raw_pair`; every time a pair
    climbs past the top level a good pair is emitted via ``on_good_pair``.
    The ``units`` purifier units are shared across levels through a single
    :class:`~repro.sim.resources.ServiceCenter`, matching the paper's design
    where a handful of units serve the whole queue structure.

    When ``input_state`` and ``protocol`` are given, the purifier additionally
    tracks the Bell-diagonal state of every queued pair and computes each
    round's outcome through the protocol's exact recurrence — the per-pair
    fidelity accounting the detailed transport backend reports.  The tracking
    is purely computational (no extra events), so the queueing dynamics are
    identical with it on or off.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        *,
        units: int = 1,
        depth: int = 3,
        params: Optional[IonTrapParameters] = None,
        on_good_pair: Optional[Callable[[], None]] = None,
        name: str = "queue_purifier",
        service: Optional[ServiceCenter] = None,
        input_state: Optional[BellDiagonalState] = None,
        protocol: Optional[PurificationProtocol] = None,
    ) -> None:
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        if (input_state is None) != (protocol is None):
            raise ConfigurationError(
                "fidelity tracking needs both input_state and protocol (or neither)"
            )
        self.engine = engine
        self.depth = depth
        self.params = params or IonTrapParameters.default()
        self.on_good_pair = on_good_pair
        self.name = name
        # ``service`` shares one bank of purifier units between several queue
        # structures — the multi-channel detailed backend runs one queue per
        # channel but every channel terminating at a node contends for that
        # node's ``p`` physical units.
        self._service = service if service is not None else ServiceCenter(
            engine, units, name=f"{name}.units"
        )
        self._round_us = self.params.times.purify_round(0.0)
        self._levels: List[int] = [0] * (depth + 1)
        self._good_pairs = 0
        self._rounds_executed = 0
        self._input_state = input_state
        self._protocol = protocol
        #: FIFO state queue per level, parallel to the ``_levels`` counters.
        self._level_states: Optional[List[Deque[BellDiagonalState]]] = (
            [deque() for _ in range(depth + 1)] if input_state is not None else None
        )
        self._good_pair_fidelities: List[float] = []

    # -- state -------------------------------------------------------------------

    @property
    def good_pairs_produced(self) -> int:
        return self._good_pairs

    @property
    def rounds_executed(self) -> int:
        return self._rounds_executed

    @property
    def level_occupancy(self) -> List[int]:
        """Pairs currently waiting at each level (level 0 = raw input)."""
        return list(self._levels)

    @property
    def service(self) -> ServiceCenter:
        return self._service

    @property
    def good_pair_fidelities(self) -> List[float]:
        """Fidelity of each emitted good pair (empty unless tracking states)."""
        return list(self._good_pair_fidelities)

    # -- operation ----------------------------------------------------------------

    def accept_raw_pair(self) -> None:
        """Inject one raw pair at level 0."""
        self._levels[0] += 1
        if self._level_states is not None:
            self._level_states[0].append(self._input_state)
        self._try_start_rounds()

    def _try_start_rounds(self) -> None:
        for level in range(self.depth):
            while self._levels[level] >= 2:
                self._levels[level] -= 2
                self._rounds_executed += 1
                out_state = None
                if self._level_states is not None:
                    # The outcome is a pure function of the two input states,
                    # so it is computed at submit time and merely delivered at
                    # round completion — no timing impact.
                    queue = self._level_states[level]
                    pair_a, pair_b = queue.popleft(), queue.popleft()
                    out_state = self._protocol.round(pair_a, pair_b).state
                self._service.submit(self._round_us, partial(self._round_done, level, out_state))

    def _round_done(self, level: int, state: Optional[BellDiagonalState] = None) -> None:
        self._levels[level + 1] += 1
        if self._level_states is not None and state is not None:
            self._level_states[level + 1].append(state)
        if level + 1 == self.depth:
            self._levels[level + 1] -= 1
            if self._level_states is not None:
                emitted = self._level_states[level + 1].popleft()
                self._good_pair_fidelities.append(emitted.fidelity)
            self._good_pairs += 1
            trace = self.engine.trace
            if trace is not None and trace.wants(PurificationMilestone.kind):
                trace.emit(
                    PurificationMilestone(
                        t_us=self.engine.now,
                        purifier=self.name,
                        good_pairs=self._good_pairs,
                        rounds_executed=self._rounds_executed,
                    )
                )
            if self.on_good_pair is not None:
                self.on_good_pair()
        self._try_start_rounds()
