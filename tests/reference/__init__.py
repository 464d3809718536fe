"""Reference implementations: code replaced in place under ``src/``, kept
as the oracle the production path is compared against (ROADMAP item 2).

Residents:

* :mod:`reference.admission` — the repair engine's scan-every-violation
  admission (``ScanAdmissionManager``), oracle of the candidate-driven
  :meth:`repro.repair.engine.ArchitectureManager.evaluate`;
* :mod:`reference.evaluator` — the tree-walking constraint interpreter
  (``Evaluator``), oracle of :mod:`repro.constraints.compile`;
* :mod:`reference.bus` — the linear subscription scan (``LinearIndex``),
  oracle of :class:`repro.bus.index.SubjectTrie`, and the per-message
  dispatch (``per_message_dispatch``, installed by
  ``per_message_buses``), oracle of :func:`repro.bus.bus.queue_messages`;
* :mod:`reference.gauges` — the per-item gauge tick (``per_item_tick``,
  installed by ``per_item_ticks``), oracle of the whole-run
  :meth:`repro.monitoring.gauges.Gauge._tick`;
* :mod:`reference.kernel` — the ``(time, seq)`` event heap
  (``HeapKernel``) and the pacing loop over it (``PacedHeapKernel``),
  oracles of :class:`repro.sim.kernel.Simulator` and
  :class:`repro.realtime.scheduler.RealtimeScheduler`;
* :mod:`reference.sharding` — the partition that rebuilt every element
  (``rebuild_partition``), oracle of
  :meth:`repro.acme.sharding.ShardedArchSystem.partition`;
* :mod:`reference.updater` — the client/server gauge consumer
  (``ModelUpdater``), oracle of the fan-out map of
  :class:`repro.runtime.updater.PropertyUpdater`.

``tests/`` is on ``sys.path`` under pytest, so tests import this package
as ``reference``.
"""

from reference.admission import ScanAdmissionManager
from reference.bus import (
    LinearIndex,
    linear_bus,
    per_message_buses,
    per_message_dispatch,
)
from reference.evaluator import (
    Evaluator,
    ReferenceProgram,
    evaluate_agreed,
    reference_check_all,
)
from reference.gauges import per_item_tick, per_item_ticks
from reference.kernel import HeapKernel, PacedHeapKernel
from reference.sharding import rebuild_partition
from reference.updater import ModelUpdater

__all__ = [
    "Evaluator",
    "HeapKernel",
    "LinearIndex",
    "ModelUpdater",
    "PacedHeapKernel",
    "ReferenceProgram",
    "ScanAdmissionManager",
    "evaluate_agreed",
    "linear_bus",
    "per_message_buses",
    "per_message_dispatch",
    "per_item_tick",
    "per_item_ticks",
    "rebuild_partition",
    "reference_check_all",
]
