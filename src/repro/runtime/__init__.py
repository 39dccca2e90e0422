"""Experiment runtime: wiring topologies, MAC layers, and algorithms.

:func:`~repro.runtime.runner.run_standard` runs a standard-model MMB
execution to quiescence and returns a :class:`~repro.runtime.results.RunResult`
with completion times, per-message latencies, broadcast counts, and the
instance log (for axiom certification).  FMMB has its own entry point in
:mod:`repro.core.fmmb` because it runs on the slotted-rounds substrate.

:mod:`~repro.runtime.observations` defines the typed observation stream
(:class:`Observation`/:class:`Probe`, stored as an
:class:`ObservationStream` of columns) every execution substrate emits
through; :mod:`~repro.runtime.trace` converts its MAC-event subset into
archivable chronological traces.
"""

from repro.runtime.observations import (
    OBSERVATION_KINDS,
    Observation,
    ObservationStream,
    Probe,
)
from repro.runtime.results import DeliveryLog, RunResult
from repro.runtime.runner import run_standard
from repro.runtime.validate import required_deliveries, solved

__all__ = [
    "DeliveryLog",
    "RunResult",
    "run_standard",
    "solved",
    "required_deliveries",
    "Observation",
    "ObservationStream",
    "Probe",
    "OBSERVATION_KINDS",
]
