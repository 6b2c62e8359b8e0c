"""Contact-detection engines.

:class:`~repro.net.medium.Medium` owns the *link state* of the
simulation — which pairs are connected, with which radio, and the
sorted-order trace emission discipline that keeps runs byte-identical.
*How* the candidate pair set is produced each tick is an engine
concern, and two engines implement the same contract:

* :class:`~repro.net.medium_engines.per_device.PerDeviceEngine` — the
  seed algorithm: one radius query per device, pair-set rediff.  Kept
  deliberately naive as the reference oracle.
* :class:`~repro.net.medium_engines.batched.BatchedEngine` — one
  mobility pass, one population-wide spatial pair sweep, incremental
  link diff (the default).

The contract that makes them interchangeable: an engine's ``tick`` must
hand :meth:`Medium._apply_candidates` the exact geometric candidate set
``{(a, b, d²) : distance(a, b) <= min(reach_a, reach_b)}``, each pair
exactly once, with ``d²`` computed by the shared
``SpatialHashIndex.pairs_within`` arithmetic.  Everything order- or
process-sensitive (link diff, hysteresis, next-check scheduling, trace
emission) lives in ``Medium`` and runs identically for both, which is
why traces are byte-identical across engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.medium_engines.base import ContactEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.medium import Medium

__all__ = ["ContactEngine", "resolve_engine"]


def resolve_engine(medium: "Medium", batched: bool) -> ContactEngine:
    """The batched engine, or the per-device reference path when
    ``batched`` is false."""
    if batched:
        from repro.net.medium_engines.batched import BatchedEngine

        return BatchedEngine(medium)
    from repro.net.medium_engines.per_device import PerDeviceEngine

    return PerDeviceEngine(medium)
