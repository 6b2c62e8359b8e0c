"""The per-device reference engine (the seed algorithm).

Kept deliberately naive — this is the oracle the batched engine is
verified against (identical contact traces) and benchmarked over.  It
performs its own pair-set rediff rather than going through
``Medium._apply_candidates``: re-resolving the radio per tick and
skipping powered-off devices at query time is exactly the seed
behaviour the batched engine must reproduce from the outside.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.medium import Medium

from repro.net.contact import pair_key
from repro.net.medium_engines.base import ContactEngine
from repro.net.radio import RadioProfile, best_common_radio


class PerDeviceEngine(ContactEngine):
    """Per-device spatial queries, pair-set rediff."""

    name = "per-device"

    def tick(self, now: float) -> None:
        medium = self.medium
        index = medium._index
        devices = medium.devices
        # Registry order cannot reach the trace: each iteration updates
        # an independent per-device index entry; the pair sweep below
        # reads the completed index and every engine emits link events
        # in sorted pair order.
        for device in devices.values():
            index.update(device.device_id, device.position_at(now))

        desired: Dict[Tuple[str, str], RadioProfile] = {}
        seen: Set[Tuple[str, str]] = set()
        sweep = medium._max_range * medium.hysteresis
        for device_id, device in devices.items():
            if not device.powered_on:
                continue
            position = index.position_of(device_id)
            for other_id in index.within(position, sweep, exclude=device_id):
                key = pair_key(device_id, other_id)
                if key in seen:
                    continue
                seen.add(key)
                medium.pairs_examined += 1
                other = devices[other_id]
                if not other.powered_on:
                    continue
                radio = best_common_radio(devices[key[0]].radios, devices[key[1]].radios)
                if radio is None:
                    continue
                # Squared-distance compares with the exact arithmetic of
                # pairs_within, so the engines agree even when a pair
                # lands within a rounding error of a range threshold.
                other_position = index.position_of(other_id)
                dx = position.x - other_position.x
                dy = position.y - other_position.y
                d2 = dx * dx + dy * dy
                active = medium._linked.get(key)
                if active is not None:
                    # Existing link survives out to the hysteresis margin
                    # of the radio it was *raised* on — not whatever the
                    # best common technology happens to resolve to now.
                    limit = active.range_m * medium.hysteresis
                    if d2 <= limit * limit:
                        desired[key] = active
                else:
                    reach = radio.range_m
                    if d2 <= reach * reach:
                        desired[key] = radio

        for key in sorted(k for k in medium._linked if k not in desired):
            medium._drop_link(key)
        for key in sorted(k for k in desired if k not in medium._linked):
            medium._raise_link(key, desired[key])
