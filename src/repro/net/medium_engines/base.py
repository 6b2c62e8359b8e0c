"""The engine protocol every contact-detection implementation honours.

See the package docstring for the exchangeability contract.  Engines
are strategy objects owned by one :class:`~repro.net.medium.Medium`;
they may read the medium's registries (devices, reaches, radio classes)
but all link state and trace emission stays on the medium.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.device import Device
    from repro.net.medium import Medium


class ContactEngine:
    """Produces each tick's candidate pair set for one medium."""

    #: Human-readable engine name (bench tables, repr).
    name = "abstract"

    def __init__(self, medium: "Medium") -> None:
        self.medium = medium

    # -- population change notifications ----------------------------------------
    def device_added(self, device: "Device") -> None:
        """Called after ``device`` is registered with the medium."""

    def device_removed(self, device_id: str) -> None:
        """Called after ``device_id`` is deregistered from the medium."""

    # -- lifecycle ----------------------------------------------------------------
    def tick(self, now: float) -> None:
        """Advance mobility and feed the candidate set to
        ``Medium._apply_candidates`` (or perform an equivalent diff)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
