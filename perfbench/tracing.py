"""Spans around the program's public layer boundaries, recorded from outside.

The benchmark never edits the program to trace it.  ``install`` replaces
each boundary function listed in ``BOUNDARIES`` with a wrapper that
records one span — (name, start, end, parent) — in flat in-memory
arrays.  ``layer_metrics`` turns the spans into per-layer self time
(a span's duration minus the part its child spans cover) and counts.

A function imported by name (``from repro.crypto.rsa import
generate_keypair``) is a second reference that patching the defining
module does not reach, so ``install`` replaces it in every loaded
``repro`` module that holds it; modules loaded later import the wrapper.
The counter cross-checks in ``world.py`` fail if a reference is missed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

#: (span name, module, attribute path).  The attribute path is
#: ``function`` or ``Class.method``; ``Class.*method`` entries expand to
#: every subclass that defines the method itself.
BOUNDARIES: List[Tuple[str, str, str]] = [
    # pki: identity provisioning (keygen, key-cache loads, sign-up)
    ("pki.generate_keypair", "repro.crypto.rsa", "generate_keypair"),
    ("pki.pool_get", "repro.pki.provisioning", "KeypairPool.get"),
    ("pki.provision_user", "repro.pki.provisioning", "provision_user"),
    # crypto: RSA and the per-link session cipher
    ("crypto.rsa", "repro.crypto.rsa", "RsaPrivateKey.sign"),
    ("crypto.rsa", "repro.crypto.rsa", "RsaPrivateKey.decrypt"),
    ("crypto.rsa", "repro.crypto.rsa", "RsaPublicKey.verify"),
    ("crypto.rsa", "repro.crypto.rsa", "RsaPublicKey.encrypt"),
    ("crypto.session", "repro.crypto.session", "SecureChannel.encrypt"),
    ("crypto.session", "repro.crypto.session", "SecureChannel.decrypt"),
    # mobility, geo, net: the contact tick
    ("mobility.positions_at", "repro.mobility.base", "MobilityModel.*positions_at"),
    ("geo.update_many", "repro.geo.spatial_index", "SpatialHashIndex.update_many"),
    ("geo.pairs_within", "repro.geo.spatial_index", "SpatialHashIndex.pairs_within"),
    ("net.tick", "repro.net.medium", "Medium.tick"),
    # mpc: simulated Multipeer Connectivity
    ("mpc.transfer", "repro.mpc.framework", "MpcFramework.transfer"),
    ("mpc.invite", "repro.mpc.framework", "MpcFramework.invite"),
    ("mpc.complete_invitation", "repro.mpc.framework", "MpcFramework.complete_invitation"),
    # core: the SOS middleware (ad hoc manager, message manager, routing)
    ("core.adhoc", "repro.core.adhoc", "AdHocManager.send_packet"),
    ("core.adhoc", "repro.core.adhoc", "AdHocManager.session_received_data"),
    ("core.adhoc", "repro.core.adhoc", "AdHocManager.session_peer_connected"),
    ("core.adhoc", "repro.core.adhoc", "AdHocManager.session_peer_disconnected"),
    ("core.adhoc", "repro.core.adhoc", "AdHocManager.browser_found_peer"),
    ("core.adhoc", "repro.core.adhoc", "AdHocManager.advertiser_received_invitation"),
    ("core.router", "repro.core.message_manager", "MessageManager.connect"),
    ("core.router", "repro.core.message_manager", "MessageManager.request_messages"),
    ("core.router", "repro.core.message_manager", "MessageManager.send_message"),
    ("core.router", "repro.core.message_manager", "MessageManager.send_control"),
    ("core.router", "repro.core.routing.base", "RoutingProtocol.*on_peer_discovered"),
    ("core.router", "repro.core.routing.base", "RoutingProtocol.*on_peer_secured"),
    ("core.router", "repro.core.routing.base", "RoutingProtocol.*on_peer_lost"),
    ("core.router", "repro.core.routing.base", "RoutingProtocol.*on_message_received"),
    ("core.router", "repro.core.routing.base", "RoutingProtocol.*on_control"),
    # alleyoop: the app and its cloud
    ("alleyoop.app", "repro.alleyoop.app", "AlleyOopApp.__init__"),
    ("alleyoop.app", "repro.alleyoop.app", "AlleyOopApp.start"),
    ("alleyoop.app", "repro.alleyoop.app", "AlleyOopApp.post"),
    ("alleyoop.app", "repro.alleyoop.app", "AlleyOopApp.follow"),
    ("alleyoop.app", "repro.alleyoop.app", "AlleyOopApp.follow_many"),
    ("alleyoop.app", "repro.alleyoop.app", "AlleyOopApp.try_cloud_sync"),
    ("alleyoop.app", "repro.alleyoop.app", "AlleyOopApp.sos_message_received"),
    ("alleyoop.sync_batch", "repro.alleyoop.cloud", "CloudService.sync_batch"),
    # social, sim, metrics
    ("social.make_social_graph", "repro.social.generators", "make_social_graph"),
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    ("sim.emit", "repro.sim.trace", "TraceRecorder.emit"),
    ("metrics.collect", "repro.metrics.collector", "TraceCollector.__init__"),
    ("metrics.delay", "repro.metrics.delay", "DelayAnalysis.from_collector"),
    ("metrics.delivery", "repro.metrics.delivery", "DeliveryAnalysis.from_collector"),
    # the outermost spans: their self time is the unattributed remainder
    ("study.build", "repro.experiments.gainesville", "GainesvilleStudy.build"),
    ("study.run", "repro.experiments.gainesville", "GainesvilleStudy.run"),
]

#: Spans whose self time no layer owns (``sim.run`` self time is the
#: event loop plus every callback no boundary wraps).
OUTERMOST = ("study.build", "study.run", "sim.run")

#: Per-layer self-time metrics: metric name -> span names it sums.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "pki.keygen_s": ("pki.generate_keypair", "pki.pool_get", "pki.provision_user"),
    "crypto.rsa_s": ("crypto.rsa",),
    "crypto.session_s": ("crypto.session",),
    "mobility.positions_s": ("mobility.positions_at",),
    "geo.update_s": ("geo.update_many",),
    "geo.sweep_s": ("geo.pairs_within",),
    "net.linkdiff_s": ("net.tick",),
    "mpc.transfer_s": ("mpc.transfer", "mpc.invite", "mpc.complete_invitation"),
    "core.adhoc_s": ("core.adhoc",),
    "core.router_s": ("core.router",),
    "alleyoop.app_s": ("alleyoop.app",),
    "alleyoop.sync_s": ("alleyoop.sync_batch",),
    "social.graph_s": ("social.make_social_graph",),
    "sim.loop_s": ("sim.run",),
    "sim.trace_emit_s": ("sim.emit",),
    "metrics.analysis_s": ("metrics.collect", "metrics.delay", "metrics.delivery"),
}

#: Span-count metrics: metric name -> span name counted.
SPAN_COUNT_METRICS: Dict[str, str] = {
    "pki.keys_generated": "pki.generate_keypair",
    "crypto.rsa_ops": "crypto.rsa",
    "crypto.frames": "crypto.session",
    "mobility.queries": "mobility.positions_at",
    "net.ticks": "net.tick",
    "mpc.transfers": "mpc.transfer",
    "mpc.invitations": "mpc.invite",
    "alleyoop.sync_calls": "alleyoop.sync_batch",
    "sim.trace_events": "sim.emit",
}


class SpanRecorder:
    """Flat in-memory span store; one open-span stack (single thread)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = []
        #: Last return value of ``Simulator.run`` (events executed).
        self.sim_events = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        sid = self._ids.setdefault(name, len(self._ids))
        if sid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        open_stack = self._open
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        keep_result = name == "sim.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(sid)
            parent.append(open_stack[-1] if open_stack else -1)
            end.append(0.0)
            open_stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                open_stack.pop()
            if keep_result:
                self.sim_events = result
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per span name: total self time (s) and span count."""
        child = [0.0] * len(self.start)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[index] - self.start[index]
        totals = [0.0] * len(self.names)
        counts = [0] * len(self.names)
        for index, sid in enumerate(self.name_id):
            totals[sid] += self.end[index] - self.start[index] - child[index]
            counts[sid] += 1
        return dict(zip(self.names, totals)), dict(zip(self.names, counts))

    def write_tsv(self, path: str) -> None:
        """One line per span: index, name, start, end, parent index."""
        with open(path, "w") as handle:
            handle.write("index\tname\tstart\tend\tparent\n")
            for index, sid in enumerate(self.name_id):
                handle.write(
                    f"{index}\t{self.names[sid]}\t{self.start[index]!r}\t"
                    f"{self.end[index]!r}\t{self.parent[index]}\n"
                )


def _subclasses(cls: type) -> List[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _patch_method(recorder: SpanRecorder, cls: type, attr: str, name: str) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(recorder.wrap(name, raw.__func__)))
    else:
        setattr(cls, attr, recorder.wrap(name, raw))


def install(recorder: SpanRecorder) -> None:
    """Wrap every boundary before the program builds anything.

    Subclass hooks are expanded after importing the routing registry and
    mobility models, so every concrete class that exists is covered.
    """
    importlib.import_module("repro.core.routing.registry")
    importlib.import_module("repro.mobility")
    importlib.import_module("repro.experiments.gainesville")
    for name, module_name, path in BOUNDARIES:
        module = importlib.import_module(module_name)
        if "." not in path:
            original = getattr(module, path)
            wrapped = recorder.wrap(name, original)
            for holder in list(sys.modules.values()):
                holder_name = getattr(holder, "__name__", "")
                if holder_name.split(".")[0] == "repro" and vars(holder).get(path) is original:
                    setattr(holder, path, wrapped)
            continue
        class_name, attr = path.split(".")
        cls = getattr(module, class_name)
        if attr.startswith("*"):
            attr = attr[1:]
            for sub in _subclasses(cls):
                if attr in sub.__dict__:
                    _patch_method(recorder, sub, attr, name)
        else:
            _patch_method(recorder, cls, attr, name)


def layer_metrics(recorder: SpanRecorder) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """(self-time metrics, span counts by span name, covered seconds).

    Covered seconds are the self time of every span except the outermost
    ones in ``OUTERMOST``.
    """
    totals, counts = recorder.self_times()
    times = {
        metric: sum(totals.get(span, 0.0) for span in spans)
        for metric, spans in SELF_TIME_METRICS.items()
    }
    covered = sum(t for span, t in totals.items() if span not in OUTERMOST)
    return times, counts, covered
