"""Per-layer attribution for the traced run (``--trace 1``).

The benchmark changes nothing under ``src/``.  It measures each layer from
outside: :class:`LayerTimer` replaces public entry points with wrappers
that time every call and count the bytes it handles, and the program's own
telemetry (registry counters, ``trace_span`` trees, the daemon's
``--telemetry-json`` snapshot) supplies the counts it already keeps.

Times are *self* times: a wrapped call's duration minus the time of the
wrapped calls it made, so a CRC computed inside a chunk-log append is
charged to ``crc`` and not also to ``chunk_log``.  A wrapped entry point
that no longer exists raises :class:`MissingEntryPoint` before the run
starts, so a refactor cannot silently zero a layer.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, Iterable, List, Optional


class MissingEntryPoint(RuntimeError):
    """A layer entry point the traced run wraps is gone."""


class _Layer:
    __slots__ = ("calls", "seconds", "total", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0  # self time
        self.total = 0.0  # inclusive time
        self.bytes = 0


class LayerTimer:
    """Installs self-timing wrappers and keeps per-layer totals."""

    def __init__(self) -> None:
        self.layers: Dict[str, _Layer] = {}
        self._stack: List[float] = []  # child seconds accumulated per open frame
        self._undo: List[Callable[[], None]] = []
        #: Extra observations from wrapped calls' results.
        self.samples: Dict[str, List[float]] = {}

    def layer(self, name: str) -> _Layer:
        if name not in self.layers:
            self.layers[name] = _Layer()
        return self.layers[name]

    def wrap(
        self,
        module: str,
        attr: str,
        layer: str,
        size: Optional[Callable] = None,
        observe: Optional[Callable] = None,
    ) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``).

        ``size(args, kwargs)`` returns the bytes one call handles;
        ``observe(result, args)`` records extra samples from its result.
        """
        mod = importlib.import_module(module)
        owner = mod
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                raise MissingEntryPoint(f"{module}.{attr}")
        name = parts[-1]
        original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if original is None:
            raise MissingEntryPoint(f"{module}.{attr}")
        stats = self.layer(layer)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stats.calls += 1
                stats.seconds += elapsed - children
                stats.total += elapsed
                if stack:
                    stack[-1] += elapsed
            if size is not None:
                stats.bytes += size(args, kwargs)
            if observe is not None:
                observe(result, args)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, name, wrapper)
        self._undo.append(lambda: setattr(owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _arg_len(index: int) -> Callable:
    return lambda args, kwargs: len(args[index])


def install(timer: LayerTimer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    w = timer.wrap
    w("repro.chunking.cdc", "ContentDefinedChunker.cut_points", "chunking", size=_arg_len(1))
    # SHA-1 per chunk: ``chunks()`` resolves ``fingerprint`` in its module.
    w("repro.chunking.cdc", "fingerprint", "fingerprint")
    # CRC32C is imported by name into each framing user.
    for module in ("repro.durability.framing", "repro.storage.container", "repro.core.disk_index"):
        w(module, "crc32c", "crc", size=_arg_len(0))
    w("repro.storage.chunk_log", "PersistentChunkLog.append", "chunk_log")
    w("repro.core.tpds", "TwoPhaseDeduplicator.dedup1_backup", "dedup1")
    w("repro.core.sil", "SequentialIndexLookup.run", "sil")
    w("repro.core.siu", "SequentialIndexUpdate.run", "siu")

    w("repro.storage.container", "ContainerManager.store", "store")
    w("repro.storage.container", "ContainerManager.fetch", "container_fetch")

    def lpc(result, args):
        timer.samples.setdefault("lpc", []).append(0.0 if result is None else 1.0)

    w("repro.storage.lpc", "LocalityPreservedCache.lookup", "lpc", observe=lpc)
    w("repro.system.vault", "DebarVault.__init__", "vault_open")
    w("repro.backend.lifecycle", "LifecycleManager.migrate", "migrate")

    def reclaimed(report, args):
        timer.samples.setdefault("gc_bytes", []).append(float(report.bytes_reclaimed))

    w("repro.system.vault", "DebarVault.gc", "gc", observe=reclaimed)
    w("repro.net.client", "NetClient.call", "net_call")
    w("repro.net.client", "NetClient.call_many", "net_call_many")


# -- snapshot readers ---------------------------------------------------------------
def _samples(snapshot: dict, name: str) -> Iterable[dict]:
    for family in snapshot.get("metrics", []):
        if family["name"] == name:
            yield from family["samples"]


def counter_total(snapshot: dict, name: str, **match: str) -> float:
    return sum(
        s.get("value", 0.0)
        for s in _samples(snapshot, name)
        if all(s["labels"].get(k) == v for k, v in match.items())
    )


def histogram_mean(snapshot: dict, name: str) -> float:
    count = sum(s["count"] for s in _samples(snapshot, name))
    return sum(s["sum"] for s in _samples(snapshot, name)) / count if count else 0.0


def span_totals(snapshot: dict) -> Dict[str, Dict[str, float]]:
    """name -> {"wall": seconds, "sim": seconds, "count": n} over a trace forest."""
    out: Dict[str, Dict[str, float]] = {}

    def walk(span: dict) -> None:
        t = out.setdefault(span["name"], {"wall": 0.0, "sim": 0.0, "count": 0})
        t["wall"] += span.get("wall_seconds", 0.0)
        t["sim"] += span.get("sim_seconds", 0.0) or 0.0
        t["count"] += 1
        for child in span.get("children", []):
            walk(child)

    for root in snapshot.get("traces", []):
        walk(root)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    timer: LayerTimer,
    program: dict,
    *,
    net_logical_bytes: int,
    catalog_bytes: int,
    daemon: Optional[dict] = None,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``program`` is the in-process telemetry snapshot.  ``daemon`` holds the
    serving daemons' ``--telemetry-json`` counters and spans (serve
    workload only); server-side counts are read from it, since the layers
    they count ran there.
    """
    get = timer.layer
    counts = daemon if daemon is not None else program
    spans = span_totals(program)
    server = span_totals(daemon) if daemon is not None else {}
    chunking, crc = get("chunking"), get("crc")
    lookups = counter_total(counts, "prefilter.hits") + counter_total(counts, "prefilter.misses")
    meta = counter_total(counts, "storage.meta_cache_hits") + counter_total(counts, "storage.meta_cache_misses")
    lpc = timer.samples.get("lpc", [])
    wire = counter_total(program, "net.bytes_sent") + counter_total(program, "net.bytes_received")
    opens = get("vault_open")
    backup = server.get("backup") if daemon is not None else spans.get("backup")
    return {
        "chunking.s": chunking.seconds,
        "chunking.MBps": _ratio(chunking.bytes / 1e6, chunking.seconds),
        "fingerprint.s": get("fingerprint").seconds,
        "crc.s": crc.seconds,
        "crc.MBps": _ratio(crc.bytes / 1e6, crc.seconds),
        "chunk_log.append_s": get("chunk_log").seconds,
        "chunk_log.bytes": counter_total(counts, "chunk_log.bytes_appended"),
        "prefilter.hit_ratio": _ratio(counter_total(counts, "prefilter.hits"), lookups),
        "dedup1.s": get("dedup1").seconds,
        "sil.s": get("sil").seconds,
        "siu.s": get("siu").seconds,
        "sil.duplicates": counter_total(counts, "sil.duplicates"),
        "index.capacity_scalings": counter_total(counts, "index.capacity_scalings"),
        "store.s": get("store").seconds,
        "container.sealed": counter_total(counts, "container.sealed"),
        "container.fill_mean": histogram_mean(counts, "container.fill_fraction"),
        "catalog.s": spans.get("catalog", {}).get("wall", 0.0),
        "catalog.bytes": float(catalog_bytes),
        "vault.open_s": _ratio(opens.total, opens.calls),
        "restore.lpc_hit_ratio": (sum(lpc) / len(lpc)) if lpc else 0.0,
        "restore.container_fetches": float(get("container_fetch").calls),
        "cold.get_requests": counter_total(counts, "storage.batched_gets", backend="object")
        + counter_total(counts, "storage.single_gets", backend="object"),
        "cold.sim_s": counter_total(counts, "storage.simulated_seconds"),
        "cold.meta_cache_hit_ratio": _ratio(counter_total(counts, "storage.meta_cache_hits"), meta),
        "migrate.s": get("migrate").total,
        "gc.s": get("gc").total,
        "gc.bytes_reclaimed": sum(timer.samples.get("gc_bytes", [])),
        "net.requests": counter_total(program, "net.requests"),
        "net.wire_bytes_per_logical": _ratio(wire, net_logical_bytes),
        "net.call_s": get("net_call").total + get("net_call_many").total,
        "server.dedup1_s": server.get("dedup1", {}).get("wall", 0.0),
        "server.dedup2_s": server.get("dedup2", {}).get("wall", 0.0),
        "server.catalog_s": server.get("catalog", {}).get("wall", 0.0),
        "backup.wall_s": (backup or {}).get("wall", 0.0),
        "backup.sim_s": (backup or {}).get("sim", 0.0),
    }


#: Unit of every per-layer metric, in the order BENCHMARK.json lists them.
UNITS = {
    "chunking.s": "s", "chunking.MBps": "MB/s", "fingerprint.s": "s",
    "crc.s": "s", "crc.MBps": "MB/s", "chunk_log.append_s": "s",
    "chunk_log.bytes": "B", "prefilter.hit_ratio": "ratio", "dedup1.s": "s",
    "sil.s": "s", "siu.s": "s", "sil.duplicates": "count",
    "index.capacity_scalings": "count", "store.s": "s", "container.sealed": "count",
    "container.fill_mean": "ratio", "catalog.s": "s", "catalog.bytes": "B",
    "vault.open_s": "s", "restore.lpc_hit_ratio": "ratio",
    "restore.container_fetches": "count", "cold.get_requests": "count",
    "cold.sim_s": "s", "cold.meta_cache_hit_ratio": "ratio", "migrate.s": "s",
    "gc.s": "s", "gc.bytes_reclaimed": "B", "net.requests": "count",
    "net.wire_bytes_per_logical": "B/B", "net.call_s": "s",
    "server.dedup1_s": "s", "server.dedup2_s": "s", "server.catalog_s": "s",
    "backup.wall_s": "s", "backup.sim_s": "s",
}
