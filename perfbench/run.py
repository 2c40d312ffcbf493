"""Wall-clock backup/restore benchmark of the DEBAR vault.

    python3 perfbench/run.py --workload daily-chain --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  A run repeats whole *rounds* of its
workload -- fresh inputs and a fresh vault each, every phase of the
workload in order -- while the next round is expected to end within
``--seconds``, so every phase is sampled across the whole run and a
faster program fits more rounds instead of timing shorter phases.
Rates and ``setup_s`` are scaled to a reference host speed measured
alongside by a fixed piece of the benchmark's own work (HostClock).

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` runs exactly
one round on a fixed amount of work with per-layer wrappers installed
(perfbench/layers.py) and prints every per-layer metric.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402  (the benchmark's own input generator)

#: Median CPU seconds of one HostClock sample on the reference host: every
#: rate and ``setup_s`` is scaled to a host of this speed.
CLOCK_REFERENCE_S = 2.0e-3
#: One clock sample per this many seconds of timed calls, and at least one
#: per call, so the samples weigh the host's speed by the time spent timing.
CLOCK_EVERY_S = 0.05
#: Clock samples after each restore pass, whose median scales that pass.
PASS_CLOCK_SAMPLES = 3
#: Wall seconds of restore passes per round, per phase (hot, cold).
RESTORE_SECONDS = 0.75
#: Setups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Restore passes per phase in the traced run: fixed work, so per-layer
#: counts repeat exactly between runs and between commits.
TRACE_PASSES = 3

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def now() -> float:
    return time.perf_counter()


class HostClock:
    """How fast the host runs, timed on fixed work of the benchmark's own.

    The measuring host is a share of a machine whose speed is not the
    benchmark's to hold: a fixed loop's median time moved by a third from
    one second to the next, and runs of the same code a few minutes apart
    differed by 60 %.  Every timed call is followed by samples of a fixed
    piece of work that touches nothing of the program, so a change to the
    program cannot move it: a pure-Python loop, SHA-256 and a NumPy pass
    over 64 KiB, and a JSON round trip of a catalog-shaped document --
    the kinds of work of chunking, CRC32C, fingerprinting and the catalog
    every vault open reads and writes.  A sample is the CPU seconds it
    took (``time.process_time``), so a sample that was descheduled does
    not count as a slow host.

    ``adjust()`` divides the CPU share of a call's wall time by the clock's
    slowdown against the reference and keeps the rest -- waiting on a
    socket's delayed ACK, on the disk, on the other process -- as
    measured.  Backups run throughout a round, each for tenths of a
    second, and are scaled by the clock's median over the run.  Restore
    passes last tens of milliseconds and run in blocks at fixed points of
    a round, so the run's median does not describe the host while they
    ran; each pass is scaled by the median of the ``PASS_CLOCK_SAMPLES``
    samples right after it.  Kernel CPU time is scaled by the same
    clock: a fixed file rewrite timed as a kernel clock spread 11-42 %
    between runs, more than the restores it was meant to steady.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = random.Random(0)
        self.data = rng.randbytes(64 * 1024)
        self.doc = {"runs": [{"run_id": r, "files": [
            {"path": f"docs/f{i:02d}.bin", "size": 40960, "mode": 33188,
             "fingerprints": [rng.randbytes(20).hex() for _ in range(5)]} for i in range(8)]}
            for r in range(4)]}
        self.samples: List[float] = []

    def sample(self) -> float:
        np, data = self.np, self.data
        t0 = time.process_time()
        acc = 0
        for i in range(0, len(data), 16):
            acc = (acc * 31 + data[i]) & 0xFFFFFFFF
        parts = [data[i:i + 4096] for i in range(0, len(data), 4096)]
        hashlib.sha256(b"".join(reversed(parts))).digest()
        arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
        int((arr * acc % 65521).sum())
        json.loads(json.dumps(self.doc, indent=1))
        self.samples.append(time.process_time() - t0)
        return self.samples[-1]

    def slowdown(self, samples: Optional[List[float]] = None) -> float:
        """The median of ``samples`` (by default the run's) over the reference."""
        return statistics.median(self.samples if samples is None else samples) / CLOCK_REFERENCE_S

    def adjust(self, wall: float, cpu_share: float, slowdown: Optional[float] = None) -> float:
        """``wall`` seconds, of which ``cpu_share`` ran on a processor on a
        host ``slowdown`` times slower than the reference (by default the
        run's), as they would take on the reference host."""
        share = min(1.0, cpu_share)  # above 1 when two processes ran at once
        return wall * (1.0 - share + share / (self.slowdown() if slowdown is None else slowdown))


class Rate:
    """Bytes and wall seconds of every timed call of one phase, by operation.

    Rounds replay the same seeded inputs and restore passes the same
    restore, so each operation (a day's backup, a restore pass of one
    target) repeats identically through a run.  The rate is the bytes of
    one instance of every operation over the sum of their median times,
    so a burst of contention that slows a few calls does not move it,
    scaled to the reference host with the phase's CPU share over the run
    (HostClock.adjust): by the run's clock, or with ``per_call`` each call
    by the clock samples right after it.
    """

    def __init__(self, clock: HostClock, per_call: bool = False) -> None:
        self.clock = clock
        self.per_call = per_call
        self.nbytes: Dict[object, int] = {}
        self.samples: Dict[object, List[float]] = {}
        self.slowdowns: Dict[object, List[float]] = {}  # per_call only
        self.wall = 0.0
        self.cpu = 0.0

    def add(self, op: object, nbytes: int, lap: Tuple[float, float]) -> None:
        wall, cpu = lap
        self.nbytes[op] = nbytes
        self.samples.setdefault(op, []).append(wall)
        self.wall += wall
        self.cpu += cpu
        if self.per_call:
            burst = [self.clock.sample() for _ in range(PASS_CLOCK_SAMPLES)]
            self.slowdowns.setdefault(op, []).append(self.clock.slowdown(burst))
        else:
            for _ in range(max(1, round(wall / CLOCK_EVERY_S))):
                self.clock.sample()

    def measured_mbps(self) -> float:
        """MB/s in wall time as measured, before scaling."""
        return sum(self.nbytes.values()) / 1e6 / sum(map(statistics.median, self.samples.values()))

    def mbps(self) -> float:
        share = self.cpu / self.wall
        if not self.per_call:
            return self.measured_mbps() / self.clock.adjust(1.0, share)
        seconds = sum(
            statistics.median(self.clock.adjust(w, share, slow) for w, slow in zip(walls, self.slowdowns[op]))
            for op, walls in self.samples.items()
        )
        return sum(self.nbytes.values()) / 1e6 / seconds


class Run:
    """What one invocation measured, counted and checked."""

    def __init__(self, work: Path, seconds: float, trace: bool) -> None:
        self.work = work
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.clock = HostClock()
        self.full = Rate(self.clock)
        self.incr = Rate(self.clock)
        self.hot = Rate(self.clock, per_call=True)
        self.cold = Rate(self.clock, per_call=True)
        self.setups: List[Tuple[float, float]] = []  # wall and CPU seconds of each
        self.daemon: Optional["Daemon"] = None  # its CPU counts while it serves
        self.rounds_done = 0
        self.logical = 0  # logical bytes of every run of one round
        self.dedup_ratio = 0.0
        self.vault_bytes = 0
        self.peak_rss_mib = 0.0
        # Traced run only:
        self.net_logical = 0  # bytes moved by remote backups + restores
        self.catalog_bytes = 0
        self.daemon_snapshot: Optional[dict] = None

    def op(self) -> None:
        self.attempted += 1

    def cpu(self) -> float:
        """CPU seconds of this process and of the daemon it talks to."""
        cpu = time.process_time()
        if self.daemon is not None:
            cpu += self.daemon.cpu()
        return cpu

    def start(self) -> Tuple[float, float]:
        return now(), self.cpu()

    def lap(self, start: Tuple[float, float]) -> Tuple[float, float]:
        """Wall and CPU seconds since ``start``."""
        return now() - start[0], self.cpu() - start[1]

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            print(f"CHECK FAILED: {what}", file=sys.stderr, flush=True)

    def passes(self, one: Callable[[], None], budget: float = RESTORE_SECONDS) -> None:
        """Repeat ``one`` for ``budget`` wall seconds (at least twice), or
        ``TRACE_PASSES`` times in the traced run."""
        t0, n = now(), 0
        while (n < TRACE_PASSES) if self.trace else (n < 2 or now() - t0 < budget):
            one()
            n += 1

    def repeat(self, one_round: Callable[[Path], None]) -> None:
        """Whole rounds while the next is expected to end in time; one
        round in the traced run."""
        t0 = now()
        while True:
            work = self.work / f"round{self.rounds_done}"
            one_round(work)
            shutil.rmtree(work)
            self.rounds_done += 1
            elapsed = now() - t0
            if self.trace or elapsed + elapsed / self.rounds_done > self.seconds:
                return

    def metrics(self) -> Dict[str, float]:
        """End-to-end metrics; times and rates scaled to the reference host."""
        share = sum(c for _, c in self.setups) / sum(w for w, _ in self.setups)
        return {
            "setup_s": self.clock.adjust(statistics.median(w for w, _ in self.setups), share),
            "full_backup_MBps": self.full.mbps(),
            "incr_backup_MBps": self.incr.mbps(),
            "restore_MBps": self.hot.mbps(),
            "cold_restore_MBps": self.cold.mbps(),
            "dedup_ratio": self.dedup_ratio,
            "vault_bytes_per_logical": self.vault_bytes / self.logical,
            "peak_rss_MiB": self.peak_rss_mib,
        }


UNITS = {
    "setup_s": "s", "full_backup_MBps": "MB/s", "incr_backup_MBps": "MB/s",
    "restore_MBps": "MB/s", "cold_restore_MBps": "MB/s", "dedup_ratio": "x",
    "vault_bytes_per_logical": "B/B", "peak_rss_MiB": "MiB",
}

#: A restore target: (job, run id, source tree, manifest of that version).
Target = Tuple[str, int, Path, Dict[str, Tuple[str, int]]]


# -- helpers shared by the workloads --------------------------------------------------
def tree_bytes(path: Path, skip: Tuple[str, ...] = ()) -> int:
    """Apparent size of every regular file under ``path``."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            if name not in skip:
                total += os.lstat(os.path.join(dirpath, name)).st_size
    return total


def check_tree(run: Run, dest: Path, manifest: Dict[str, Tuple[str, int]], what: str) -> None:
    """The restored tree must hold exactly the manifest's files, byte for byte."""
    found = {}
    for dirpath, _, files in os.walk(dest):
        for name in files:
            full = Path(dirpath) / name
            data = full.read_bytes()
            found[str(full.relative_to(dest))] = (gen.sha256(data), len(data))
    run.check(found == manifest, f"{what}: restored tree differs from the generator's record")


def prepare_dest(dest: Path, manifest: Dict[str, Tuple[str, int]]) -> None:
    """Make ``dest`` hold every file of ``manifest``, empty.

    Restores write into an existing tree of the same paths.  Creating
    fresh inodes on this kind of ext4 volume took from 4 to 24 ms for the
    same 40 files, following the journal's cycle, while rewriting existing
    files held steady; that swing is the volume's, not the program's.
    Emptying the files first means a restore that skips a file leaves it
    empty, and the check catches it.
    """
    for rel in manifest:
        path = dest / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb"):
            pass


def version_bytes(manifest: Dict[str, Tuple[str, int]]) -> int:
    return sum(size for _, size in manifest.values())


def open_vault(path: Path, **geometry):
    from repro.system.vault import DebarVault

    return DebarVault(path, **geometry)


def local_restore(run: Run, rate: Rate, vault_dir: Path, targets: List[Target], work: Path, what: str) -> None:
    """One restore pass: re-open the vault (inside the timed interval, as
    a ``repro restore`` process would -- without it the process-wide
    container cache would serve every read from memory), restore every
    target, close; then check each restored tree."""
    dest = work / "restore"
    for job, run_id, _, manifest in targets:
        prepare_dest(dest / f"{job}-{run_id}", manifest)
    start = run.start()
    vault = open_vault(vault_dir)
    for job, run_id, tree, _ in targets:
        run.op()
        vault.restore(run_id, dest / f"{job}-{run_id}", strip_prefix=tree, job=job)
    vault.close()
    rate.add(tuple((job, run_id) for job, run_id, *_ in targets), sum(version_bytes(m) for *_, m in targets), run.lap(start))
    for job, run_id, _, manifest in targets:
        check_tree(run, dest / f"{job}-{run_id}", manifest, f"{what} {job} run {run_id}")


def migrate(run: Run, vault_dir: Path, min_age_runs: int) -> None:
    from repro.backend.lifecycle import LifecycleManager, LifecyclePolicy

    vault = open_vault(vault_dir)
    vault.enable_cold_tier()
    run.op()
    report = LifecycleManager(vault, LifecyclePolicy(min_age_runs=min_age_runs)).migrate()
    run.check(not report.failed and report.migrated > 0, f"migration moved {report.migrated}, failed {report.failed}")
    vault.close()


def deep_verify(run: Run, vault_dir: Path) -> None:
    from repro.durability.errors import CorruptionError

    vault = open_vault(vault_dir)
    run.op()
    try:
        vault.verify(deep=True)
    except CorruptionError as exc:
        run.check(False, f"verify(deep=True): {exc}")
    vault.close()


def finish_round(run: Run, vault_dir: Path, logical: int, skip: Tuple[str, ...] = ()) -> None:
    run.logical = logical
    run.vault_bytes = tree_bytes(vault_dir, skip)
    run.catalog_bytes = (vault_dir / "catalog.json").stat().st_size


def top_up_setups(run: Run, setup: Callable[[Path], object], close: Callable[[object], None]) -> None:
    """Time extra setups until ``setup_s`` has ``SETUP_SAMPLES`` samples."""
    while len(run.setups) < SETUP_SAMPLES:
        work = run.work / f"setup{len(run.setups)}"
        close(setup(work))
        shutil.rmtree(work)


# -- daily-chain ---------------------------------------------------------------------------
def daily_chain(run: Run, seed: int) -> None:
    """Per round: a full backup and 10 low-churn daily incrementals of one
    job; hot restores of the latest run; migration of every container
    older than one run; restores of the oldest run (all cold); forget of
    the older half of the chain and gc."""

    def setup(work: Path):
        start = run.start()
        chain = gen.daily_chain(seed)
        chain.materialize(0, work / "tree")
        vault = open_vault(work / "vault")
        run.setups.append(run.lap(start))
        return chain, vault

    def one_round(work: Path) -> None:
        chain, vault = setup(work)
        tree, vault_dir = work / "tree", work / "vault"
        days = len(chain.versions)
        for day in range(days):
            if day:
                chain.materialize(day, tree)
            unchanged = chain.edits[day] == ["unchanged"]
            stored_before = vault.stats()["physical_bytes"] if unchanged else 0
            run.op()
            start = run.start()
            record = vault.backup("daily", [tree])
            lap = run.lap(start)
            expected = chain.logical_bytes(day)
            (run.incr if day else run.full).add(day, expected, lap)
            run.check(record.logical_bytes == expected, f"day {day}: logical {record.logical_bytes} != {expected}")
            if unchanged:
                grown = vault.stats()["physical_bytes"] - stored_before
                run.check(grown == 0, f"unchanged day {day} stored {grown} new bytes")
        physical = vault.stats()["physical_bytes"]
        logical = sum(chain.logical_bytes(d) for d in range(days))
        run.dedup_ratio = logical / physical
        lower = max(chain.distinct_bytes(d) for d in range(days))
        upper = chain.file_level_total()
        run.check(lower <= physical <= upper, f"stored {physical} outside [{lower}, {upper}]")
        vault.close()

        latest: List[Target] = [("daily", days, tree, chain.manifest(days - 1))]
        run.passes(lambda: local_restore(run, run.hot, vault_dir, latest, work, "hot restore"))
        migrate(run, vault_dir, min_age_runs=1)
        oldest: List[Target] = [("daily", 1, tree, chain.manifest(0))]
        run.passes(lambda: local_restore(run, run.cold, vault_dir, oldest, work, "cold restore"))

        vault = open_vault(vault_dir)
        for run_id in range(1, days // 2 + 1):
            run.op()
            vault.forget(run_id, job="daily")
        run.op()
        report = vault.gc()
        run.check(report.bytes_reclaimed > 0, "gc reclaimed nothing after the older half was forgotten")
        vault.close()
        kept = [("daily", d + 1, tree, chain.manifest(d)) for d in range(days // 2, days)]
        local_restore(run, Rate(run.clock), vault_dir, kept, work, "restore after gc")
        deep_verify(run, vault_dir)
        finish_round(run, vault_dir, logical)

    run.repeat(one_round)
    run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    top_up_setups(run, setup, lambda s: s[1].close())


# -- fresh-ingest --------------------------------------------------------------------------
def fresh_ingest(run: Run, seed: int) -> None:
    """Per round: four jobs back up mostly new data with cross-job shared
    files on an index small enough to scale during the backups, then one
    incremental each; hot restores of every job's latest run; migration
    of every container; the same restores from cold."""

    def setup(work: Path):
        start = run.start()
        ingest = gen.fresh_ingest(seed)
        for chain in ingest.chains:
            chain.materialize(0, work / "trees" / chain.name)
        # 8 buckets of 512 B hold under two hundred entries: the ~330
        # chunks of a round force capacity scaling inside the timed backups.
        vault = open_vault(work / "vault", index_n_bits=3)
        run.setups.append(run.lap(start))
        return ingest, vault

    def one_round(work: Path) -> None:
        ingest, vault = setup(work)
        vault_dir = work / "vault"
        logical = 0
        for version, rate in ((0, run.full), (1, run.incr)):
            for chain in ingest.chains:
                tree = work / "trees" / chain.name
                if version:
                    chain.materialize(version, tree)
                run.op()
                start = run.start()
                record = vault.backup(chain.name, [tree])
                lap = run.lap(start)
                expected = chain.logical_bytes(version)
                rate.add(chain.name, expected, lap)
                logical += expected
                run.check(record.logical_bytes == expected, f"{chain.name}: logical {record.logical_bytes} != {expected}")
        physical = vault.stats()["physical_bytes"]
        run.dedup_ratio = logical / physical
        run.check(physical == ingest.distinct_bytes(),
                  f"stored {physical} != distinct file bytes {ingest.distinct_bytes()}")
        vault.close()

        jobs = len(ingest.chains)
        # Run ids: the fulls are 1..jobs, the incrementals jobs+1..2*jobs.
        latest: List[Target] = [
            (c.name, jobs + j + 1, work / "trees" / c.name, c.manifest(1)) for j, c in enumerate(ingest.chains)
        ]
        run.passes(lambda: local_restore(run, run.hot, vault_dir, latest, work, "hot restore"))
        migrate(run, vault_dir, min_age_runs=0)
        run.passes(lambda: local_restore(run, run.cold, vault_dir, latest, work, "cold restore"))
        deep_verify(run, vault_dir)
        finish_round(run, vault_dir, logical)

    run.repeat(one_round)
    run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    top_up_setups(run, setup, lambda s: s[1].close())


# -- serve-mixed ----------------------------------------------------------------------------
class Daemon:
    """A ``repro serve`` process on loopback plus one client connection.

    While it runs, its CPU time counts in ``run.cpu()``.
    """

    def __init__(self, run: Run, vault: Path, work: Path, telemetry: Optional[Path] = None) -> None:
        from repro.net.client import RemoteBackupClient

        self.run = run

        work.mkdir(parents=True, exist_ok=True)
        port_file = work / "port"
        if port_file.exists():
            port_file.unlink()
        cmd = [sys.executable, "-m", "repro", "serve", "--vault", str(vault), "--port-file", str(port_file)]
        if telemetry is not None:
            cmd += ["--telemetry", "--telemetry-json", str(telemetry)]
        self.log = open(work / "serve.log", "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=self.log, stderr=self.log
        )
        self.client = None
        deadline = now() + 60
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.proc.poll() is not None or now() > deadline:
                self.close()
                raise RuntimeError(f"repro serve did not start; see {work / 'serve.log'}")
            time.sleep(0.005)
        self.client = RemoteBackupClient("127.0.0.1", int(port_file.read_text()), client_name="perfbench")
        if not self.client.net.ping():
            self.close()
            raise RuntimeError("repro serve did not answer PING")
        run.daemon = self

    def cpu(self) -> float:
        """User plus system CPU seconds of the daemon so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_mib(self) -> float:
        """VmHWM of the daemon, read while it still runs."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def close(self) -> None:
        if self.run.daemon is self:
            self.run.daemon = None
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def serve_mixed(run: Run, seed: int) -> None:
    """Per round: three jobs with staggered starts backed up day by day
    through one daemon, with restores of earlier runs after each day's
    backups; then the daemon stops, the vault migrates offline (no wire
    message migrates a served vault), a restarted daemon serves restores
    of each job's first run, mostly from cold, and a remote deep verify."""
    days = gen.SERVE_DAYS

    def setup(work: Path):
        start = run.start()
        chains = gen.serve_jobs(seed)
        for chain in chains:
            chain.materialize(0, work / "trees" / chain.name)
        daemon = Daemon(run, work / "vault", work, work / "serve0.json" if run.trace else None)
        run.setups.append(run.lap(start))
        return chains, daemon

    def one_round(work: Path) -> None:
        chains, daemon = setup(work)
        try:
            cursor = 0

            def restore(rate: Rate, targets: List[Target], what: str) -> None:
                """Restore the next target, round-robin, and check it."""
                nonlocal cursor
                job, run_id, tree, manifest = targets[cursor % len(targets)]
                cursor += 1
                dest = work / "restore" / f"{job}-{run_id}"
                prepare_dest(dest, manifest)
                run.op()
                start = run.start()
                daemon.client.restore(run_id, dest, strip_prefix=tree, job=job)
                rate.add((job, run_id), version_bytes(manifest), run.lap(start))
                run.net_logical += version_bytes(manifest)
                check_tree(run, dest, manifest, f"{what} {job} run {run_id}")

            committed: List[Target] = []
            for day in range(days):
                earlier = list(committed)
                for j, chain in enumerate(chains):
                    version = day - j
                    if version < 0:
                        continue
                    tree = work / "trees" / chain.name
                    if version:
                        chain.materialize(version, tree)
                    run.op()
                    start = run.start()
                    record = daemon.client.backup(chain.name, [tree])
                    lap = run.lap(start)
                    expected = chain.logical_bytes(version)
                    (run.incr if version else run.full).add((chain.name, version), expected, lap)
                    run.net_logical += expected
                    run.check(record.logical_bytes == expected, f"{chain.name}: logical {record.logical_bytes} != {expected}")
                    committed.append((chain.name, record.run_id, tree, chain.manifest(version)))
                if earlier:
                    run.passes(lambda: restore(run.hot, earlier, "served restore"), budget=3 * RESTORE_SECONDS / (days - 1))
            stats = daemon.client.stats()
            logical = sum(version_bytes(m) for *_, m in committed)
            run.dedup_ratio = stats["logical_bytes"] / stats["physical_bytes"]
            run.check(stats["logical_bytes"] == logical, f"served logical {stats['logical_bytes']} != {logical}")
            run.peak_rss_mib = max(run.peak_rss_mib, daemon.peak_rss_mib())
            daemon.close()

            migrate(run, work / "vault", min_age_runs=1)
            telemetry = work / "serve1.json" if run.trace else None
            daemon = Daemon(run, work / "vault", work, telemetry)
            firsts: Dict[str, Target] = {}
            for target in committed:
                firsts.setdefault(target[0], target)
            oldest = [firsts[job] for job in sorted(firsts)]
            run.passes(lambda: restore(run.cold, oldest, "served cold restore"), budget=2 * RESTORE_SECONDS)
            run.op()
            verdict = daemon.client.verify(deep=True)
            run.check(verdict.get("payloads_verified", 0) > 0, f"remote deep verify: {verdict}")
            run.peak_rss_mib = max(run.peak_rss_mib, daemon.peak_rss_mib())
            daemon.close()
        finally:
            # Idempotent: stops the daemon if a failed operation left it up.
            daemon.close()
        if telemetry is not None:
            run.daemon_snapshot = {
                "first": json.loads((work / "serve0.json").read_text()),
                "last": json.loads(telemetry.read_text()),
            }
        # telemetry.json is written only by a traced daemon.
        finish_round(run, work / "vault", logical, skip=("telemetry.json",))

    run.repeat(one_round)
    top_up_setups(run, setup, lambda s: s[1].close())


RUNNERS = {"daily-chain": daily_chain, "fresh-ingest": fresh_ingest, "serve-mixed": serve_mixed}


def traced_metrics(run: Run, timer, registry, tracer) -> Dict[str, float]:
    import layers
    from repro.telemetry import build_snapshot

    daemon = None
    if run.daemon_snapshot is not None:
        first, last = run.daemon_snapshot["first"], run.daemon_snapshot["last"]
        # Spans from both daemons; counters from the restarted one only,
        # which merged the first one's persisted counters at exit.
        daemon = {"metrics": last["metrics"], "traces": first["traces"] + last["traces"]}
    return layers.per_layer(
        timer,
        build_snapshot(registry, tracer),
        net_logical_bytes=run.net_logical,
        catalog_bytes=run.catalog_bytes,
        daemon=daemon,
    )


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="DEBAR wall-clock backup/restore benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work, args.seconds, bool(args.trace))
    try:
        if run.trace:
            import layers
            from repro import telemetry

            timer = layers.LayerTimer()
            layers.install(timer)
            registry, tracer = telemetry.enable()
            RUNNERS[args.workload](run, args.seed)
            timer.uninstall()
            values, units = traced_metrics(run, timer, registry, tracer), layers.UNITS
            # The traced run's own end-to-end figures, for the tracing
            # overhead (perfbench/steady.py --traced compares them).
            print(json.dumps({"traced_end_to_end": run.metrics()}))
        else:
            RUNNERS[args.workload](run, args.seed)
            values, units = run.metrics(), UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    for name in ("full", "incr", "hot", "cold"):
        rate = getattr(run, name)
        counts = sorted({len(v) for v in rate.samples.values()})
        print(f"{name}: {len(rate.samples)} operations, {counts[0]}-{counts[-1]} samples each, "
              f"timed {rate.wall:.2f} s, {rate.cpu / rate.wall:.3f} of it on a processor, "
              f"{rate.measured_mbps():.3f} MB/s as measured", file=sys.stderr)
    print(f"clock: {len(run.clock.samples)} samples, slowdown {run.clock.slowdown():.4f}; "
          f"setups {len(run.setups)}, median {statistics.median(w for w, _ in run.setups):.4f} s as measured",
          file=sys.stderr)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
