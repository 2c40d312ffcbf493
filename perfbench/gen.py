"""Seeded input generator for the wall-clock benchmark.

Everything the benchmark feeds the program comes from here, and nothing
here imports the program: a change under ``src/`` cannot shift the
inputs.  All file contents are incompressible random bytes drawn from
``random.Random(seed)``; the *structure* (file count, sizes, which days
edit, how many bytes each edit touches) is fixed, so logical byte counts
are identical for every seed and only content and edit positions vary.

Each input set records, for every file version, its SHA-256 and size:
the workloads check restores and stored-byte accounting against these
records, never against the program's own output.

Run ``python3 perfbench/gen.py --workload daily-chain --seed 7`` to print
the recorded make-up of one input set as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

KiB = 1024

#: A tree version: relative path -> content.  Versions share the bytes
#: objects of files they did not change.
Version = Dict[str, bytes]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Chain:
    """One job's tree through a sequence of daily versions.

    ``versions[0]`` is the full backup's tree; ``versions[d]`` the tree on
    day ``d``.  ``edits[d]`` names what day ``d`` did, for the README and
    the JSON dump.
    """

    name: str
    versions: List[Version]
    edits: List[List[str]] = field(default_factory=list)

    def manifest(self, day: int) -> Dict[str, Tuple[str, int]]:
        """path -> (sha256, size) of the tree on ``day``."""
        return {p: (sha256(b), len(b)) for p, b in self.versions[day].items()}

    def logical_bytes(self, day: int) -> int:
        return sum(len(b) for b in self.versions[day].values())

    def distinct_bytes(self, day: int) -> int:
        """Bytes of distinct file contents in one version."""
        return sum(len(b) for b in {sha256(b): b for b in self.versions[day].values()}.values())

    def file_level_total(self) -> int:
        """Bytes of every distinct file content over all versions: what a
        store that de-duplicates whole files only would keep."""
        seen: Dict[str, int] = {}
        for version in self.versions:
            for data in version.values():
                seen.setdefault(sha256(data), len(data))
        return sum(seen.values())

    def materialize(self, day: int, tree: Path) -> None:
        """Make ``tree`` hold exactly version ``day``.

        Rewrites only files whose content object changed since the
        previous day, as an in-place edit of a live tree would.
        """
        current = self.versions[day]
        previous = self.versions[day - 1] if day > 0 else {}
        for path in previous:
            if path not in current:
                os.unlink(tree / path)
        for path, data in current.items():
            if previous.get(path) is not data:
                target = tree / path
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)


def _edit(rng: random.Random, tree: Version, kind: str, path: str) -> str:
    """Apply one seeded in-place edit to ``tree[path]``; describe it."""
    data = tree[path]
    if kind == "prepend":
        tree[path] = rng.randbytes(2 * KiB) + data
        return f"prepend 2KiB {path}"
    if kind == "append":
        tree[path] = data + rng.randbytes(8 * KiB)
        return f"append 8KiB {path}"
    off = rng.randrange(0, len(data) - 4 * KiB)
    tree[path] = data[:off] + rng.randbytes(4 * KiB) + data[off + 4 * KiB:]
    return f"overwrite 4KiB@{off} {path}"


EDITS = ("prepend", "append", "overwrite")
#: Incremental days of the daily chain, and the one that changes nothing.
DAILY_DAYS = 10
UNCHANGED_DAY = 5
#: Jobs of the fresh-ingest workload.
INGEST_JOBS = 4
#: Jobs and days of the served workload.
SERVE_JOBS = 3
SERVE_DAYS = 5


def daily_chain(seed: int) -> Chain:
    """A 1.2 MiB tree and ``DAILY_DAYS`` low-churn daily versions.

    Base tree: 30 files of 40 KiB.  Every changed day prepends 2 KiB to
    one file, appends 8 KiB to another and overwrites 4 KiB inside a
    third.  No file is edited twice, so every day's edits survive into the
    latest run and its fragmentation (how many containers it spans) is the
    same for every seed.  Days 1 and 2 add a 160 KiB file and days 3, 7
    and 9 a 40 KiB one; days 3, 4, 6, 8 and 10 delete the oldest added
    file.  The files of days 1 and 2 live only in the chain's older half
    and make up most of their day's container, so gc has whole dead files
    to reclaim once that half is forgotten.  Day ``UNCHANGED_DAY`` changes
    nothing.  Which files each edit hits, and where an overwrite lands,
    come from the seed.
    """
    rng = random.Random(seed)
    files = [f"docs/f{i:02d}.bin" for i in range(30)]
    base: Version = {p: rng.randbytes(40 * KiB) for p in files}
    targets = rng.sample(files, len(EDITS) * DAILY_DAYS)
    versions = [base]
    edits: List[List[str]] = [["full"]]
    added: List[str] = []
    for day in range(1, DAILY_DAYS + 1):
        tree = dict(versions[-1])
        done: List[str] = []
        if day != UNCHANGED_DAY:
            for kind in EDITS:
                done.append(_edit(rng, tree, kind, targets.pop()))
            if day in (3, 4, 6, 8, 10):
                gone = added.pop(0)
                del tree[gone]
                done.append(f"delete {gone}")
            if day in (1, 2, 3, 7, 9):
                path = f"new/day{day:02d}.bin"
                size = 160 if day in (1, 2) else 40
                tree[path] = rng.randbytes(size * KiB)
                added.append(path)
                done.append(f"new {size}KiB {path}")
        else:
            done.append("unchanged")
        versions.append(tree)
        edits.append(done)
    return Chain("daily", versions, edits)


@dataclass
class Ingest:
    """Several jobs' datasets for the fresh-ingest workload.

    ``chains[j].versions`` holds job ``j``'s full-backup tree and its one
    incremental; ``shared`` the whole files that appear in two jobs each.
    """

    chains: List[Chain]
    shared: Dict[str, bytes]

    def distinct_bytes(self) -> int:
        """Bytes of distinct file contents over every job and version."""
        seen: Dict[str, int] = {}
        for chain in self.chains:
            for version in chain.versions:
                for data in version.values():
                    seen.setdefault(sha256(data), len(data))
        return sum(seen.values())


def fresh_ingest(seed: int) -> Ingest:
    """``INGEST_JOBS`` datasets of mostly new, incompressible files.

    Each job owns 4 files of 96 KiB and 4 of 32 KiB, plus two 64 KiB
    files from a pool of ``INGEST_JOBS`` shared files, so every shared file is in
    exactly two jobs (cross-job duplicates only SIL can find: a job's
    preliminary filter starts empty).  The incremental adds two new
    48 KiB files and changes nothing else.
    """
    rng = random.Random(seed ^ 0x5EED)
    jobs = INGEST_JOBS
    shared = {f"shared{i}.bin": rng.randbytes(64 * KiB) for i in range(jobs)}
    names = sorted(shared)
    chains = []
    for j in range(jobs):
        tree: Version = {}
        for i in range(4):
            tree[f"data/a{i}.bin"] = rng.randbytes(96 * KiB)
            tree[f"data/b{i}.bin"] = rng.randbytes(32 * KiB)
        for name in (names[j % jobs], names[(j + 1) % jobs]):
            tree[f"common/{name}"] = shared[name]
        incr = dict(tree)
        incr["data/new0.bin"] = rng.randbytes(48 * KiB)
        incr["data/new1.bin"] = rng.randbytes(48 * KiB)
        chains.append(Chain(f"ingest{j}", [tree, incr], [["full"], ["new 2x48KiB"]]))
    return Ingest(chains, shared)


def serve_jobs(seed: int) -> List[Chain]:
    """``SERVE_JOBS`` small trees with staggered starts for the served workload.

    Job ``j`` does its full backup on day ``j`` and an incremental every
    later day, so most days mix a full backup with incrementals.  Each
    tree is 6 files of 64 KiB; every incremental day prepends 2 KiB to
    one file, appends 8 KiB to another and overwrites 4 KiB in a third.
    """
    rng = random.Random(seed ^ 0xC0FFEE)
    chains = []
    for j in range(SERVE_JOBS):
        files = [f"home/u{j}/f{i}.bin" for i in range(6)]
        base: Version = {p: rng.randbytes(64 * KiB) for p in files}
        versions = [base]
        edits: List[List[str]] = [["full"]]
        for _ in range(SERVE_DAYS - j - 1):
            tree = dict(versions[-1])
            targets = rng.sample(files, len(EDITS))
            edits.append([_edit(rng, tree, kind, path) for kind, path in zip(EDITS, targets)])
            versions.append(tree)
        chains.append(Chain(f"user{j}", versions, edits))
    return chains


def describe(workload: str, seed: int) -> dict:
    """The make-up of one input set (sizes, hashes, edits) as JSON."""
    if workload == "daily-chain":
        chains = [daily_chain(seed)]
    elif workload == "fresh-ingest":
        chains = fresh_ingest(seed).chains
    elif workload == "serve-mixed":
        chains = serve_jobs(seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return {
        "workload": workload,
        "seed": seed,
        "jobs": [
            {
                "job": c.name,
                "versions": [
                    {
                        "logical_bytes": c.logical_bytes(d),
                        "edits": c.edits[d],
                        "files": {p: {"sha256": h, "size": s} for p, (h, s) in sorted(c.manifest(d).items())},
                    }
                    for d in range(len(c.versions))
                ],
            }
            for c in chains
        ],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["daily-chain", "fresh-ingest", "serve-mixed"])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(json.dumps(describe(args.workload, args.seed), indent=1))


if __name__ == "__main__":
    main()
