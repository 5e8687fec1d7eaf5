"""The two-tier content-addressed compile cache.

Tier 1 is an in-memory LRU of artefact dicts; tier 2 an optional
on-disk store with one JSON file per key (``<key>.json`` under the cache
directory), written atomically (temp file + rename) so concurrent
writers can never leave a torn entry.  Disk hits are promoted to
memory.  Corrupt or unreadable disk entries count as misses and are
deleted best-effort — the cache is always allowed to forget, never to
return wrong bytes.

Keys come from :mod:`repro.service.keys`; because the key commits to
circuit, device, pass config and library version, entries never need
explicit invalidation — a change to any input simply addresses a
different slot.

Besides whole-pipeline artefacts the cache stores *stage* entries —
pipeline intermediates (today only the placement) keyed by
:func:`repro.service.keys.stage_key`.
Stage entries live in a namespace per stage: in memory the LRU key is
prefixed ``<stage>/``; on disk they sit under
``stages/<stage>/<key>.json`` next to the flat ``<key>.json`` artefact
files.  Both kinds share the LRU capacity and all the disk semantics
(atomic writes, corrupt entries deleted and counted, never returned).
:class:`CacheStageStore` adapts this to the duck-typed ``stage_store``
interface of :func:`repro.core.pipeline.compile_circuit`.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
from collections import Counter, OrderedDict
from pathlib import Path
from typing import Mapping

from ..obs import trace_span
from .keys import stage_key

__all__ = ["CompileCache", "CacheStageStore"]

#: Per-process counter distinguishing concurrent same-key temp files —
#: the PID alone collides when two threads of one process write one key.
_TMP_COUNTER = itertools.count()


class CompileCache:
    """Content-addressed artefact store with memory and disk tiers.

    Args:
        max_memory_entries: LRU capacity of the in-memory tier
            (0 disables it).
        directory: Root of the on-disk tier; ``None`` disables it.
            Created on first write.
    """

    def __init__(
        self,
        *,
        max_memory_entries: int = 512,
        directory: str | os.PathLike | None = None,
    ) -> None:
        self.max_memory_entries = int(max_memory_entries)
        self.directory = Path(directory) if directory is not None else None
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self._counters: Counter = Counter()
        self._stage_counters: dict[str, Counter] = {}

    # ------------------------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _stage_path(self, stage: str, key: str) -> Path:
        assert self.directory is not None
        return self.directory / "stages" / stage / f"{key}.json"

    @staticmethod
    def _stage_mem_key(stage: str, key: str) -> str:
        # Keys are hex digests (no "/"), so the prefix cannot collide
        # with a whole-pipeline entry.
        return f"{stage}/{key}"

    def _stage(self, stage: str) -> Counter:
        counters = self._stage_counters.get(stage)
        if counters is None:
            counters = self._stage_counters[stage] = Counter()
        return counters

    def lookup(self, key: str) -> tuple[dict | None, str | None]:
        """``(artifact, tier)`` for ``key``; ``(None, None)`` on miss.

        The tier (``"memory"`` or ``"disk"``) is returned *with* the
        artefact so concurrent callers can never misattribute a hit.
        (The stateful ``last_tier()`` accessor this replaced — a shared
        slot any interleaved lookup could overwrite — was deprecated in
        the tracing release and has been removed.)
        """
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self._counters["memory_hits"] += 1
            return entry, "memory"
        if self.directory is not None:
            entry = self._read_disk(self._disk_path(key), self._counters)
            if entry is not None:
                self._counters["disk_hits"] += 1
                self._remember(key, entry)
                return entry, "disk"
        self._counters["misses"] += 1
        return None, None

    def get(self, key: str) -> dict | None:
        """The cached artefact for ``key``, or ``None`` on miss."""
        return self.lookup(key)[0]

    def put(self, key: str, artifact: dict) -> None:
        """Store ``artifact`` under ``key`` in every enabled tier."""
        self._counters["puts"] += 1
        self._remember(key, artifact)
        if self.directory is not None:
            self._write_disk(self._disk_path(key), artifact, self._counters)

    @staticmethod
    def _read_disk(path: Path, counters: Counter) -> dict | None:
        """The entry stored at ``path``, or ``None`` when it is absent or
        unreadable.  An unreadable (e.g. corrupt) file is counted in
        ``counters["disk_errors"]`` and deleted best-effort."""
        try:
            with open(path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            counters["disk_errors"] += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _write_disk(self, path: Path, entry: dict, counters: Counter) -> None:
        """Atomic best-effort write; any disk failure — including the
        ``mkdir`` of the cache directory itself — is counted in
        ``counters["disk_errors"]``, never raised.  Keys keep their
        build order, so a disk hit serialises to the same bytes as the
        memory hit of the same entry."""
        tmp = path.with_suffix(
            f".{os.getpid()}-{next(_TMP_COUNTER)}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            data = json.dumps(entry)
            with open(tmp, "w") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            counters["disk_errors"] += 1
            try:
                tmp.unlink()
            except OSError:
                pass

    def _remember(self, key: str, artifact: dict) -> None:
        if self.max_memory_entries <= 0:
            return
        # Deep-copied so a caller mutating its dict after (or an engine
        # annotating a returned artefact) cannot desynchronise the
        # memory tier from the bytes on disk.
        self._memory[key] = copy.deepcopy(artifact)
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            evicted, _ = self._memory.popitem(last=False)
            self._counters["evictions"] += 1
            stage, sep, _rest = evicted.partition("/")
            if sep:
                self._stage(stage)["evictions"] += 1

    # -- stage entries --------------------------------------------------

    def lookup_stage(self, stage: str, key: str) -> dict | None:
        """The stage entry for ``(stage, key)``, or ``None`` on miss.

        Same tier walk as :meth:`lookup` (memory, then disk with
        promotion; corrupt disk entries deleted and counted), but hits,
        misses and disk errors land in the per-stage counters surfaced
        by :meth:`stats` under ``"stages"``.
        """
        counters = self._stage(stage)
        mem_key = self._stage_mem_key(stage, key)
        entry = self._memory.get(mem_key)
        if entry is not None:
            self._memory.move_to_end(mem_key)
            counters["memory_hits"] += 1
            return entry
        if self.directory is not None:
            entry = self._read_disk(self._stage_path(stage, key), counters)
            if entry is not None:
                counters["disk_hits"] += 1
                self._remember(mem_key, entry)
                return entry
        counters["misses"] += 1
        return None

    def put_stage(self, stage: str, key: str, entry: dict) -> None:
        """Store a stage entry in every enabled tier."""
        counters = self._stage(stage)
        counters["puts"] += 1
        self._remember(self._stage_mem_key(stage, key), entry)
        if self.directory is not None:
            self._write_disk(self._stage_path(stage, key), entry, counters)

    def stage_counters(self) -> dict:
        """Plain-dict snapshot of the per-stage counters (stages with
        no activity omitted) — the form workers ship back to the parent
        for :meth:`merge_stage_counters`."""
        return {
            stage: dict(counters)
            for stage, counters in self._stage_counters.items()
            if counters
        }

    def merge_stage_counters(self, counters: Mapping) -> None:
        """Fold another cache's :meth:`stage_counters` snapshot into
        this one (pool workers probe the disk tier with their own
        :class:`CompileCache`; the parent owns the aggregate)."""
        for stage, values in counters.items():
            self._stage(stage).update(values)

    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        """Whether :meth:`get` would hit — corrupt disk entries excluded.

        Membership shares :meth:`lookup`'s semantics: a disk file that
        does not parse is *not* contained (it is deleted best-effort and
        counted as a ``disk_error``, exactly as a lookup would treat
        it), so ``key in cache`` never promises an artefact that ``get``
        then fails to return.  Hit/miss counters are untouched —
        membership is not a lookup.
        """
        if key in self._memory:
            return True
        if self.directory is None:
            return False
        entry = self._read_disk(self._disk_path(key), self._counters)
        return entry is not None

    def __len__(self) -> int:
        """Number of entries in the memory tier (disk not enumerated)."""
        return len(self._memory)

    def stats(self) -> dict:
        """Counter snapshot plus tier occupancy.

        Stage-cache activity appears as the ``stage_hits`` /
        ``stage_misses`` / ``stage_hit_rate`` aggregates plus a
        ``"stages"`` block with one counter dict per active stage.
        """
        snapshot = {
            key: self._counters[key]
            for key in (
                "memory_hits", "disk_hits", "misses", "puts",
                "evictions", "disk_errors",
            )
        }
        hits = snapshot["memory_hits"] + snapshot["disk_hits"]
        lookups = hits + snapshot["misses"]
        snapshot["hit_rate"] = round(hits / lookups, 4) if lookups else 0.0
        # Stage entries share the LRU but are tallied apart, so
        # ``memory_entries`` keeps meaning whole-pipeline artefacts.
        stage_mem = sum(1 for k in self._memory if "/" in k)
        snapshot["memory_entries"] = len(self._memory) - stage_mem
        snapshot["stage_memory_entries"] = stage_mem
        if self.directory is not None and self.directory.is_dir():
            snapshot["disk_entries"] = sum(
                1 for _ in self.directory.glob("*.json")
            )
        stage_hits = stage_misses = 0
        stages: dict[str, dict] = {}
        for stage, counters in sorted(self._stage_counters.items()):
            if not counters:
                continue
            block = dict(counters)
            hits = block.get("memory_hits", 0) + block.get("disk_hits", 0)
            looks = hits + block.get("misses", 0)
            block["hit_rate"] = round(hits / looks, 4) if looks else 0.0
            stages[stage] = block
            stage_hits += hits
            stage_misses += block.get("misses", 0)
        snapshot["stage_hits"] = stage_hits
        snapshot["stage_misses"] = stage_misses
        stage_lookups = stage_hits + stage_misses
        snapshot["stage_hit_rate"] = (
            round(stage_hits / stage_lookups, 4) if stage_lookups else 0.0
        )
        snapshot["stages"] = stages
        return snapshot

    def clear(self, *, memory_only: bool = False) -> None:
        """Drop every entry (optionally only the memory tier)."""
        self._memory.clear()
        if not memory_only and self.directory is not None:
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
            for path in self.directory.glob("stages/*/*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass


class CacheStageStore:
    """Adapter giving :class:`CompileCache` the pipeline's duck-typed
    ``stage_store`` interface.

    :func:`repro.core.pipeline.compile_circuit` hands over the placement
    stage's input snapshot and config; this class derives the
    content-addressed key (:func:`repro.service.keys.stage_key`), walks
    the cache's stage namespace, and emits a zero-length
    ``cache.stage_hit`` / ``cache.stage_miss`` trace span per probe.
    Inputs with no canonical JSON form are treated as uncacheable: the
    probe is skipped entirely and no span is emitted.
    """

    def __init__(self, cache: CompileCache) -> None:
        self.cache = cache

    @staticmethod
    def _key(stage: str, inputs: dict, config: dict) -> str | None:
        try:
            return stage_key(stage, inputs, config)
        except (TypeError, ValueError):
            return None

    def load(self, stage: str, inputs: dict, config: dict) -> dict | None:
        key = self._key(stage, inputs, config)
        if key is None:
            return None
        entry = self.cache.lookup_stage(stage, key)
        name = "cache.stage_hit" if entry is not None else "cache.stage_miss"
        with trace_span(name, pass_="cache", stage=stage):
            pass
        return entry

    def store(self, stage: str, inputs: dict, config: dict,
              entry: dict) -> None:
        key = self._key(stage, inputs, config)
        if key is None:
            return
        self.cache.put_stage(stage, key, entry)
