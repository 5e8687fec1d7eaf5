"""The two-tier content-addressed compile cache.

Both tiers hold each entry as its JSON text, rendered once by whoever
produced the entry (a pool worker ships exactly these bytes).  Tier 1
is an in-memory LRU of those immutable strings, each paired with the
artefact's headline metrics; tier 2 an optional on-disk store with one
JSON file per key (``<key>.json`` under the cache directory), written
atomically (temp file + rename) so concurrent writers can never leave a
torn entry.  Disk hits are promoted to memory.  Corrupt or unreadable
disk entries count as misses and are deleted best-effort — the cache is
always allowed to forget, never to return wrong bytes.

:meth:`CompileCache.lookup` decodes a fresh dict on every call, so no
caller can alter what a later hit returns;
:meth:`CompileCache.lookup_json` hands out the stored text and metrics
without decoding the artefact at all (the engine's hit path).

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

import itertools
import json
import os
from collections import Counter, OrderedDict
from pathlib import Path
from typing import Mapping, NamedTuple

from ..obs import trace_span
from .keys import stage_key

__all__ = ["CompileCache", "CacheStageStore"]

#: Per-process counter distinguishing concurrent same-key temp files —
#: the PID alone collides when two threads of one process write one key.
_TMP_COUNTER = itertools.count()


class _Entry(NamedTuple):
    """A memory-tier slot: the entry's JSON text plus the artefact's
    headline metrics as ``(name, value)`` pairs.  Both are immutable,
    so no hit can hand out state a caller could alter."""

    text: str
    metrics: tuple


def _headline(obj) -> tuple:
    """The ``metrics`` block of an artefact as ``(name, value)`` pairs
    (empty for entries without one, e.g. stage entries)."""
    metrics = obj.get("metrics") if isinstance(obj, Mapping) else None
    return tuple(metrics.items()) if isinstance(metrics, Mapping) else ()


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
        self._memory: OrderedDict[str, _Entry] = OrderedDict()
        self._counters: Counter = Counter()
        self._stage_counters: dict[str, Counter] = {}

    # ------------------------------------------------------------------

    def _disk_path(self, key: str, stage: str | None = None) -> Path | None:
        """Where an entry lives on disk (``None`` without a disk tier)."""
        if self.directory is None:
            return None
        if stage is None:
            return self.directory / f"{key}.json"
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

    def _fetch(
        self, mem_key: str, path: Path | None, counters: Counter
    ) -> tuple[_Entry | None, str | None, object]:
        """The one read path of both tiers: ``(entry, tier, decoded)``.

        Memory first, then disk with promotion.  ``decoded`` is the
        object a disk hit had to decode anyway to prove the file sound
        (``None`` for memory hits and misses), so a caller that wants a
        dict never decodes the same text twice.
        """
        entry = self._memory.get(mem_key)
        if entry is not None:
            self._memory.move_to_end(mem_key)
            counters["memory_hits"] += 1
            return entry, "memory", None
        if path is not None:
            loaded = self._read_disk(path, counters)
            if loaded is not None:
                text, decoded = loaded
                counters["disk_hits"] += 1
                entry = _Entry(text, _headline(decoded))
                self._remember(mem_key, entry)
                return entry, "disk", decoded
        counters["misses"] += 1
        return None, None, None

    def lookup(self, key: str) -> tuple[dict | None, str | None]:
        """``(artifact, tier)`` for ``key``; ``(None, None)`` on miss.

        The artefact is decoded afresh from the stored text on every
        call, so a caller that mutates it cannot change what any later
        hit returns.  The tier (``"memory"`` or ``"disk"``) is returned
        *with* the artefact so concurrent callers can never misattribute
        a hit.  (The stateful ``last_tier()`` accessor this replaced — a
        shared slot any interleaved lookup could overwrite — was
        deprecated in the tracing release and has been removed.)
        """
        entry, tier, decoded = self._fetch(
            key, self._disk_path(key), self._counters
        )
        if entry is None:
            return None, None
        return (json.loads(entry.text) if decoded is None else decoded), tier

    def lookup_json(
        self, key: str
    ) -> tuple[str | None, dict | None, str | None]:
        """``(text, metrics, tier)`` for ``key``; all ``None`` on miss.

        The stored JSON text itself and a fresh dict of the artefact's
        headline ``metrics``, without decoding the artefact — the
        engine's hit path.  Same tier walk and counters as
        :meth:`lookup`.
        """
        entry, tier, _ = self._fetch(
            key, self._disk_path(key), self._counters
        )
        if entry is None:
            return None, None, None
        return entry.text, dict(entry.metrics), tier

    def get(self, key: str) -> dict | None:
        """The cached artefact for ``key``, or ``None`` on miss."""
        return self.lookup(key)[0]

    def put(self, key: str, artifact: dict, text: str | None = None) -> None:
        """Store ``artifact`` under ``key`` in every enabled tier.

        Args:
            text: ``json.dumps(artifact)`` when the caller already has
                it (the engine passes the text a worker rendered), so
                the artefact is never serialised twice; rendered here
                otherwise.
        """
        self._counters["puts"] += 1
        self._store(key, self._disk_path(key), artifact, text, self._counters)

    def _store(
        self,
        mem_key: str,
        path: Path | None,
        obj,
        text: str | None,
        counters: Counter,
    ) -> None:
        if text is None:
            text = json.dumps(obj)
        self._remember(mem_key, _Entry(text, _headline(obj)))
        if path is not None:
            self._write_disk(path, text, counters)

    @staticmethod
    def _read_disk(path: Path, counters: Counter) -> tuple[str, object] | None:
        """``(text, decoded)`` of the entry stored at ``path``, or
        ``None`` when it is absent or unreadable.  The text is decoded
        to prove it sound; an unreadable (e.g. corrupt) file is counted
        in ``counters["disk_errors"]`` and deleted best-effort."""
        try:
            with open(path) as fh:
                text = fh.read()
            return text, json.loads(text)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            counters["disk_errors"] += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _write_disk(self, path: Path, text: str, counters: Counter) -> None:
        """Atomic best-effort write of ``text``; any disk failure —
        including the ``mkdir`` of the cache directory itself — is
        counted in ``counters["disk_errors"]``, never raised.  The text
        is the one the memory tier holds, so a disk hit serialises to
        the same bytes as the memory hit of the same entry."""
        tmp = path.with_suffix(
            f".{os.getpid()}-{next(_TMP_COUNTER)}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError:
            counters["disk_errors"] += 1
            try:
                tmp.unlink()
            except OSError:
                pass

    def _remember(self, key: str, entry: _Entry) -> None:
        if self.max_memory_entries <= 0:
            return
        self._memory[key] = entry
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

        Same read path as :meth:`lookup` (memory, then disk with
        promotion; corrupt disk entries deleted and counted; a fresh
        dict per call), but hits, misses and disk errors land in the
        per-stage counters surfaced by :meth:`stats` under
        ``"stages"``.
        """
        entry, _, decoded = self._fetch(
            self._stage_mem_key(stage, key),
            self._disk_path(key, stage),
            self._stage(stage),
        )
        if entry is None:
            return None
        return json.loads(entry.text) if decoded is None else decoded

    def put_stage(self, stage: str, key: str, entry: dict) -> None:
        """Store a stage entry in every enabled tier."""
        counters = self._stage(stage)
        counters["puts"] += 1
        self._store(
            self._stage_mem_key(stage, key), self._disk_path(key, stage),
            entry, None, counters,
        )

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
        path = self._disk_path(key)
        return path is not None and \
            self._read_disk(path, self._counters) is not None

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
