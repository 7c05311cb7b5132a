"""Persistent on-disk job-result cache.

Closes ROADMAP follow-up (e): the :class:`~repro.core.engine.MappingEngine`
caches live per process, so a sweep farm that re-evaluates the same designs
across many invocations — or many worker machines sharing a filesystem —
used to redo every mapping.  :class:`JobCache` persists finished
:class:`~repro.jobs.runner.JobResult` envelopes as one JSON file per key,
where the key is :func:`repro.jobs.spec.job_hash` — a content hash over the
resolved job (design contents, operating point, mapper configuration, job
kind and knobs) — so a hit is valid by construction and never stale.

The store is deliberately simple and concurrency-tolerant:

* one file per key, named by the hash — no index to corrupt, safe to prune
  with ``rm`` or share over NFS;
* writes go through :func:`~repro.io.serialization.atomic_write` (a
  per-process temporary file and ``os.replace``) — a reader never
  observes a half-written entry, and concurrent writers of the same key
  overwrite each other with identical content (payloads are pure
  functions of the key);
* entries are compact JSON (no indentation, so the C encoder writes them)
  and carry no engine state — that lives in the engine-state store;
* unreadable or corrupt entries — including documents that parse but are
  not this key's envelope — count as misses and are re-computed.

An entry is encoded once and never again.  :meth:`JobCache.put` stores a
result's :meth:`~repro.jobs.runner.JobResult.to_json` text, which is also
what the service publishes for that fresh result.  :meth:`JobCache.get`
parses an entry once, to check it, and hands back a hit whose text is the
stored bytes with only the ``cached`` flag flipped to ``true``, so
publishing a hit re-encodes nothing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from repro.io.serialization import atomic_write
from repro.jobs.store import EngineStateStore

if TYPE_CHECKING:  # pragma: no cover - the runner imports this module
    from repro.jobs.runner import JobResult

__all__ = ["JobCache"]


class JobCache:
    """Directory-backed result store keyed by job content hashes.

    Besides the envelope files, the cache owns an
    :class:`~repro.jobs.store.EngineStateStore` under
    ``<directory>/engine-state/`` — the only warm-start path: engines
    attached to the store read previously exported mappings and
    fixed-placement evaluations directly from disk, keyed (see
    :meth:`sync_store` for how envelopes written before that carried their
    exports inline are folded in).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: the keyed on-disk engine-state store executions warm-start from
        #: (envelope files stay at the top level; the store's subtree never
        #: collides with the ``*.json`` envelope glob)
        self.store = EngineStateStore(self.directory / "engine-state")
        #: number of lookups answered from disk / missed since construction
        self.hits = 0
        self.misses = 0
        #: number of results written since construction
        self.stores = 0

    def path_for(self, key: str) -> Path:
        """The file one key's result lives in."""
        return self.directory / f"{key}.json"

    @staticmethod
    def _read(path: Path) -> Optional[Tuple[str, object]]:
        """The text in ``path`` and its parsed JSON, or ``None`` if unreadable."""
        try:
            text = path.read_text()
            return text, json.loads(text)
        except (OSError, json.JSONDecodeError):
            return None

    def get(self, key: str) -> Optional[JobResult]:
        """The stored result for a key as a cache hit, or ``None`` on a miss.

        Anything but this key's envelope — unreadable, not JSON, or JSON
        that is not a dict with a ``kind``, a dict ``payload`` and a
        ``spec_hash`` equal to ``key`` — is a miss, so the job is recomputed
        and the entry overwritten.

        A hit is built from the one parse these checks need
        (:meth:`~repro.jobs.runner.JobResult.from_cache_entry`): its
        ``cached`` is set and, for an entry in the layout :meth:`put`
        writes, its JSON text is the stored bytes with only that flag
        flipped, so publishing it encodes nothing.
        """
        from repro.jobs.runner import JobResult  # the runner imports this module

        text, document = self._read(self.path_for(key)) or (None, None)
        if (
            not isinstance(document, dict)
            or "kind" not in document
            or not isinstance(document.get("payload"), dict)
            or document.get("spec_hash") != key
        ):
            self.misses += 1
            return None
        self.hits += 1
        return JobResult.from_cache_entry(text, document)

    def put(self, key: str, result: JobResult) -> Path:
        """Atomically store one result; returns the path written.

        The entry is ``result.to_json()``: the text is encoded at most once
        and kept on the result, so the service publishes the same string
        as that fresh result's results-file entry.
        """
        target = atomic_write(self.path_for(key), result.to_json())
        self.stores += 1
        return target

    def sync_store(self, seen: Optional[set] = None) -> Dict[str, int]:
        """Fold envelope-borne engine exports into the engine-state store.

        Envelopes written before the store was the only warm-start path
        carry their engine's exported results inline (``engine_results``);
        this reads them and ingests those entries into :attr:`store`, after
        which store-attached engines can read them keyed.  Unreadable
        entries are skipped, and the hit/miss counters are deliberately
        left untouched — folding is not a lookup.  Idempotent: the store
        skips keys it already holds.

        ``seen`` makes repeated folding incremental: envelope file names in
        the set are skipped and newly read names are added, so a long-lived
        caller (the service's :class:`~repro.jobs.runner.JobRunner`)
        re-parses only the envelopes stored since its last call instead of
        the whole directory on every drain.
        """
        exports: List[Dict] = []
        for stored in sorted(self.directory.glob("*.json")):
            if seen is not None and stored.name in seen:
                continue
            read = self._read(stored)
            if read is None:
                continue
            if seen is not None:
                seen.add(stored.name)
            document = read[1]
            if not isinstance(document, dict):
                continue
            entries = document.get("engine_results")
            if isinstance(entries, list):
                exports.extend(entry for entry in entries if isinstance(entry, dict))
        return self.store.ingest(exports)

    def keys(self) -> Iterator[str]:
        """All keys currently stored."""
        for entry in sorted(self.directory.glob("*.json")):
            yield entry.stem

    def clear(self) -> int:
        """Delete every stored result; returns how many were removed."""
        removed = 0
        for entry in self.directory.glob("*.json"):
            entry.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobCache({str(self.directory)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
