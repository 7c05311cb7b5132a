"""Keyed on-disk engine-state store: results and fixed-placement evaluations.

Closes ROADMAP follow-ups (k) and (n).  PR 4's seeding stopped at full
mapping results and shipped the raw seed corpus to every pool worker per
drain; :class:`EngineStateStore` replaces that transport with a
content-keyed, append-only directory that workers read *directly* — each
engine fetches only the keys (or evaluation contexts) it actually misses,
so the cost of a large corpus is paid by the jobs that use it, not by every
process start.

Two kinds of engine state live in the store, with different shapes because
their access patterns differ:

* **full mapping results** — one JSON file per key under
  ``results/<kk>/<key>.json`` (sharded by the first two hex digits of the
  key).  A result is looked up individually on a
  :meth:`~repro.core.engine.MappingEngine.map` miss, so one-file-per-key
  with an atomic write (temporary file + ``os.replace``) is the right
  granularity — exactly the :class:`~repro.jobs.cache.JobCache` recipe, one
  level deeper.
* **fixed-placement evaluations** — the refinement hot path asks for
  *hundreds* of tiny entries that share one (spec, grouping, topology,
  operating point) context, so entries are grouped into one append-only
  JSONL file per context under ``evaluations/<cc>/<context>.jsonl``.  An
  engine loads a context once, on its first miss against it, and answers
  every later candidate from memory.

The durability contract, shared by both halves:

* **content keys** — every key is a SHA-256 over the canonical JSON of
  everything the stored payload depends on (spec hash, grouping, method
  and/or topology, operating point, mapper configuration), so a hit is
  valid by construction and can never be stale;
* **append-only** — existing result files are never overwritten and
  evaluation lines are only ever appended (first occurrence of a key wins);
  the sole exception is :meth:`compact`, which rewrites atomically;
* **atomic writes** — result files go through ``os.replace``; evaluation
  batches are appended with a single ``os.write`` on an ``O_APPEND``
  descriptor, so concurrent writers (pool workers, service instances
  sharing a cache directory) never interleave within a line;
* **corruption tolerance** — unreadable result files and undecodable
  JSONL lines (e.g. the torn tail of a crashed writer) are skipped with a
  :class:`StoreCorruptionWarning`; a corrupt entry degrades to a miss and
  is recomputed, never propagated.

The store is a *cache*, not a system of record: every payload is a pure
function of its key, so entries can be deleted (or the whole directory
``rm -rf``-ed) at any time and :meth:`compact` may evict old evaluation
entries to keep the store bounded.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.io.serialization import atomic_write, document_fingerprint

__all__ = ["EngineStateStore", "StoreCorruptionWarning"]


class StoreCorruptionWarning(UserWarning):
    """A store shard (result file or evaluation line) could not be decoded.

    Raised as a *warning*, never an error: corruption degrades to a cache
    miss and the entry is recomputed.  The message names the offending file
    so an operator can prune it.
    """


#: SHA-256 over canonical JSON — the shared content-key primitive (one
#: definition, so independent writers and readers always agree on keys)
_content_key = document_fingerprint


def _entry_key(entry: Dict) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """The in-context identity of one evaluation entry, or ``None`` if malformed."""
    try:
        return int(entry["group_id"]), tuple(int(v) for v in entry["projection"])
    except (KeyError, TypeError, ValueError):
        return None


class EngineStateStore:
    """Content-keyed, append-only on-disk store of exported engine state.

    Parameters
    ----------
    directory:
        Root of the store (created if missing); ``results/`` and
        ``evaluations/`` shard subtrees live underneath it.
    max_context_entries:
        Bound on the number of evaluation entries kept per context.  When an
        append would push a context past the bound, the context is compacted
        instead: duplicates are dropped and only the newest
        ``max_context_entries`` distinct entries survive.  Matches the
        engine's in-memory evaluation-cache bound by default.

    The write API (:meth:`ingest`) consumes exactly what
    :meth:`~repro.core.engine.MappingEngine.export_results` and
    :meth:`~repro.core.engine.MappingEngine.export_evaluations` produce; the
    read API (:meth:`get_result` / :meth:`load_evaluations`) is what
    :meth:`~repro.core.engine.MappingEngine.attach_store` drives on cache
    misses.  Key derivation (:meth:`result_key` /
    :meth:`evaluation_context`) is part of the public contract: any process
    that can compute the key components can address the store directly.
    """

    #: default per-context evaluation-entry bound (mirrors the engine's
    #: in-memory evaluation LRU)
    DEFAULT_MAX_CONTEXT_ENTRIES = 8192

    def __init__(
        self,
        directory: Union[str, Path],
        max_context_entries: int = DEFAULT_MAX_CONTEXT_ENTRIES,
    ) -> None:
        self.directory = Path(directory)
        self.results_dir = self.directory / "results"
        self.evaluations_dir = self.directory / "evaluations"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.evaluations_dir.mkdir(parents=True, exist_ok=True)
        self.max_context_entries = max_context_entries

    # ------------------------------------------------------------------ #
    # key derivation
    # ------------------------------------------------------------------ #
    @staticmethod
    def result_key(
        spec_hash: str,
        groups: Iterable[Iterable[str]],
        method: str,
        params: Dict,
        config: Dict,
        topology: Optional[str] = None,
    ) -> str:
        """The store key of one full mapping result.

        Covers everything the result is a function of: the order-covering
        spec hash, the resolved smooth-switching grouping, the mapping
        method, the operating point / mapper configuration documents and,
        for a mapping forced onto one topology, that topology's content
        fingerprint.  The fingerprint enters the hashed document only when
        given, so every minimal-topology key is what it always was.
        """
        document = {
            "state": "result",
            "spec_hash": spec_hash,
            "groups": [sorted(group) for group in groups],
            "method": method,
            "params": params,
            "config": config,
        }
        if topology is not None:
            document["topology"] = topology
        return _content_key(document)

    @staticmethod
    def evaluation_context(
        spec_hash: str,
        groups: Iterable[Iterable[str]],
        topology: Dict,
        params: Dict,
        config: Dict,
    ) -> str:
        """The store key of one fixed-placement evaluation *context*.

        A context is everything a group evaluation depends on besides the
        endpoint-placement projection: the spec, the grouping, the concrete
        topology (its canonical document — see
        :func:`repro.io.serialization.topology_to_dict`) and the operating
        point.  All candidate evaluations of one refinement run share a
        single context, which is why they share a single shard file.
        """
        return _content_key(
            {
                "state": "evaluations",
                "spec_hash": spec_hash,
                "groups": [sorted(group) for group in groups],
                "topology": topology,
                "params": params,
                "config": config,
            }
        )

    # ------------------------------------------------------------------ #
    # results: one atomic JSON file per key
    # ------------------------------------------------------------------ #
    def result_path(self, key: str) -> Path:
        """The sharded file one result key lives in."""
        return self.results_dir / key[:2] / f"{key}.json"

    def get_result(self, key: str) -> Optional[Dict]:
        """The stored result entry for a key, or ``None`` on a miss.

        The entry is the :meth:`MappingEngine.export_results` shape
        (``spec_hash`` / ``groups`` / ``method`` / ``result``, plus
        ``topology`` for a forced-topology mapping).  A corrupt
        file warns (:class:`StoreCorruptionWarning`) and counts as a miss.
        """
        target = self.result_path(key)
        try:
            raw = target.read_text()
        except OSError:
            return None
        try:
            document = json.loads(raw)
        except json.JSONDecodeError:
            warnings.warn(
                f"skipping corrupt engine-state result {target}",
                StoreCorruptionWarning,
                stacklevel=2,
            )
            return None
        return document if isinstance(document, dict) else None

    def put_result(self, key: str, entry: Dict) -> bool:
        """Store one exported result entry; returns whether it was written.

        Append-only: an existing key is never overwritten (payloads are pure
        functions of the key, so the incumbent is already correct).  Writes
        go through :func:`~repro.io.serialization.atomic_write`, so a
        concurrent reader never observes a torn entry.
        """
        target = self.result_path(key)
        if target.exists():
            return False
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(target, json.dumps(entry))
        return True

    def result_keys(self) -> Iterator[str]:
        """All result keys currently stored (sorted for determinism)."""
        for entry in sorted(self.results_dir.glob("*/*.json")):
            yield entry.stem

    # ------------------------------------------------------------------ #
    # evaluations: one append-only JSONL shard per context
    # ------------------------------------------------------------------ #
    def evaluation_path(self, context: str) -> Path:
        """The sharded JSONL file one evaluation context lives in."""
        return self.evaluations_dir / context[:2] / f"{context}.jsonl"

    def load_evaluations(
        self, context: str
    ) -> Dict[Tuple[int, Tuple[int, ...]], Dict]:
        """Every stored evaluation entry of one context, keyed in memory.

        Returns ``{(group_id, projection): entry}`` where ``entry`` carries
        the serialised ``outcome`` (``None`` for a cached infeasibility).
        Each shard line holds one appended *batch* (a JSON array of
        entries), so loading a context is a few C-speed parses rather than
        one per entry.  The first occurrence of a key wins — the file is
        append-only, so the first batch is the one every earlier reader
        already observed.  Undecodable lines (a torn tail from a crashed
        writer, external corruption) and malformed entries are skipped with
        a :class:`StoreCorruptionWarning`.
        """
        target = self.evaluation_path(context)
        try:
            raw = target.read_text()
        except OSError:
            return {}
        entries: Dict[Tuple[int, Tuple[int, ...]], Dict] = {}
        corrupt = 0
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                batch = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            if not isinstance(batch, list):
                corrupt += 1
                continue
            for entry in batch:
                key = _entry_key(entry) if isinstance(entry, dict) else None
                if key is None:
                    corrupt += 1
                    continue
                entries.setdefault(key, entry)
        if corrupt:
            warnings.warn(
                f"skipped {corrupt} corrupt line(s)/entrie(s) in engine-state "
                f"shard {target}",
                StoreCorruptionWarning,
                stacklevel=2,
            )
        return entries

    def append_evaluations(self, context: str, entries: Iterable[Dict]) -> int:
        """Append new evaluation entries to a context; returns how many.

        Entries whose ``(group_id, projection)`` key the shard already holds
        are skipped — combined with the engines' never-re-export discipline
        this keeps the shard proportional to *distinct* evaluations, not to
        the number of runs that performed them.  The batch goes out as one
        JSON-array line written with a single ``write`` on an ``O_APPEND``
        descriptor, so concurrent writers never interleave mid-line.  When
        the shard would exceed ``max_context_entries`` the append degrades
        to a compacting rewrite that folds the new entries in and evicts the
        oldest.
        """
        known = self.load_evaluations(context)
        fresh: List[Dict] = []
        seen = set(known)
        for entry in entries:
            key = _entry_key(entry)
            if key is None or key in seen:
                continue
            seen.add(key)
            fresh.append(entry)
        if not fresh:
            return 0
        if len(known) + len(fresh) > self.max_context_entries:
            self._rewrite(context, list(known.values()) + fresh)
            return len(fresh)
        target = self.evaluation_path(context)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(fresh) + "\n"
        descriptor = os.open(
            target, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(descriptor, payload.encode())
        finally:
            os.close(descriptor)
        return len(fresh)

    def _rewrite(self, context: str, entries: List[Dict]) -> None:
        """Atomically replace a context shard with the newest bounded entries."""
        kept = entries[-self.max_context_entries:]
        target = self.evaluation_path(context)
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(target, json.dumps(kept) + "\n" if kept else "")

    def evaluation_contexts(self) -> Iterator[str]:
        """All evaluation contexts currently stored (sorted)."""
        for entry in sorted(self.evaluations_dir.glob("*/*.jsonl")):
            yield entry.stem

    def compact(self) -> Dict[str, int]:
        """Deduplicate and bound every evaluation context; returns stats.

        Rewrites each context shard with duplicates dropped and at most
        ``max_context_entries`` (the newest) retained.  The rewrite is
        atomic per shard; an entry appended by a concurrent writer during
        the rewrite window may be lost, which is acceptable for a cache —
        it would merely be recomputed.  Returns ``{"contexts": ...,
        "entries": ..., "evicted": ...}``.
        """
        contexts = entries_kept = evicted = 0
        for context in list(self.evaluation_contexts()):
            known = list(self.load_evaluations(context).values())
            kept = known[-self.max_context_entries:]
            self._rewrite(context, kept)
            contexts += 1
            entries_kept += len(kept)
            evicted += len(known) - len(kept)
        return {"contexts": contexts, "entries": entries_kept, "evicted": evicted}

    # ------------------------------------------------------------------ #
    # the ingest front door (what executions call after running)
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        results: Iterable[Dict] = (),
        evaluations: Iterable[Dict] = (),
    ) -> Dict[str, int]:
        """Store freshly exported engine state; returns what was written.

        ``results`` is :meth:`MappingEngine.export_results` output;
        ``evaluations`` is :meth:`MappingEngine.export_evaluations` output.
        Both exports already exclude imported entries, and the store skips
        keys it holds, so ingesting is idempotent and the corpus stays
        proportional to distinct computations.  Malformed entries are
        ignored.  Returns ``{"results": ..., "evaluations": ...}`` counts of
        entries actually written.
        """
        stored_results = 0
        for entry in results:
            try:
                result = entry["result"]
                key = self.result_key(
                    entry["spec_hash"],
                    entry["groups"],
                    entry["method"],
                    result["params"],
                    result["config"],
                    entry.get("topology"),
                )
            except (KeyError, TypeError):
                continue
            if self.put_result(key, entry):
                stored_results += 1
        stored_evaluations = 0
        for document in evaluations:
            try:
                context = self.evaluation_context(
                    document["spec_hash"],
                    document["groups"],
                    document["topology"],
                    document["params"],
                    document["config"],
                )
                entries = document["entries"]
            except (KeyError, TypeError):
                continue
            if isinstance(entries, list):
                stored_evaluations += self.append_evaluations(context, entries)
        return {"results": stored_results, "evaluations": stored_evaluations}

    def stats(self) -> Dict[str, int]:
        """Entry counts and on-disk footprint, for telemetry and tests."""
        result_count = sum(1 for _ in self.result_keys())
        contexts = list(self.evaluation_contexts())
        evaluation_count = sum(
            len(self.load_evaluations(context)) for context in contexts
        )
        size = sum(
            path.stat().st_size
            for pattern in ("results/*/*.json", "evaluations/*/*.jsonl")
            for path in self.directory.glob(pattern)
        )
        return {
            "results": result_count,
            "evaluation_contexts": len(contexts),
            "evaluations": evaluation_count,
            "bytes": size,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EngineStateStore({str(self.directory)!r})"
