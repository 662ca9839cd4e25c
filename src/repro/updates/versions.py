"""Versioned feature-store roots with an atomic current-version pointer.

A store published by preprocessing lives at its ``root`` directory — that is
version ``"base"``.  Incremental updates never mutate a published version;
each update stages a full store copy, patches it, and publishes it as
``<root>.versions/vNNNN/``, then atomically repoints the ``CURRENT`` file.
Readers resolve ``CURRENT`` once at open and keep reading their pinned
version's files for as long as they hold them open — published version
directories are immutable, so a reader can never observe a torn row.

Layout::

    <root>/                  # version "base" (what preprocessing wrote)
    <root>.versions/
        CURRENT              # one line: the active version name
        LINEAGE.json         # each version's identity (see below)
        v0001/               # complete, immutable store directories
        v0002/
        .staging/            # the in-flight update (journal + staged store)

``CURRENT`` is written via write-temp + fsync + ``os.replace`` + directory
fsync, the same publish discipline as the phase-journal manifest: the pointer
either names the old version or the new one, never a torn in-between.  Old
versions are kept until :meth:`VersionedStore.prune` — never pruned
automatically, because a serving engine may still be pinned to one.

``LINEAGE.json`` maps a version to its recorded identity: the fingerprint of
the update that produced it, plus that update's source version and the
source's fingerprint.  An update's identity chains off its source's record
(:func:`repro.updates.apply.apply_update`), so no update ever re-hashes the
graph or the store; the record is written before the version is renamed into
place, so every published version has one.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from pathlib import Path
from typing import Dict, List, Optional

from repro.prepropagation.store import FeatureStore

__all__ = ["VersionedStore", "BASE_VERSION"]

#: the name of the version preprocessing itself publishes (the store root)
BASE_VERSION = "base"

_CURRENT_FILENAME = "CURRENT"
_LINEAGE_FILENAME = "LINEAGE.json"
_STAGING_DIRNAME = ".staging"
_VERSION_PATTERN = re.compile(r"^v(\d{4,})$")


class VersionedStore:
    """Resolve, publish and enumerate the versions of one store root."""

    def __init__(self, base_root: Path) -> None:
        self.base_root = Path(base_root)
        self.versions_root = self.base_root.parent / f"{self.base_root.name}.versions"
        self.current_path = self.versions_root / _CURRENT_FILENAME
        self.lineage_path = self.versions_root / _LINEAGE_FILENAME

    # ------------------------------------------------------------------ #
    def current_version(self) -> str:
        """The active version name (``"base"`` until an update published)."""
        try:
            name = self.current_path.read_text().strip()
        except FileNotFoundError:
            return BASE_VERSION
        if name != BASE_VERSION and not _VERSION_PATTERN.match(name):
            raise ValueError(f"corrupt version pointer {self.current_path}: {name!r}")
        return name

    def path_for(self, version: str) -> Path:
        if version == BASE_VERSION:
            return self.base_root
        if not _VERSION_PATTERN.match(version):
            raise ValueError(f"invalid version name {version!r}")
        return self.versions_root / version

    def current_root(self) -> Path:
        return self.path_for(self.current_version())

    def load_current(self) -> tuple[FeatureStore, str]:
        """Open the active version; the returned store stays pinned to it."""
        version = self.current_version()
        return FeatureStore.load(self.path_for(version)), version

    # ------------------------------------------------------------------ #
    def list_versions(self) -> List[str]:
        """Published update versions, oldest first (``"base"`` not included)."""
        if not self.versions_root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.versions_root.iterdir()
            if entry.is_dir() and _VERSION_PATTERN.match(entry.name)
        )

    def next_version(self) -> str:
        published = self.list_versions()
        last = int(_VERSION_PATTERN.match(published[-1]).group(1)) if published else 0
        return f"v{last + 1:04d}"

    @property
    def staging_root(self) -> Path:
        return self.versions_root / _STAGING_DIRNAME

    # ------------------------------------------------------------------ #
    def publish(self, staged_store: Path, target: str) -> Path:
        """Rename a staged store directory into place and repoint ``CURRENT``.

        ``target`` must be an unpublished version name (``CURRENT`` never
        points at it yet), so removing a half-renamed leftover from a previous
        crashed attempt is safe.
        """
        target_dir = self.path_for(target)
        if target == self.current_version():
            raise ValueError(f"version {target!r} is already current")
        self.versions_root.mkdir(parents=True, exist_ok=True)
        if target_dir.exists():
            shutil.rmtree(target_dir)
        Path(staged_store).replace(target_dir)
        self.set_current(target)
        return target_dir

    def set_current(self, version: str) -> None:
        """Atomically (write-temp + fsync + replace + dir fsync) repoint CURRENT."""
        if version != BASE_VERSION and not _VERSION_PATTERN.match(version):
            raise ValueError(f"invalid version name {version!r}")
        self._replace_file(self.current_path, version + "\n")

    def lineage(self) -> Dict[str, dict]:
        """``{version: {"fingerprint", "source_version", "source_fingerprint"}}``."""
        try:
            return json.loads(self.lineage_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return {}

    def record_lineage(
        self,
        version: str,
        fingerprint: str,
        source_version: Optional[str] = None,
        source_fingerprint: Optional[str] = None,
    ) -> None:
        """Durably record ``version``'s identity (replacing any earlier record)."""
        records = self.lineage()
        records[version] = {
            "fingerprint": fingerprint,
            "source_version": source_version,
            "source_fingerprint": source_fingerprint,
        }
        self._write_lineage(records)

    def _write_lineage(self, records: Dict[str, dict]) -> None:
        self._replace_file(self.lineage_path, json.dumps(records, indent=2, sort_keys=True))

    def _replace_file(self, path: Path, text: str) -> None:
        self.versions_root.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(".tmp")
        with open(temp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        try:
            fd = os.open(self.versions_root, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

    def prune(self, keep: int = 2) -> List[str]:
        """Delete published versions older than the newest ``keep``.

        Never automatic, never touches ``base`` or the current version:
        readers may hold any version open, so pruning is an explicit operator
        decision.
        """
        if keep < 0:
            raise ValueError("keep must be non-negative")
        current = self.current_version()
        candidates = [v for v in self.list_versions() if v != current]
        doomed = candidates[: max(0, len(candidates) - keep)]
        for version in doomed:
            shutil.rmtree(self.versions_root / version, ignore_errors=True)
        records = self.lineage()
        if any([records.pop(version, None) for version in doomed]):
            self._write_lineage(records)
        return doomed
