"""Fleet-wide persistence of generated ``compiled``-backend kernels.

The :mod:`repro.wse.codegen` layer memoises compiled kernels per process,
keyed by content fingerprint.  This store extends that reuse across
processes and hosts sharing a cache directory: kernel *source text* is
persisted as ``kernels/<fingerprint>.py`` under the same
``REPRO_CACHE_DIR`` root the compile and run artifact stores use, so a
fleet member that already paid code generation for a plan leaves the
source behind for everyone else (they still ``exec`` it locally — source,
not code objects, is the portable artifact).

The fingerprint covers the printed program module, the plan's canonical
form and :data:`~repro.wse.codegen.CODEGEN_VERSION`, so stale sources are
simply never looked up again after a semantics change.  Writes are atomic
(tempfile + ``os.replace``) for the same reason the artifact stores' are:
concurrent fleet members may race on one fingerprint, and the losers must
still observe a complete file.

Native-tier shared libraries (:mod:`repro.wse.native`) live beside the
sources as ``kernels/<key>.so``.  Their key hashes the C source together
with the compiler identity, the build flags and the host ISA, so a host
with another compiler or architecture builds its own instead of loading a
foreign binary.  They are built in a private directory under ``kernels/``
and moved into place atomically.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.service.cache import resolve_cache_directory


class KernelSourceStore:
    """On-disk generated-kernel sources: ``kernels/<fingerprint>.py``."""

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = resolve_cache_directory(directory) / "kernels"

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.py"

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.py"))

    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).is_file()

    def get(self, fingerprint: str) -> str | None:
        """The stored kernel source, or None when absent/unreadable."""
        try:
            return self._path(fingerprint).read_text(encoding="utf-8")
        except OSError:
            return None

    def put(self, fingerprint: str, source: str) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=self.directory,
            prefix=f".{fingerprint[:12]}.",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(source)
            os.replace(handle.name, self._path(fingerprint))
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def library_path(self, key: str) -> Path:
        """Where the native library of one library key lives."""
        return self.directory / f"{key}.so"

    def put_library(self, key: str, built: Path) -> Path:
        """Move a freshly built library into place (same filesystem:
        ``built`` must lie under :attr:`directory`); returns its path."""
        path = self.library_path(key)
        os.replace(built, path)
        return path

    def libraries(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.so"))

    def total_bytes(self) -> int:
        if not self.directory.is_dir():
            return 0
        total = 0
        for path in self.directory.glob("*.py"):
            try:
                total += path.stat().st_size
            except OSError:
                # Concurrently purged by another process; stale-by-one is fine.
                pass
        return total

    def purge(self) -> int:
        """Remove every kernel source and native library; returns the
        number of sources removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.so"):
                try:
                    path.unlink()
                except OSError:
                    pass
            for path in self.directory.glob("*.py"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
