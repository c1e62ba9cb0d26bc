"""A :class:`repro.storage.fs.FileSystem` that counts what the store writes.

Passed to ``FerretSystem(..., fs=...)`` in the traced run; every file the
store opens for writing is wrapped so bytes written are counted per
path, and fsyncs are counted.  Import it after ``common.import_program()``.
"""

from __future__ import annotations

import os
import threading
from typing import BinaryIO, Dict

from repro.storage.fs import OsFileSystem


class _CountingFile:
    """Proxy of one open file that reports its writes to the owner."""

    def __init__(self, owner, path: str, raw: BinaryIO) -> None:
        self._owner = owner
        self._path = path
        self._raw = raw

    def write(self, data) -> int:
        written = self._raw.write(data)
        self._owner._wrote(self._path, written)
        return written

    def __getattr__(self, name):
        return getattr(self._raw, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._raw.close()


class CountingFileSystem(OsFileSystem):
    """The real filesystem, counting bytes written per path of every
    file opened for writing, and fsyncs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.bytes_written: Dict[str, int] = {}
        self.fsyncs = 0

    def open(self, path: str, mode: str):
        raw = super().open(path, mode)
        if any(flag in mode for flag in "wa+"):
            with self._lock:
                self.bytes_written.setdefault(path, 0)
            return _CountingFile(self, path, raw)
        return raw

    def fsync(self, fileobj) -> None:
        super().fsync(fileobj)
        with self._lock:
            self.fsyncs += 1

    def _wrote(self, path: str, count: int) -> None:
        with self._lock:
            self.bytes_written[path] = self.bytes_written.get(path, 0) + count

    def written(self, prefix: str = "") -> int:
        """Bytes written to files whose name starts with ``prefix``."""
        with self._lock:
            return sum(
                n
                for p, n in self.bytes_written.items()
                if os.path.basename(p).startswith(prefix)
            )
