"""Shared libraries compiled on first use from C sources shipped in the package.

A library is built with the system C compiler into the user's cache,
``$XDG_CACHE_HOME/qubofs`` (default ``~/.cache/qubofs``), under a name keyed
by the source, the compile command and the machine, so a changed source or
compiler flag never loads a stale build. Each build is written to a
temporary file and renamed into place, next to the SHA-256 digest of its
bytes; a file whose digest does not match, such as a truncated one, is
rebuilt rather than loaded. When the cache cannot be written the library is
built in a temporary directory for this process only. Without a compiler, or
when the build or the load fails, ``load_library`` returns None and the
caller keeps its Python path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from importlib import resources
from pathlib import Path

from .fileio import atomic_write_text

COMPILE = ("cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
_COMPILE_TIMEOUT_S = 120


def source(name: str) -> bytes:
    """The C source ``name``.c as shipped in the package."""
    return resources.files(__package__).joinpath(f"{name}.c").read_bytes()


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "qubofs"


def load_library(name: str) -> ctypes.CDLL | None:
    """The library built from ``name``.c, or None if it cannot be built or
    loaded here."""
    code = source(name)
    key = hashlib.sha256(b"\0".join(
        [code, " ".join(COMPILE).encode(), platform.machine().encode()])).hexdigest()[:16]
    filename = f"{name}-{key}.so"
    try:
        directory = _cache_dir()
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        return _load_or_build(directory / filename, code)
    except (OSError, RuntimeError):
        pass  # RuntimeError: no home directory
    import tempfile

    try:
        # a loaded library stays mapped after its file is removed
        with tempfile.TemporaryDirectory(prefix="qubofs-") as directory:
            return _load_or_build(Path(directory) / filename, code)
    except OSError:
        return None


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _compile(code: bytes, out: str) -> None:
    """Compile ``code`` to ``out``; a failed or timed-out compile raises OSError."""
    import subprocess

    try:
        subprocess.run([*COMPILE, "-x", "c", "-", "-o", out, "-lm"], input=code,
                       capture_output=True, check=True, timeout=_COMPILE_TIMEOUT_S)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot compile the kernel: {exc}") from exc


def _load_or_build(path: Path, code: bytes) -> ctypes.CDLL:
    digest_path = path.with_suffix(".sha256")
    try:
        if digest_path.read_text() == _digest(path):
            return ctypes.CDLL(str(path))
    except OSError:
        pass  # missing, damaged or unloadable: build it again
    import tempfile  # only a build needs it, so a cached load skips the import

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        _compile(code, tmp)
        digest = _digest(Path(tmp))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    atomic_write_text(digest_path, digest)
    return ctypes.CDLL(str(path))

