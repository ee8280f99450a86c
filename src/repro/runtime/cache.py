"""On-disk result cache keyed by parameter hash.

Sweep points are pure functions of their parameters, so their results can be
memoized across processes and runs.  Values are pickled to one file per key
under a cache directory; writes are atomic (temp file + rename) so a crashed
or parallel writer never leaves a truncated entry behind.  Corrupt entries
are treated as misses and discarded; transient I/O errors are misses that
leave the entry in place, and temp files leaked by killed writers are reaped
on init and by :meth:`ResultCache.clear`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import os
import pickle
import tempfile
import time
from typing import Any, Iterator, Optional

#: Bump when cached artefact layouts change incompatibly.  Version 2 fixed
#: the key-coercion collision where dict keys were canonicalised through
#: ``str(k)`` (so ``{1: x}`` and ``{"1": x}`` shared a slot); keys now carry
#: a type tag, which legitimately invalidates all version-1 entries.
#: Version 3: the fluid transport reallocates once per simulated instant, so
#: cached results hold utilisation floats whose last bits differ from fresh
#: runs (the per-kind rate sums accumulate in a different order); they must
#: not mix with fresh ones.
CACHE_SCHEMA_VERSION = 3

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def _canonicalise_key(key: Any) -> Any:
    """Canonical form of a dict key: (type tag, canonical value).

    Coercing keys through ``str`` would make ``{1: x}`` and ``{"1": x}`` hash
    identically and serve each other's cached results; the type tag keeps
    equal-looking keys of different types in distinct slots (``bool`` vs
    ``int`` included, since their qualnames differ).
    """
    return ("key", type(key).__qualname__, _canonicalise(key))


def _canonicalise(value: Any) -> Any:
    """Reduce a parameter structure to a deterministic, hashable form."""
    if isinstance(value, dict):
        # Sort by the repr of the canonical (type-tagged) key: mixed-type key
        # sets would make direct tuple comparison raise, while reprs of
        # canonical forms are deterministic and totally ordered.
        items = sorted(
            ((_canonicalise_key(k), _canonicalise(v)) for k, v in value.items()),
            key=lambda kv: repr(kv[0]),
        )
        return ("dict", tuple(items))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canonicalise(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canonicalise(v)) for v in value)))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = tuple(
            (f.name, _canonicalise(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
        return ("dataclass", type(value).__qualname__, fields)
    if isinstance(value, (str, bytes, int, float, bool)) or value is None:
        return value
    # Fall back to repr for anything else (enums, coordinates, ...); reprs in
    # this codebase are stable and value-based.
    return ("repr", type(value).__qualname__, repr(value))


def fingerprinted_files(package_root: Optional[str] = None) -> Iterator[str]:
    """Package-relative paths of every source file the fingerprint covers.

    Walks the live package directory, so *every* subpackage — including ones
    added after a cache was first populated, like ``repro.scenarios`` — is
    covered automatically; nothing enumerates package names that could go
    stale.  ``__pycache__`` and hidden directories are pruned.
    """
    package_root = package_root or _default_package_root()
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__" and not d.startswith(".")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(dirpath, name), package_root)


def _default_package_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _compute_fingerprint(root: str) -> str:
    digest = hashlib.sha256()
    for relpath in fingerprinted_files(root):
        digest.update(relpath.encode("utf-8"))
        with open(os.path.join(root, relpath), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=1)
def _default_fingerprint() -> str:
    return _compute_fingerprint(_default_package_root())


def source_fingerprint(package_root: Optional[str] = None) -> str:
    """Content hash of the ``repro`` package's source files.

    Cached results are only valid for the code that produced them, so the
    runner folds this into every cache key: editing any module under
    ``src/repro`` — the scenario spec schema included — invalidates all
    previously cached artefacts instead of silently serving stale ones.

    ``package_root`` exists for tests (and is recomputed on every call);
    production callers use the memoized default, the installed ``repro``
    package.
    """
    if package_root is None:
        return _default_fingerprint()
    return _compute_fingerprint(package_root)


def parameter_hash(params: Any) -> str:
    """Stable short hash of an arbitrary parameter structure."""
    canonical = repr((CACHE_SCHEMA_VERSION, _canonicalise(params)))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


def default_cache_dir() -> str:
    """Cache directory: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


#: Temp files from a crashed writer older than this are reaped on cache init.
#: Younger ones are left alone: they may belong to a live concurrent writer
#: whose ``os.replace`` has not landed yet.
STALE_TMP_AGE_S = 3600.0


class ResultCache:
    """A directory of pickled results, one file per parameter hash."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or default_cache_dir()
        os.makedirs(self.directory, exist_ok=True)
        self._reap_stale_tmp(max_age_s=STALE_TMP_AGE_S)

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        for name in os.listdir(self.directory):
            if name.endswith(".pkl"):
                yield name[: -len(".pkl")]

    def get(self, key: str, default: Any = None) -> Any:
        """Load a cached value; corrupt or missing entries return ``default``.

        Only genuine corruption (a truncated pickle, a stale class) deletes
        the entry.  Transient I/O failures — ``EACCES``, ``EMFILE``, a flaky
        network mount — are a plain miss that leaves the file in place, so a
        momentary fault never throws away a valid result.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return default
        except (pickle.UnpicklingError, EOFError, AttributeError, ValueError, IndexError):
            # A truncated or stale entry is a miss; drop it so the slot heals.
            with contextlib.suppress(OSError):
                os.remove(path)
            return default
        except OSError:
            return default

    def put(self, key: str, value: Any) -> str:
        """Atomically store a value; returns the entry's path."""
        path = self.path_for(key)
        fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp_path)
            raise
        return path

    def clear(self) -> int:
        """Remove every entry and leftover temp file; returns the count."""
        removed = 0
        for key in list(self.keys()):
            with contextlib.suppress(OSError):
                os.remove(self.path_for(key))
                removed += 1
        return removed + self._reap_stale_tmp(max_age_s=0.0)

    def _reap_stale_tmp(self, *, max_age_s: float) -> int:
        """Remove ``*.tmp`` files older than ``max_age_s`` seconds.

        A writer killed between ``mkstemp`` and ``os.replace`` leaks its temp
        file forever (``keys()`` skips them, so ``clear()`` used to as well).
        Init sweeps only comfortably stale ones to avoid racing a live
        writer; ``clear()`` passes 0.0 to take everything.
        """
        removed = 0
        now = time.time()
        with contextlib.suppress(OSError):
            for name in os.listdir(self.directory):
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(self.directory, name)
                with contextlib.suppress(OSError):
                    if now - os.path.getmtime(path) >= max_age_s:
                        os.remove(path)
                        removed += 1
        return removed
