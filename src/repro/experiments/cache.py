"""Content-addressed on-disk cache for simulated cells.

Paper-precision cells take minutes each, yet a cell's outcome is a pure
function of its inputs: the kernel is deterministic, every random draw
derives from the parameter cell's ``seed``, and the stopping rule is
part of the configuration.  This module exploits that purity.  A cell's
cache key is the SHA-256 of the canonical JSON encoding of

``(parameter class, parameters, StoppingConfig, FORMAT_VERSION,
repro version)``

so any change to a parameter, the stopping rule, the persistence format
or the installed release addresses a different entry — stale hits are
structurally impossible without manual tampering.  Values are
serialized :class:`~repro.workload.clientserver.WorkloadResult`
documents (one JSON file per cell, in the persistence codec), for the
figures' cells, their sharded plans and the outlook studies' alike.

The cache directory resolves, in order, to an explicit ``root``
argument, the ``REPRO_CACHE_DIR`` environment variable, and finally
``~/.cache/repro-objmig``.  Wipe it with :meth:`CellCache.wipe` or
simply ``rm -rf`` the directory; entries are self-contained files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

from repro._version import __version__
from repro.experiments.persistence import (
    FORMAT_VERSION,
    cell_from_dict,
    cell_to_dict,
    params_to_dict,
    params_type,
)
from repro.sim.stopping import StoppingConfig
from repro.workload.clientserver import WorkloadResult

#: Environment variable overriding the default cache location.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Default cache location when neither ``root`` nor the environment
#: variable is set.
DEFAULT_CACHE_DIR = "~/.cache/repro-objmig"


def resolve_cache_dir(root: Union[str, Path, None] = None) -> Path:
    """The cache directory: explicit ``root`` > $REPRO_CACHE_DIR > default."""
    if root is not None:
        return Path(root).expanduser()
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    return Path(DEFAULT_CACHE_DIR).expanduser()


def cell_key(params, stopping: Optional[StoppingConfig] = None) -> str:
    """Content address of one cell (hex SHA-256).

    Canonical JSON (sorted keys, no whitespace) over the full parameter
    cell, the stopping rule, the persistence format version and the
    package version.  Every field that can influence a cell's outcome
    is part of the digest.
    """
    payload = {
        "format_version": FORMAT_VERSION,
        "version": __version__,
        "params_type": params_type(params),
        "params": params_to_dict(params),
        "stopping": None if stopping is None else asdict(stopping),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CellCache:
    """Dictionary-on-disk of ``cell_key -> WorkloadResult``.

    Parameters
    ----------
    root:
        Cache directory (default: see :func:`resolve_cache_dir`).  It
        is created lazily on the first :meth:`put`.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = resolve_cache_dir(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def path_for(
        self, params, stopping: Optional[StoppingConfig] = None
    ) -> Path:
        """The file a cell's result lives in (whether or not it exists)."""
        return self.root / f"{cell_key(params, stopping)}.json"

    def get(
        self, params, stopping: Optional[StoppingConfig] = None
    ) -> Optional[WorkloadResult]:
        """The cached result for a cell, or ``None`` on a miss.

        Unreadable or corrupt entries count as misses (the cache must
        never be able to fail an experiment).
        """
        path = self.path_for(params, stopping)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return cell_from_dict(data, params)

    def put(
        self,
        params,
        stopping: Optional[StoppingConfig],
        result: WorkloadResult,
    ) -> Path:
        """Store a cell's result; returns the entry's path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(params, stopping)
        document = {
            "format_version": FORMAT_VERSION,
            "version": __version__,
            **cell_to_dict(result),
        }
        # Write-then-rename so concurrent readers never see a torn file.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(document, indent=2))
        tmp.replace(path)
        self.writes += 1
        return path

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def wipe(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - concurrent wipe
                    pass
        return removed

    def __repr__(self) -> str:
        return (
            f"<CellCache root={str(self.root)!r} hits={self.hits} "
            f"misses={self.misses} writes={self.writes}>"
        )
