"""Disk cache for coset tables.

Keys hash the canonical presentation text (so whitespace-only edits still
hit) together with the enumeration algorithm version; payloads carry their
own checksum.  Anything off -- bad JSON, bad checksum, different version,
a table that fails ``cosets.validate`` -- is treated as a miss and
recomputed, never trusted.
"""

from __future__ import annotations

import json
import os

from .cosets import (
    ALGORITHM_VERSION,
    CosetTable,
    DEFAULT_COSET_CAP,
    TRIVIAL_SUBGROUP,
    enumerate_cosets,
    validate,
)
from .words import Presentation, SubgroupSpec, serialize_presentation


def _canonical(pres: Presentation, spec: SubgroupSpec | None) -> str:
    # A table enumerated without a spec carries TRIVIAL_SUBGROUP.
    return serialize_presentation(pres, [TRIVIAL_SUBGROUP if spec is None else spec])


def _sha256(text: str) -> str:
    # CPython's built-in SHA-256 gives the same digests as hashlib's, without
    # mapping OpenSSL (about 2-4 MB of peak RSS for one digest); hashlib is
    # the fallback for builds without it.
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    return sha256(text.encode("utf-8")).hexdigest()


def cache_key(pres: Presentation, spec: SubgroupSpec | None = None) -> str:
    return _sha256(ALGORITHM_VERSION + "\n" + _canonical(pres, spec))


def _checksum(payload) -> str:
    return _sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def serialize_table(table: CosetTable) -> str:
    payload = {
        "version": ALGORITHM_VERSION,
        "presentation": _canonical(table.pres, table.spec),
        "perms": [list(p) for p in table.perms],
    }
    return json.dumps({"payload": payload, "checksum": _checksum(payload)})


def deserialize_table(
    text: str, pres: Presentation, spec: SubgroupSpec | None
) -> CosetTable:
    """Rebuild a table against the caller's presentation objects.

    Raises ValueError on any integrity problem; callers treat that as a
    cache miss.
    """
    obj = json.loads(text)
    payload = obj.get("payload")
    if not isinstance(payload, dict) or obj.get("checksum") != _checksum(payload):
        raise ValueError("cache entry failed its checksum")
    if payload.get("version") != ALGORITHM_VERSION:
        raise ValueError(
            f"cache entry written by {payload.get('version')!r}, "
            f"expected {ALGORITHM_VERSION!r}"
        )
    if payload.get("presentation") != _canonical(pres, spec):
        raise ValueError("cache entry is for a different presentation")
    perms = payload.get("perms")
    if not (
        isinstance(perms, list)
        and len(perms) == pres.rank
        and all(isinstance(p, list) and len(p) == len(perms[0]) > 0 for p in perms)
        and all(type(x) is int and 0 <= x < len(p) for p in perms for x in p)
    ):
        raise ValueError("cache entry does not hold one permutation list per generator")
    table = CosetTable(
        pres=pres,
        perms=tuple(tuple(p) for p in perms),
        spec=spec,
        provenance="cache",
    )
    problems = validate(table)
    if problems:
        raise ValueError("cache entry is not a valid coset table: " + "; ".join(problems))
    return table


class TableCache:
    """Cached front end to enumerate_cosets with hit/miss instrumentation.

    ``directory=None`` disables caching (every call enumerates).
    """

    def __init__(self, directory=None):
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.directory, self.hits, self.misses) == (
            other.directory, other.hits, other.misses
        )

    @property
    def enabled(self) -> bool:
        return bool(self.directory)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def enumerate(
        self,
        pres: Presentation,
        spec: SubgroupSpec | None = None,
        cap: int = DEFAULT_COSET_CAP,
    ) -> CosetTable:
        if not self.enabled:
            self.misses += 1
            return enumerate_cosets(pres, spec, cap=cap)
        key = cache_key(pres, spec)
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                table = deserialize_table(fh.read(), pres, spec)
            self.hits += 1
            return table
        except (OSError, ValueError, json.JSONDecodeError):
            pass
        table = enumerate_cosets(pres, spec, cap=cap)
        self.misses += 1
        import tempfile

        os.makedirs(self.directory, exist_ok=True)
        # A private temp file per writer: concurrent writers of one key each
        # replace the entry atomically instead of racing on a shared name.
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(serialize_table(table))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return table
