"""Content-addressed result cache for evidence jobs.

A job's cache key is a SHA-256 over

* the job's identity: name, ``fn`` reference and inputs (canonical
  JSON),
* a *code fingerprint*: the hash of every ``.py`` file in the
  ``repro`` package **plus** the source of the module that defines the
  job function (test jobs live outside the package), and
* the *run mode* (:class:`repro.core.runmode.RunMode`): the
  evaluation settings that change what the workers measure without
  changing any source — backend, shard count and enabled audits.  The
  mode is part of the hashed payload, not a salt appended to the
  fingerprint, so modes never collide and the fingerprint stays
  meaningful in manifests.

So a re-run after any library edit recomputes everything, while a
killed run — or a second invocation on unchanged code in the same
mode — skips straight to the stored verdicts.  Entries are one JSON
file per key, written atomically (tmp + rename) so a killed writer
never leaves a torn entry.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
from pathlib import Path
from typing import Optional

from repro.core.runmode import RunMode
from repro.harness.job import Job, JobResult

#: bump to invalidate every existing cache entry on format changes
CACHE_SCHEMA = 4  # 2: results carry certificates; 3: structured
                  # run-mode dict in the key (optimize, backend); 4:
                  # the full RunMode in the key, audits in the results


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def code_fingerprint(package_dir: Optional[Path] = None) -> str:
    """Hash of all ``.py`` sources under the ``repro`` package.

    Deterministic: files are walked in sorted relative-path order and
    each contributes ``(relpath, sha256(content))``.
    """
    if package_dir is None:
        import repro

        package_dir = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        rel = path.relative_to(package_dir).as_posix()
        digest.update(rel.encode())
        digest.update(_hash_bytes(path.read_bytes()).encode())
    return digest.hexdigest()


def _module_source_hash(module_name: str) -> str:
    """Hash of the source file defining ``module_name`` (no import).

    Falls back to the module name itself when the source cannot be
    located (frozen modules, REPL definitions) — the job then caches on
    the package fingerprint alone.
    """
    try:
        spec = importlib.util.find_spec(module_name)
    except (ImportError, ValueError):
        spec = None
    if spec is None or not spec.origin or not os.path.exists(spec.origin):
        return f"unresolved:{module_name}"
    return _hash_bytes(Path(spec.origin).read_bytes())


class ResultCache:
    """Directory of ``<key>.json`` entries, one per completed job."""

    def __init__(
        self,
        root: Path,
        fingerprint: Optional[str] = None,
        mode: RunMode = RunMode(),
    ) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        #: evaluation settings keyed into every entry; results computed
        #: under one mode are never served to a run in another
        self.mode = mode
        self._module_hashes: dict[str, str] = {}

    def key(self, job: Job) -> str:
        module_name = job.fn.partition(":")[0]
        if module_name not in self._module_hashes:
            self._module_hashes[module_name] = _module_source_hash(
                module_name
            )
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "name": job.name,
                "fn": job.fn,
                "inputs": dict(job.inputs),
                "code": self.fingerprint,
                "fn_module": self._module_hashes[module_name],
                "mode": self.mode.as_dict(),
            },
            sort_keys=True,
            default=str,
        )
        return _hash_bytes(payload.encode())

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, job: Job) -> Optional[JobResult]:
        """The stored result for ``job``, or None.

        The ``expected`` verdict is re-read from the *current* job
        declaration, so editing the registry's expectation (without a
        code change elsewhere) still re-diffs cached verdicts.
        """
        path = self._path(self.key(job))
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        result = JobResult.from_dict(data)
        result.expected = job.expected
        result.cached = True
        return result

    def store(self, job: Job, result: JobResult) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(self.key(job))
        data = result.as_dict()
        data["cached"] = False
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data, sort_keys=True))
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
