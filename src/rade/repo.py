"""Transactional content-addressed delivery repository.

On-disk layout:

    <repo>/
      HEAD              "<root_catalog_sha> <revision> <job_id>\\n", swapped by
                        atomic rename -- the only publication visibility point
      lock              exists while a transaction is open (single writer)
      .revision         ASCII decimal + newline, readable without tooling
      objects/ab/cd...  deduplicated content objects named by sha256
      catalogs/ab/cd... canonical catalog documents, also content-addressed

A catalog is line-oriented UTF-8 text, one ``path<TAB>mode<TAB>sha256<TAB>size``
line per entry sorted bytewise by path. Every published catalog carries a
``.revision`` entry whose content is derived from the head revision; it is
materialized at the repo root and synthesized by readers rather than stored in
objects/, so republishing identical content adds zero object-store files.
"""
from __future__ import annotations

import hashlib
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    CorruptHead,
    PathCollision,
    StoreWriteFailure,
    TransactionInProgress,
)

REVISION_FILE = ".revision"

FILE = "file"
EXECUTABLE = "executable"
DIRECTORY = "directory"

_MODES = (FILE, EXECUTABLE, DIRECTORY)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _revision_bytes(revision: int) -> bytes:
    return f"{revision}\n".encode("ascii")


@dataclass(frozen=True)
class ObjectRef:
    sha256: str
    size: int


@dataclass(frozen=True)
class CatalogEntry:
    path: str
    mode: str
    object: ObjectRef | None = None


@dataclass(frozen=True)
class RepoHead:
    root_catalog: ObjectRef
    revision: int
    job_id: str


@dataclass(frozen=True)
class Catalog:
    entries: tuple[CatalogEntry, ...]

    def __post_init__(self):
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise PathCollision("catalog paths must be unique")

    def by_path(self) -> dict[str, CatalogEntry]:
        return {e.path: e for e in self.entries}

    def serialize(self) -> bytes:
        lines = []
        for e in sorted(self.entries, key=lambda e: e.path.encode("utf-8")):
            if e.mode == DIRECTORY:
                sha, size = "-", 0
            else:
                sha, size = e.object.sha256, e.object.size
            lines.append(f"{e.path}\t{e.mode}\t{sha}\t{size}\n")
        return "".join(lines).encode("utf-8")

    @classmethod
    def parse(cls, data: bytes) -> Catalog:
        entries = []
        for lineno, line in enumerate(data.decode("utf-8").splitlines(), 1):
            fields = line.split("\t")
            if len(fields) != 4 or fields[1] not in _MODES:
                raise CorruptHead(f"bad catalog line {lineno}")
            path, mode, sha, size = fields
            ref = None if mode == DIRECTORY else ObjectRef(sha, int(size))
            entries.append(CatalogEntry(path, mode, ref))
        return cls(tuple(entries))


@dataclass
class _StagedFile:
    mode: str
    sha256: str
    size: int
    source: Path


@dataclass
class Transaction:
    id: str
    base: dict[str, CatalogEntry]
    staged: dict[str, _StagedFile] = field(default_factory=dict)
    prefixes: set[str] = field(default_factory=set)
    state: str = "open"


def _check_repo_path(path: str) -> str:
    if not path or path.startswith("/") or "\t" in path or "\n" in path:
        raise PathCollision(f"illegal repository path {path!r}")
    parts = path.split("/")
    if any(part in ("", ".", "..") for part in parts):
        raise PathCollision(f"illegal repository path {path!r}")
    return path


def _under(path: str, prefixes: set[str]) -> bool:
    """True if ``path`` is one of ``prefixes`` or lies below one of them."""
    while path not in prefixes:
        cut = path.rfind("/")
        if cut < 0:
            return False
        path = path[:cut]
    return True


class Repository:
    """Single-writer, many-reader content-addressed repository."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.objects_dir = self.path / "objects"
        self.catalogs_dir = self.path / "catalogs"
        self.head_path = self.path / "HEAD"
        self.lock_path = self.path / "lock"

    # -- bootstrap -----------------------------------------------------

    @classmethod
    def init(cls, path: Path) -> Repository:
        """Create an empty repository (revision 0) unless one already exists."""
        repo = cls(path)
        if repo.head_path.exists():
            return repo
        repo.objects_dir.mkdir(parents=True, exist_ok=True)
        repo.catalogs_dir.mkdir(parents=True, exist_ok=True)
        empty = Catalog(()).serialize()
        repo._write_blob(repo.catalogs_dir, sha256_hex(empty), empty)
        repo._atomic_write(repo.path / REVISION_FILE, _revision_bytes(0))
        repo._atomic_write(
            repo.head_path, f"{sha256_hex(empty)} 0 init\n".encode("ascii")
        )
        return repo

    @classmethod
    def open(cls, path: Path) -> Repository:
        repo = cls(path)
        if not repo.head_path.is_file():
            raise CorruptHead(f"no repository at {path}")
        return repo

    # -- paths ---------------------------------------------------------

    def object_path(self, sha: str) -> Path:
        return self.objects_dir / sha[:2] / sha[2:]

    def catalog_path(self, sha: str) -> Path:
        return self.catalogs_dir / sha[:2] / sha[2:]

    # -- head ----------------------------------------------------------

    def read_head(self) -> RepoHead:
        """Current head; never blocks on the writer lock."""
        try:
            text = self.head_path.read_text(encoding="ascii")
        except OSError as exc:
            raise CorruptHead(f"cannot read HEAD: {exc}") from exc
        parts = text.rstrip("\n").split(" ", 2)
        if len(parts) != 3:
            raise CorruptHead(f"malformed HEAD {text!r}")
        sha, rev_text, job_id = parts
        if len(sha) != 64 or not rev_text.isdigit():
            raise CorruptHead(f"malformed HEAD {text!r}")
        catalog_file = self.catalog_path(sha)
        try:
            size = catalog_file.stat().st_size
        except OSError as exc:
            raise CorruptHead(f"HEAD references missing catalog {sha}") from exc
        return RepoHead(ObjectRef(sha, size), int(rev_text), job_id)

    def read_catalog(self, ref: ObjectRef) -> Catalog:
        data = self.catalog_path(ref.sha256).read_bytes()
        if sha256_hex(data) != ref.sha256:
            raise CorruptHead(f"catalog {ref.sha256} fails its digest")
        return Catalog.parse(data)

    # -- transactions ----------------------------------------------------

    def begin_transaction(self, wait_s: float = 0.0) -> Transaction:
        """Open the single transaction, taking the exclusive writer lock.

        Waits up to ``wait_s`` for a competing writer before raising
        TransactionInProgress.
        """
        tx_id = f"tx-{uuid.uuid4().hex[:12]}"
        deadline = time.monotonic() + wait_s
        while True:
            try:
                fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if time.monotonic() >= deadline:
                    raise TransactionInProgress(
                        f"repository {self.path} already in transaction"
                    ) from None
                time.sleep(0.05)
                continue
            with os.fdopen(fd, "w") as fh:
                fh.write(f"{tx_id} {os.getpid()}\n")
            break
        try:
            head = self.read_head()
            base = self.read_catalog(head.root_catalog).by_path()
        except Exception:
            self.lock_path.unlink(missing_ok=True)
            raise
        return Transaction(id=tx_id, base=base)

    def abort(self, tx: Transaction) -> None:
        if tx.state != "open":
            return
        tx.state = "aborted"
        tx.staged.clear()
        self.lock_path.unlink(missing_ok=True)

    def stage(self, tx: Transaction, source: Path, repo_prefix: str) -> int:
        """Stage a directory tree (or single file) at ``repo_prefix``.

        On publish the staged trees replace whatever the previous catalog
        held under their prefixes. Executables keep their permission bit.
        Restaging identical content is idempotent; different content at an
        already-staged path is a PathCollision.
        """
        if tx.state != "open":
            raise TransactionInProgress(f"transaction {tx.id} is {tx.state}")
        source = Path(source)
        prefix = _check_repo_path(repo_prefix)
        if source.is_file():
            items = [(prefix, source)]
        else:
            items = []
            for child in sorted(source.rglob("*")):
                rel = child.relative_to(source).as_posix()
                items.append((_check_repo_path(f"{prefix}/{rel}"), child))
        count = 0
        for repo_path, fs_path in items:
            if repo_path == REVISION_FILE:
                raise PathCollision(f"{REVISION_FILE} is maintained by publish")
            if fs_path.is_dir():
                if not any(fs_path.iterdir()):
                    tx.staged[repo_path] = _StagedFile(DIRECTORY, "", 0, fs_path)
                    count += 1
                continue
            data = fs_path.read_bytes()
            sha = sha256_hex(data)
            mode = EXECUTABLE if os.access(fs_path, os.X_OK) else FILE
            previous = tx.staged.get(repo_path)
            if previous is not None and previous.sha256 != sha:
                raise PathCollision(
                    f"{repo_path} staged twice with different content"
                )
            tx.staged[repo_path] = _StagedFile(mode, sha, len(data), fs_path)
            count += 1
        tx.prefixes.add(prefix)
        return count

    def publish(self, tx: Transaction, job_id: str) -> RepoHead:
        """Write objects and catalog, bump the revision, and swap HEAD.

        The HEAD rename is the commit point: a failure before it leaves the
        previous head fully intact and the transaction open.
        """
        if tx.state != "open":
            raise TransactionInProgress(f"transaction {tx.id} is {tx.state}")
        head = self.read_head()
        revision = head.revision + 1
        rev_data = _revision_bytes(revision)

        entries = {
            path: entry
            for path, entry in tx.base.items()
            if not _under(path, tx.prefixes)
        }
        for repo_path, staged in tx.staged.items():
            ref = None if staged.mode == DIRECTORY else ObjectRef(staged.sha256, staged.size)
            entries[repo_path] = CatalogEntry(repo_path, staged.mode, ref)
        entries[REVISION_FILE] = CatalogEntry(
            REVISION_FILE, FILE, ObjectRef(sha256_hex(rev_data), len(rev_data))
        )
        catalog = Catalog(tuple(entries.values()))
        data = catalog.serialize()
        catalog_sha = sha256_hex(data)

        try:
            for staged in tx.staged.values():
                if staged.mode == DIRECTORY:
                    continue
                if not self.object_path(staged.sha256).exists():
                    content = staged.source.read_bytes()
                    if sha256_hex(content) != staged.sha256:
                        raise StoreWriteFailure(
                            f"{staged.source} changed since staging"
                        )
                    self._write_blob(self.objects_dir, staged.sha256, content)
            self._write_blob(self.catalogs_dir, catalog_sha, data)
            self._atomic_write(self.path / REVISION_FILE, rev_data)
            self._atomic_write(
                self.head_path,
                f"{catalog_sha} {revision} {job_id}\n".encode("utf-8"),
            )
        except OSError as exc:
            raise StoreWriteFailure(str(exc)) from exc

        tx.state = "published"
        tx.staged.clear()
        self.lock_path.unlink(missing_ok=True)
        return RepoHead(ObjectRef(catalog_sha, len(data)), revision, job_id)

    # -- integrity -------------------------------------------------------

    def verify(self) -> VerifyReport:
        """Recompute every stored digest and check the head's closure."""
        report = VerifyReport()
        for store in (self.objects_dir, self.catalogs_dir):
            for blob in sorted(store.glob("??/*")):
                if blob.name.endswith(".tmp"):
                    continue
                expected = blob.parent.name + blob.name
                report.checked += 1
                if sha256_hex(blob.read_bytes()) != expected:
                    report.bad_objects.append(expected)
        try:
            head = self.read_head()
            catalog = self.read_catalog(head.root_catalog)
        except CorruptHead as exc:
            report.errors.append(str(exc))
            return report
        for entry in catalog.entries:
            if entry.mode == DIRECTORY:
                continue
            if entry.path == REVISION_FILE:
                if sha256_hex(_revision_bytes(head.revision)) != entry.object.sha256:
                    report.errors.append("revision entry disagrees with HEAD")
                continue
            if not self.object_path(entry.object.sha256).exists():
                report.missing_objects.append(entry.object.sha256)
        return report

    def verify_head(self, head: RepoHead) -> None:
        """Raise CorruptHead unless the head's entire closure verifies."""
        data = self.catalog_path(head.root_catalog.sha256).read_bytes()
        if sha256_hex(data) != head.root_catalog.sha256:
            raise CorruptHead(f"catalog {head.root_catalog.sha256} fails its digest")
        for entry in Catalog.parse(data).entries:
            if entry.mode == DIRECTORY:
                continue
            if entry.path == REVISION_FILE:
                if sha256_hex(_revision_bytes(head.revision)) != entry.object.sha256:
                    raise CorruptHead("revision entry disagrees with HEAD")
                continue
            blob = self.object_path(entry.object.sha256)
            if not blob.is_file():
                raise CorruptHead(f"missing object {entry.object.sha256}")
            if sha256_hex(blob.read_bytes()) != entry.object.sha256:
                raise CorruptHead(f"object {entry.object.sha256} fails its digest")

    # -- low level -------------------------------------------------------

    def _write_blob(self, store: Path, sha: str, data: bytes) -> None:
        final = store / sha[:2] / sha[2:]
        if final.exists():
            return
        final.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(final, data)

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        tmp = path.parent / f".{path.name}.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_bytes(data)
        os.replace(tmp, path)


@dataclass
class VerifyReport:
    checked: int = 0
    bad_objects: list[str] = field(default_factory=list)
    missing_objects: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.bad_objects or self.missing_objects or self.errors)
