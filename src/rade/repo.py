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

The writer and the site client handle a catalog as its digest-checked lines:
the serialization is canonical, so two entries are equal exactly when their
lines are, and only the lines two catalogs do not share are parsed.
"""
from __future__ import annotations

import hashlib
import os
import time
import uuid
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    CorruptHead,
    PathCollision,
    RadeError,
    StoreWriteFailure,
    TransactionInProgress,
)

REVISION_FILE = ".revision"

FILE = "file"
EXECUTABLE = "executable"
DIRECTORY = "directory"

_MODES = (FILE, EXECUTABLE, DIRECTORY)

CHUNK_SIZE = 1 << 16  # bytes read at a time when a file is hashed or copied


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_file(path: Path) -> tuple[str, int]:
    """The sha256 and size of a file, read in CHUNK_SIZE pieces."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(CHUNK_SIZE):
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def copy_hashed(source: Path, dest: Path) -> tuple[str, int]:
    """Copy ``source`` to a new file ``dest`` in CHUNK_SIZE pieces; return the
    sha256 and size of the bytes copied. The caller checks the digest before
    it renames ``dest`` into place."""
    digest = hashlib.sha256()
    size = 0
    with open(source, "rb") as src, open(dest, "wb") as out:
        while chunk := src.read(CHUNK_SIZE):
            digest.update(chunk)
            out.write(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


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


def entry_line(path: str, mode: str, sha: str, size: int) -> bytes:
    """The catalog line of one entry, without its newline."""
    if mode == DIRECTORY:
        sha, size = "-", 0
    return f"{path}\t{mode}\t{sha}\t{size}".encode("utf-8")


def line_path(line: bytes) -> bytes:
    """The path bytes of a catalog line: catalogs are sorted by these, which
    is not the order of the lines themselves when a path holds a byte below
    TAB."""
    return line[: line.index(b"\t")]


def parse_line(line: bytes) -> CatalogEntry:
    try:
        path, mode, sha, size = line.decode("utf-8").split("\t")
        if mode not in _MODES:
            raise ValueError(mode)
        ref = None if mode == DIRECTORY else ObjectRef(sha, int(size))
    except ValueError:
        raise CorruptHead(f"bad catalog line {line[:120]!r}") from None
    return CatalogEntry(path, mode, ref)


def split_lines(data: bytes) -> list[bytes]:
    """A catalog's lines without their newlines. Only LF ends a line: a path
    may hold any other control character."""
    lines = data.split(b"\n")
    if lines.pop():
        raise CorruptHead("catalog does not end with a newline")
    return lines


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
        return cls(tuple(map(parse_line, split_lines(data))))


@dataclass
class _StagedFile:
    mode: str
    sha256: str
    size: int
    source: Path


@dataclass
class Transaction:
    id: str
    base: list[bytes]  # the head catalog's lines when the transaction began
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


def _splice(base: list[bytes], prefixes: set[str], added: list[bytes]) -> list[bytes]:
    """The sorted catalog lines ``base`` without every path under ``prefixes``,
    merged with ``added``, whose lines replace any of the same path.

    A prefix's own path and the run of paths that start with ``prefix/`` are
    each found by bisection, so the work beyond copying the kept slices grows
    with the prefixes and the added lines, not with the catalog.
    """
    drop = []
    for prefix in prefixes:
        key = prefix.encode("utf-8")
        at = bisect_left(base, key, key=line_path)
        if at < len(base) and line_path(base[at]) == key:
            drop.append((at, at + 1))
        # "0" is the byte after "/": [prefix/, prefix0) holds every path below.
        drop.append((
            bisect_left(base, key + b"/", lo=at, key=line_path),
            bisect_left(base, key + b"0", lo=at, key=line_path),
        ))
    kept, start = [], 0
    for lo, hi in sorted(drop):
        kept += base[start:lo]
        start = max(start, hi)
    kept += base[start:]

    out, start = [], 0
    for line in sorted(added, key=line_path):
        key = line_path(line)
        at = bisect_left(kept, key, lo=start, key=line_path)
        out += kept[start:at]
        out.append(line)
        start = at + (at < len(kept) and line_path(kept[at]) == key)
    out += kept[start:]
    return out


def _check_file_parents(lines: list[bytes], paths) -> None:
    """Raise PathCollision if the sorted catalog ``lines`` holds a proper
    ancestor of one of ``paths`` as a file or executable: no site could
    materialize it. A published head holds no such pair, so only the new
    paths' ancestors are looked up, by bisection."""
    ancestors = {path[:at] for path in paths for at, c in enumerate(path) if c == "/"}
    for ancestor in sorted(ancestors):
        key = ancestor.encode("utf-8")
        at = bisect_left(lines, key, key=line_path)
        if (
            at < len(lines)
            and line_path(lines[at]) == key
            and parse_line(lines[at]).mode != DIRECTORY
        ):
            raise PathCollision(f"{ancestor} is a file and the parent of another path")


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
        empty = b""  # the catalog with no entries
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

    def catalog_lines(
        self, sha: str, error: type[RadeError] = CorruptHead
    ) -> list[bytes]:
        """The lines of a stored catalog, raising ``error`` unless it matches
        its digest. The one way every reader gets at a catalog."""
        data = self.catalog_path(sha).read_bytes()
        if sha256_hex(data) != sha:
            raise error(f"catalog {sha} fails its digest")
        return split_lines(data)

    def read_catalog(self, ref: ObjectRef) -> Catalog:
        return Catalog(tuple(map(parse_line, self.catalog_lines(ref.sha256))))

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
            base = self.catalog_lines(self.read_head().root_catalog.sha256)
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
            sha, size = hash_file(fs_path)
            mode = EXECUTABLE if os.access(fs_path, os.X_OK) else FILE
            previous = tx.staged.get(repo_path)
            if previous is not None and previous.sha256 != sha:
                raise PathCollision(
                    f"{repo_path} staged twice with different content"
                )
            tx.staged[repo_path] = _StagedFile(mode, sha, size, fs_path)
            count += 1
        tx.prefixes.add(prefix)
        return count

    def publish(self, tx: Transaction, job_id: str) -> RepoHead:
        """Write objects and catalog, bump the revision, and swap HEAD.

        The new catalog is the base's lines with every path under a staged
        prefix dropped, merged with the staged lines and the new ``.revision``
        line. A catalog in which a file would be the parent of another path
        is a PathCollision, raised before anything is written. The HEAD
        rename is the commit point: a failure before it leaves the previous
        head fully intact and the transaction open.
        """
        if tx.state != "open":
            raise TransactionInProgress(f"transaction {tx.id} is {tx.state}")
        head = self.read_head()
        revision = head.revision + 1
        rev_data = _revision_bytes(revision)

        added = [
            entry_line(path, s.mode, s.sha256, s.size) for path, s in tx.staged.items()
        ]
        added.append(entry_line(REVISION_FILE, FILE, sha256_hex(rev_data), len(rev_data)))
        lines = _splice(tx.base, tx.prefixes, added)
        _check_file_parents(lines, tx.staged)
        data = b"".join(line + b"\n" for line in lines)
        catalog_sha = sha256_hex(data)

        try:
            for staged in tx.staged.values():
                if staged.mode != DIRECTORY:
                    self._store_object(staged)
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

    def _store_object(self, staged: _StagedFile) -> None:
        final = self.object_path(staged.sha256)
        if final.exists():
            return
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.parent / f".{final.name}.{uuid.uuid4().hex[:8]}.tmp"
        try:
            if copy_hashed(staged.source, tmp)[0] != staged.sha256:
                raise StoreWriteFailure(f"{staged.source} changed since staging")
            os.replace(tmp, final)
        finally:
            tmp.unlink(missing_ok=True)

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
                if hash_file(blob)[0] != expected:
                    report.bad_objects.append(expected)
        try:
            self._check_closure(self.read_head(), report, rehash=False)
        except CorruptHead as exc:
            report.errors.append(str(exc))
        return report

    def verify_head(self, head: RepoHead) -> None:
        """Raise CorruptHead unless the head's entire closure verifies."""
        report = VerifyReport()
        self._check_closure(head, report, rehash=True)
        if not report.ok:
            raise CorruptHead(report.problems()[0])

    def _check_closure(self, head: RepoHead, report: VerifyReport, rehash: bool) -> None:
        """Record in ``report`` what is wrong with ``head``'s closure: its
        ``.revision`` entry and each object it names, re-hashed if ``rehash``.
        Raises CorruptHead if its catalog fails its digest or does not parse."""
        for line in self.catalog_lines(head.root_catalog.sha256):
            entry = parse_line(line)
            if entry.mode == DIRECTORY:
                continue
            sha = entry.object.sha256
            if entry.path == REVISION_FILE:
                if sha256_hex(_revision_bytes(head.revision)) != sha:
                    report.errors.append("revision entry disagrees with HEAD")
            elif not self.object_path(sha).is_file():
                report.missing_objects.append(sha)
            elif rehash and hash_file(self.object_path(sha))[0] != sha:
                report.bad_objects.append(sha)

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

    def problems(self) -> list[str]:
        """One line per problem found."""
        return (
            [f"object {sha} fails its digest" for sha in self.bad_objects]
            + [f"missing object {sha}" for sha in self.missing_objects]
            + self.errors
        )
