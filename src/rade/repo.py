"""Transactional content-addressed delivery repository.

On-disk layout:

    <repo>/
      HEAD              "<root_catalog_sha> <revision> <job_id>\\n", swapped by
                        atomic rename -- the only publication visibility point
      lock              flock-ed by the one open transaction; the kernel
                        drops the lock when its holder exits or dies
      .revision         ASCII decimal + newline, readable without tooling
      objects/ab/cd...  deduplicated content objects named by sha256
      objects/.stage.*.tmp  an open transaction's pending objects
      catalogs/ab/cd... canonical catalog documents, also content-addressed

Staging reads each payload file once: it hashes the bytes and, unless their
object is stored or pending already, writes them to a temporary under
``objects/`` as it goes. A file of more than one chunk is first compared
byte for byte with the last pending object of its size, so such a duplicate
within a transaction is neither hashed nor written. Publish only renames the
pending temporaries into place before it writes the catalog; an abort
removes them, and the next transaction sweeps those a killed writer left. A
payload that staging refuses (see ``_payload``) fails with
InvariantViolation, a store that cannot be written with StoreWriteFailure.

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

import fcntl
import hashlib
import os
import stat
import time
import uuid
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    CorruptHead,
    InvariantViolation,
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


def _temporary(dest: Path) -> Path:
    """A unique name next to ``dest``, so concurrent writers of one path and
    readers of the directory never meet a half-written ``dest``."""
    return dest.parent / f".{dest.name}.{uuid.uuid4().hex[:8]}.tmp"


def write_atomic(path: Path, data: bytes, mode: int | None = None) -> None:
    """Replace ``path`` with ``data``: a reader sees the old bytes or the new,
    and a failure leaves no temporary behind. A ``mode`` is set before the
    file appears, so it is never visible with any other."""
    tmp = _temporary(path)
    try:
        tmp.write_bytes(data)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # already gone once replaced


def copy_verified(
    source: Path, dest: Path, sha256: str, mode: int | None = None
) -> int | None:
    """Copy ``source`` to ``dest`` in CHUNK_SIZE pieces if the bytes copied
    hash to ``sha256``, and return their size. Otherwise return None and leave
    ``dest`` as it was. Like :func:`write_atomic`, it leaves no temporary and
    sets a ``mode`` before ``dest`` appears."""
    tmp = _temporary(dest)
    digest = hashlib.sha256()
    size = 0
    try:
        with open(source, "rb") as src, open(tmp, "wb") as out:
            while chunk := src.read(CHUNK_SIZE):
                digest.update(chunk)
                out.write(chunk)
                size += len(chunk)
        if digest.hexdigest() != sha256:
            return None
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, dest)
        return size
    finally:
        tmp.unlink(missing_ok=True)  # already gone once replaced


def _unstageable(repo_path: str, reason: str) -> InvariantViolation:
    return InvariantViolation(f"cannot stage {repo_path}: {reason}")


def _payload(
    source: Path, prefix: str, root: Path
) -> Iterator[tuple[str, str, os.stat_result | None]]:
    """(repo path, path, stat) of each file that staging ``source`` at
    ``prefix`` publishes, and a stat of None for each empty directory below
    ``source``, ordered as ``Path`` objects sort: one sorted ``scandir``
    walk that follows no link. It raises ``cannot stage <repo path>:
    <reason>`` at the first path that cannot be stat-ed or listed (say a
    missing source, a dangling link or a loop), that is the source or a
    link and resolves outside ``root``, that is a link to a directory, or
    that is neither a regular file nor a directory (an open of a FIFO would
    block)."""
    inside = os.path.join(os.path.realpath(root), "")

    def visit(path: str, repo_path: str, entry: os.DirEntry | None):
        try:
            if entry is None or entry.is_symlink():
                st = os.stat(path)  # first, so that a loop is reported as one
                # staging reads a file through its links: one out of the tree
                # would publish the bytes it points at
                if not os.path.join(os.path.realpath(path), "").startswith(inside):
                    raise _unstageable(repo_path, f"resolves outside {root}")
                if entry is not None and stat.S_ISDIR(st.st_mode):
                    # the frozen catalog format has no link type to publish it as
                    raise _unstageable(repo_path, "symlink to a directory")
            else:
                st = entry.stat(follow_symlinks=False)
            if stat.S_ISDIR(st.st_mode):
                with os.scandir(path) as it:
                    entries = sorted(it, key=lambda child: child.name)
        except OSError as exc:
            raise _unstageable(repo_path, exc.strerror) from exc
        if not stat.S_ISDIR(st.st_mode):
            if not stat.S_ISREG(st.st_mode):
                raise _unstageable(repo_path, "not a regular file")
            yield repo_path, path, st
        elif entries:
            for child in entries:
                child_path = _check_repo_path(f"{repo_path}/{child.name}")
                yield from visit(child.path, child_path, child)
        elif entry is not None:
            yield repo_path, path, None

    yield from visit(os.fspath(source), prefix, None)


def _payload_chunks(fh, repo_path: str) -> Iterator[bytes]:
    """The bytes of the open payload file ``fh`` from its start, in
    CHUNK_SIZE pieces; a read that fails is the payload's fault."""
    try:
        fh.seek(0)
        while chunk := fh.read(CHUNK_SIZE):
            yield chunk
    except OSError as exc:
        raise _unstageable(repo_path, exc.strerror) from exc


def _same_bytes(chunks: Iterator[bytes], path: str) -> bool:
    """Whether ``chunks`` hold exactly the bytes of the file at ``path``."""
    with open(path, "rb") as fh:
        for chunk in chunks:
            if fh.read(len(chunk)) != chunk:
                return False
        return not fh.read(1)


class Store:
    """A directory of blobs, each named by its sha256 as ``ab/cdef...`` and
    written once, through a ``.tmp`` temporary that :meth:`hash_all` skips."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def path(self, sha: str) -> Path:
        return self.root / sha[:2] / sha[2:]

    def put_bytes(self, sha: str, data: bytes, mode: int | None = None) -> None:
        """Store ``data`` as blob ``sha`` unless it is stored already."""
        dest = self.path(sha)
        if not dest.exists():
            dest.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(dest, data, mode)

    def put_copy(self, source: Path, sha: str, mode: int | None = None) -> int | None:
        """Copy ``source`` in as blob ``sha`` unless it is stored already, and
        return the blob's size; None, storing nothing, if the bytes differ."""
        dest = self.path(sha)
        try:
            return dest.stat().st_size
        except FileNotFoundError:
            dest.parent.mkdir(parents=True, exist_ok=True)
            return copy_verified(source, dest, sha, mode)

    def put_pending(self, chunks: Iterator[bytes], pending: dict[str, str]) -> tuple[str, int]:
        """Hash the byte ``chunks`` of one file, writing them to a new
        temporary under the store root as they are hashed, and return their
        digest and size. The temporary goes into ``pending`` under the digest
        unless that blob is stored or pending already, in which case it is
        removed; :meth:`adopt` later renames it into place. A file of one
        chunk is hashed from memory and written only if its blob is new."""
        first = next(chunks, b"")
        rest = next(chunks, None)
        digest = hashlib.sha256(first)
        size = len(first)
        tmp = None
        try:
            if rest is not None:  # more than one chunk: written as it is hashed
                tmp = _temporary(self.root / "stage")
                with open(tmp, "wb") as out:
                    out.write(first)
                    while rest is not None:
                        digest.update(rest)
                        out.write(rest)
                        size += len(rest)
                        rest = next(chunks, None)
            sha = digest.hexdigest()
            if sha in pending or self.path(sha).exists():
                return sha, size
            if tmp is None:  # one chunk, of a new blob
                tmp = _temporary(self.root / "stage")
                with open(tmp, "wb") as out:
                    out.write(first)
            pending[sha] = str(tmp)
            tmp = None
            return sha, size
        finally:
            if tmp is not None:
                tmp.unlink(missing_ok=True)

    def adopt(self, sha: str, tmp: str) -> None:
        """Rename the temporary ``tmp``, which holds blob ``sha``, into place."""
        dest = self.path(sha)
        dest.parent.mkdir(exist_ok=True)
        os.replace(tmp, dest)

    def hash_all(self, report: VerifyReport) -> dict[tuple[int, int], str]:
        """Hash every blob but a ``.tmp`` temporary. Each counts in
        ``report.checked``, and one whose digest is not its name goes in
        ``report.bad_objects``. Returns the digests by (device, inode), so a
        caller can tell a hard link to a blob it has already hashed."""
        digests = {}
        for blob in sorted(self.root.glob("??/*")):
            if blob.name.endswith(".tmp"):
                continue
            expected = blob.parent.name + blob.name
            report.checked += 1
            st = blob.stat()
            digest = digests[st.st_dev, st.st_ino] = hash_file(blob)[0]
            if digest != expected:
                report.bad_objects.append(expected)
        return digests


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


@dataclass
class _StagedFile:
    mode: str
    sha256: str
    size: int


@dataclass
class Transaction:
    id: str
    lock_fd: int  # the open ``lock`` file this transaction holds flock-ed
    head: RepoHead  # read under the lock, so it stays HEAD until this publishes
    base: list[bytes]  # the head catalog's lines when the transaction began
    staged: dict[str, _StagedFile] = field(default_factory=dict)
    # sha -> temporary under objects/ holding a new object, until publish
    # renames it into place; none of them exists at its object path before
    pending: dict[str, str] = field(default_factory=dict)
    # size -> sha of the last multi-chunk object of that size made pending
    last_of_size: dict[int, str] = field(default_factory=dict)
    prefixes: set[str] = field(default_factory=set)
    state: str = "open"

    def close(self, state: str) -> None:
        """End the transaction as ``state``, remove the temporaries still
        pending and release the writer lock. The ``lock`` file stays:
        unlinking it would let two writers lock two files."""
        self.state = state
        self.staged.clear()
        for tmp in self.pending.values():
            try:
                os.unlink(tmp)
            except OSError:  # the next transaction sweeps it
                pass
        self.pending.clear()
        os.close(self.lock_fd)


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
        self.objects = Store(self.path / "objects")
        self.catalogs = Store(self.path / "catalogs")
        self.head_path = self.path / "HEAD"
        self.lock_path = self.path / "lock"

    # -- bootstrap -----------------------------------------------------

    @classmethod
    def init(cls, path: Path) -> Repository:
        """Create an empty repository (revision 0) unless one already exists."""
        repo = cls(path)
        if repo.head_path.exists():
            return repo
        repo.objects.root.mkdir(parents=True, exist_ok=True)
        empty = b""  # the catalog with no entries
        repo.catalogs.put_bytes(sha256_hex(empty), empty)
        write_atomic(repo.path / REVISION_FILE, _revision_bytes(0))
        write_atomic(repo.head_path, f"{sha256_hex(empty)} 0 init\n".encode("ascii"))
        return repo

    @classmethod
    def open(cls, path: Path) -> Repository:
        repo = cls(path)
        if not repo.head_path.is_file():
            raise CorruptHead(f"no repository at {path}")
        return repo

    def object_path(self, sha: str) -> Path:
        return self.objects.path(sha)

    # -- head ----------------------------------------------------------

    def read_head(self) -> RepoHead:
        """Current head; never blocks on the writer lock."""
        try:
            text = self.head_path.read_text(encoding="ascii")
        except (OSError, ValueError) as exc:  # ValueError: a byte above 0x7f
            raise CorruptHead(f"cannot read HEAD: {exc}") from exc
        parts = text.rstrip("\n").split(" ", 2)
        if len(parts) != 3:
            raise CorruptHead(f"malformed HEAD {text!r}")
        sha, rev_text, job_id = parts
        if len(sha) != 64 or not rev_text.isdigit():
            raise CorruptHead(f"malformed HEAD {text!r}")
        try:
            size = self.catalogs.path(sha).stat().st_size
        except OSError as exc:
            raise CorruptHead(f"HEAD references missing catalog {sha}") from exc
        return RepoHead(ObjectRef(sha, size), int(rev_text), job_id)

    def catalog_lines(
        self, sha: str, error: type[RadeError] = CorruptHead
    ) -> list[bytes]:
        """The lines of a stored catalog, raising ``error`` unless it matches
        its digest. The one way every reader gets at a catalog."""
        data = self.catalogs.path(sha).read_bytes()
        if sha256_hex(data) != sha:
            raise error(f"catalog {sha} fails its digest")
        return split_lines(data)

    # -- transactions ----------------------------------------------------

    def begin_transaction(self, wait_s: float = 0.0) -> Transaction:
        """Open the single transaction, taking the exclusive writer lock.

        Waits up to ``wait_s`` for a competing writer before raising
        TransactionInProgress. The lock is an flock on the ``lock`` file, so a
        writer that died holds none, whatever the file says. A root
        ``.revision`` that disagrees with HEAD is rewritten, and the
        temporaries a writer that died left are removed.
        """
        fd = os.open(self.lock_path, os.O_CREAT | os.O_WRONLY, 0o644)
        deadline = time.monotonic() + wait_s
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        raise TransactionInProgress(
                            f"repository {self.path} already in transaction"
                        ) from None
                    time.sleep(0.05)
            head = self.read_head()
            base = self.catalog_lines(head.root_catalog.sha256)
            rev_data = _revision_bytes(head.revision)
            try:
                current = (self.path / REVISION_FILE).read_bytes()
            except OSError:
                current = None
            if current != rev_data:  # a publish failed to write it after HEAD
                self._write_revision(rev_data)
            self._sweep_temporaries()
        except BaseException:
            os.close(fd)
            raise
        return Transaction(id=f"tx-{uuid.uuid4().hex[:12]}", lock_fd=fd, head=head, base=base)

    def _sweep_temporaries(self) -> None:
        """Remove every ``.tmp`` name in ``objects/`` and the repository root:
        only the lock holder writes there, so under the lock each is left by
        a writer that died, such as a killed stage's pending objects. The
        shard directories are not listed, since that would cost time that
        grows with the store."""
        for folder in (self.objects.root, self.path):
            try:
                for name in os.listdir(folder):
                    if name.endswith(".tmp"):
                        os.unlink(folder / name)
            except OSError:  # left for the next transaction
                pass

    def abort(self, tx: Transaction) -> None:
        if tx.state == "open":
            tx.close("aborted")

    def stage(self, tx: Transaction, source: Path, repo_prefix: str, root: Path) -> int:
        """Stage a directory tree (or single file) at ``repo_prefix``: the one
        place that decides what a payload may publish.

        On publish the staged trees replace whatever the previous catalog
        held under their prefixes. Executables keep their permission bit.
        Restaging identical content is idempotent; different content at an
        already-staged path is a PathCollision. Each file's new bytes are
        written here, as pending objects (see :meth:`_put`). The tree is
        walked once (see :func:`_payload`); its first path that cannot be
        published is an InvariantViolation, ``cannot stage <repo path>:
        <reason>``, and a temporary that cannot be written is a
        StoreWriteFailure.
        """
        if tx.state != "open":
            raise TransactionInProgress(f"transaction {tx.id} is {tx.state}")
        prefix = _check_repo_path(repo_prefix)
        count = 0
        for repo_path, fs_path, st in _payload(source, prefix, root):
            if repo_path == REVISION_FILE:
                raise PathCollision(f"{REVISION_FILE} is maintained by publish")
            count += 1
            if st is None:  # an empty directory
                tx.staged[repo_path] = _StagedFile(DIRECTORY, "", 0)
                continue
            sha, size = self._put(tx, fs_path, st.st_size, repo_path)
            mode = EXECUTABLE if os.access(fs_path, os.X_OK) else FILE
            previous = tx.staged.get(repo_path)
            if previous is not None and previous.sha256 != sha:
                raise PathCollision(f"{repo_path} staged twice with different content")
            tx.staged[repo_path] = _StagedFile(mode, sha, size)
        tx.prefixes.add(prefix)
        return count

    def _put(self, tx: Transaction, path: str, size: int, repo_path: str) -> tuple[str, int]:
        """Hash the payload file ``path``, leaving its bytes pending in
        ``objects/`` if they are new, and return their digest and size. A
        file of more than one chunk is first compared with the last pending
        object of its ``size`` (as the file was stat-ed); if they are equal,
        it is neither hashed nor written. Comparing every same-size candidate
        would cost time quadratic in the files of one size."""
        try:
            src = open(path, "rb")
        except OSError as exc:
            raise _unstageable(repo_path, exc.strerror) from exc
        with src:
            try:
                twin = tx.last_of_size.get(size) if size > CHUNK_SIZE else None
                if twin in tx.pending and _same_bytes(
                    _payload_chunks(src, repo_path), tx.pending[twin]
                ):
                    return twin, size
                sha, size = self.objects.put_pending(_payload_chunks(src, repo_path), tx.pending)
            except OSError as exc:  # reading the payload raises InvariantViolation
                raise StoreWriteFailure(f"cannot store {repo_path}: {exc.strerror}") from exc
        if size > CHUNK_SIZE and sha in tx.pending:
            tx.last_of_size[size] = sha
        return sha, size

    def publish(self, tx: Transaction, job_id: str) -> RepoHead:
        """Rename the pending objects into place, write the catalog, bump
        the revision, and swap HEAD.

        The new catalog is the base's lines with every path under a staged
        prefix dropped, merged with the staged lines and the new ``.revision``
        line. A catalog in which a file would be the parent of another path
        is a PathCollision, raised before anything is written. The HEAD
        rename is the commit point: a failure before it leaves the previous
        head fully intact and the transaction open. The root ``.revision``
        is written after it (see :meth:`_write_revision`).
        """
        if tx.state != "open":
            raise TransactionInProgress(f"transaction {tx.id} is {tx.state}")
        revision = tx.head.revision + 1
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
            for sha, tmp in list(tx.pending.items()):
                self.objects.adopt(sha, tmp)
                del tx.pending[sha]  # only once renamed, so a retry renames the rest
            self.catalogs.put_bytes(catalog_sha, data)
            write_atomic(self.head_path, f"{catalog_sha} {revision} {job_id}\n".encode("utf-8"))
        except OSError as exc:
            raise StoreWriteFailure(str(exc)) from exc

        self._write_revision(rev_data)
        tx.close("published")
        return RepoHead(ObjectRef(catalog_sha, len(data)), revision, job_id)

    def _write_revision(self, rev_data: bytes) -> None:
        """Bring the root ``.revision`` to HEAD's revision, once HEAD holds
        it: the file never leads HEAD. A failure leaves it behind HEAD, which
        the next transaction mends; the publish has committed all the same."""
        try:
            write_atomic(self.path / REVISION_FILE, rev_data)
        except OSError:
            pass

    # -- integrity -------------------------------------------------------

    def verify(self) -> VerifyReport:
        """Recompute every stored digest and check the head's closure: its
        catalog's digest, its ``.revision`` entry and that each object it
        names exists."""
        report = VerifyReport()
        for store in (self.objects, self.catalogs):
            store.hash_all(report)
        try:
            head = self.read_head()
            for line in self.catalog_lines(head.root_catalog.sha256):
                entry = parse_line(line)
                if entry.mode == DIRECTORY:
                    continue
                sha = entry.object.sha256
                if entry.path == REVISION_FILE:
                    if sha256_hex(_revision_bytes(head.revision)) != sha:
                        report.errors.append("revision entry disagrees with HEAD")
                elif not self.objects.path(sha).is_file():
                    report.missing_objects.append(sha)
        except CorruptHead as exc:
            report.errors.append(str(exc))
        return report


@dataclass
class VerifyReport:
    checked: int = 0
    paths: int = 0  # tree paths checked, by a site cache's verify
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
