"""Simulated remote site: poll the repository head, sync content into a local
cache, and run a delivered application's researcher tests (the minimum viable
execution).

The client interprets only the three directive forms the pipeline's
modulefiles contain; it is deliberately not a general modulefile interpreter.
"""
from __future__ import annotations

import fcntl
import io
import os
import shutil
import stat
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .envtree import (
    SAFE_PATH,
    apply_directives,
    env_var_name,
    modulefile_rel,
    parse_directives,
    prefix_rel,
    run_script,
    script_argv,
)
from .errors import IntegrityError, InvariantViolation, NotDelivered, RadeError
from .repo import (
    DIRECTORY,
    EXECUTABLE,
    REVISION_FILE,
    CatalogEntry,
    ObjectRef,
    RepoHead,
    Repository,
    Store,
    VerifyReport,
    _revision_bytes,
    entry_line,
    hash_file,
    parse_line,
    sha256_hex,
    write_atomic,
)
from .targets import Target

UNCHANGED = "unchanged"
CHANGED = "changed"

GENERATIONS = (".tree.a", ".tree.b")


@dataclass
class SyncReport:
    """What one sync transferred and what it did to the spare tree: files
    hard-linked (a plain file to its object in ``objects/``, an executable to
    the live tree's file or to this sync's first copy of it), files copied
    from ``objects/`` (an executable with no inode to share, or a file whose
    link failed), and paths removed."""

    revision: int
    fetched_objects: int
    fetched_bytes: int
    copied: int = 0
    linked: int = 0
    removed: int = 0

    def render(self) -> str:
        return (
            f"revision {self.revision}: fetched {self.fetched_objects} objects, "
            f"{self.fetched_bytes} bytes"
        )


@dataclass
class MveReport:
    passed: bool
    revision: int
    tests_run: int
    output: str


class SiteCache:
    """Single-writer local mirror of one repository.

    Layout: ``lock`` is flock-ed by the one running sync, as the
    repository's is by its one transaction. ``objects/`` holds verified
    content objects. ``.tree.a`` and ``.tree.b`` are two generations of the
    materialized catalog, and ``.tree.<x>.catalog`` names the catalog its
    tree holds (absent while the tree is being changed). ``tree`` is a
    relative symlink to the live generation and ``head`` the last synced
    HEAD line. A sync rewrites the spare generation, so a reader must not
    hold a tree path across two syncs.
    Objects and tree files are read-only. A plain file is a hard link to its
    object, so each delivered byte is written once. An executable needs an
    inode of mode 0555: unchanged ones are shared by both generations, and
    the executables of one generation with the same object share one copy.
    A write through a tree file, which only a reader that first makes it
    writable can make, therefore reaches ``objects/`` and every path naming
    that object; :meth:`verify` finds it.
    """

    def __init__(self, repo_path: Path, cache_root: Path):
        self.repo = Repository.open(Path(repo_path))
        # Absolute, so the paths run_mve hands to the tests do not depend on
        # their working directory; not resolved, so they go through ``tree``.
        self.cache_root = Path(cache_root).absolute()
        self.objects = Store(self.cache_root / "objects")
        self.tree_root = self.cache_root / "tree"
        self.head_path = self.cache_root / "head"

    @property
    def last_head(self) -> RepoHead | None:
        """The head last synced, or None if there is none or the ``head``
        file is unreadable; either way the next sync starts afresh."""
        try:
            text = self.head_path.read_text(encoding="utf-8").rstrip("\n")
            sha, size, revision, job_id = text.split(" ", 3)
            return RepoHead(ObjectRef(sha, int(size)), int(revision), job_id)
        except (OSError, ValueError):
            return None

    def _store_head(self, head: RepoHead) -> None:
        write_atomic(
            self.head_path,
            f"{head.root_catalog.sha256} {head.root_catalog.size} "
            f"{head.revision} {head.job_id}\n".encode("utf-8"),
        )

    # -- polling -----------------------------------------------------------

    def poll(self):
        """Compare the repository head's catalog hash to the last synced one.

        Returns ``("unchanged", head)`` or ``("changed", head)``; transfers
        nothing.
        """
        head = self.repo.read_head()
        last = self.last_head
        if last is not None and last.root_catalog.sha256 == head.root_catalog.sha256:
            return (UNCHANGED, head)
        return (CHANGED, head)

    # -- syncing -------------------------------------------------------------

    def sync(self, head: RepoHead | None = None) -> SyncReport:
        """Fetch the objects this cache is missing and bring the spare tree
        to the head's catalog, then make it the live tree.

        Catalogs are compared as sets of lines, and only the lines that
        differ are parsed. Any digest mismatch raises IntegrityError before a
        tree or the recorded head change, leaving the cache at its previous
        consistent state. One sync at a time changes a cache: a sync holds
        an exclusive ``flock`` on ``<cache>/lock`` throughout, and another
        waits for it.
        """
        self.objects.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.cache_root / "lock", os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            return self._sync(head)
        finally:
            os.close(fd)  # which releases the lock

    def _sync(self, head: RepoHead | None) -> SyncReport:
        if head is None:
            head = self.repo.read_head()
        wanted = set(self.repo.catalog_lines(head.root_catalog.sha256, IntegrityError))
        live = self._live_generation()
        held = self._held(live) or set()
        # Only an entry the live tree lacks can name an object not yet cached.
        new = {line: parse_line(line) for line in sorted(wanted - held)}

        fetched = set()
        fetched_bytes = 0
        for entry in new.values():
            if entry.mode == DIRECTORY or self.objects.path(entry.object.sha256).is_file():
                continue
            sha = entry.object.sha256
            if entry.path == REVISION_FILE:  # derived from HEAD, not stored in objects/
                data = _revision_bytes(head.revision)
                if sha256_hex(data) != sha:
                    raise IntegrityError(f"object {sha} fails its digest")
                self.objects.put_bytes(sha, data, 0o444)
                size = len(data)
            else:
                blob = self.repo.objects.path(sha)
                if not blob.is_file():
                    raise IntegrityError(f"object {sha} missing from repository")
                size = self.objects.put_copy(blob, sha, 0o444)
                if size is None:
                    raise IntegrityError(f"object {sha} fails its digest")
            fetched_bytes += size
            fetched.add(sha)

        report = SyncReport(head.revision, len(fetched), fetched_bytes)
        spare = GENERATIONS[1] if live == GENERATIONS[0] else GENERATIONS[0]
        self._apply(spare, wanted, new, live, held, fetched, report)
        write_atomic(self._marker(spare), f"{head.root_catalog.sha256}\n".encode("ascii"))
        link = self.cache_root / ".tree.new"
        link.unlink(missing_ok=True)
        os.symlink(spare, link)
        if self.tree_root.is_dir() and not self.tree_root.is_symlink():
            shutil.rmtree(self.tree_root)  # the tree of a single-tree cache
        os.replace(link, self.tree_root)
        self._store_head(head)
        return report

    def _marker(self, generation: str) -> Path:
        return self.cache_root / f"{generation}.catalog"

    def _live_generation(self) -> str | None:
        try:
            name = os.readlink(self.tree_root)
        except OSError:  # no tree yet, or the directory of a single-tree cache
            return None
        return name if name in GENERATIONS else None

    def _held(self, generation: str | None) -> set[bytes] | None:
        """The catalog lines a generation's tree holds, or None if there is no
        such generation or its marker is missing or names no readable
        catalog."""
        if generation is None:
            return None
        try:
            sha = self._marker(generation).read_text(encoding="utf-8").strip()
            return set(self.repo.catalog_lines(sha))
        except (OSError, RadeError):
            return None

    def _apply(
        self,
        spare: str,
        wanted: set[bytes],
        new: dict[bytes, CatalogEntry],
        live: str | None,
        held: set[bytes],
        read_only: set[str],
        report: SyncReport,
    ) -> None:
        """Change the spare tree from the catalog its marker names to the
        lines ``wanted``, of which ``new`` are parsed already. A tree without
        a marker is emptied first. ``read_only`` names the objects known to be
        mode 0444, and gains each object this sync links to."""
        root = self.cache_root / spare
        # Replacements are staged outside the trees, on the same file system.
        tmp = self.cache_root / ".file.tmp"
        have = self._held(spare)
        self._marker(spare).unlink(missing_ok=True)
        if have is None:
            for stale in self.cache_root.glob(".tree.*.tmp"):
                shutil.rmtree(stale)  # staging left by a single-tree cache
            tmp.unlink(missing_ok=True)
            if root.exists():
                shutil.rmtree(root)
            root.mkdir()
            have = set()

        old = {e.path: e for e in map(parse_line, sorted(have - wanted))}
        added = {
            line: new[line] if line in new else parse_line(line)
            for line in sorted(wanted - have)
        }
        after = {e.path: e for e in added.values()}
        gone = [
            path
            for path, entry in old.items()
            if path not in after
            or (entry.mode == DIRECTORY) != (after[path].mode == DIRECTORY)
        ]
        emptied = set()
        for path in gone:
            if old[path].mode == DIRECTORY:
                emptied.add(path)
            else:
                (root / path).unlink(missing_ok=True)
            emptied.update(_parents(path))
        for path in sorted(emptied, key=lambda p: p.count("/"), reverse=True):
            if entry_line(path, DIRECTORY, "-", 0) in wanted:
                continue
            try:
                (root / path).rmdir()
            except OSError:  # still holds entries
                pass
        report.removed = len(gone)

        copies: dict[tuple[str, str], Path] = {}
        for line, entry in added.items():
            dest = root / entry.path
            if entry.mode == DIRECTORY:
                dest.mkdir(parents=True, exist_ok=True)
                continue
            dest.parent.mkdir(parents=True, exist_ok=True)
            # A file the spare holds may share its inode with the live tree
            # or objects/, so it is replaced by a rename, never written in
            # place. A temporary left by a crash may be such a link too, so it
            # is removed, never opened.
            if entry.path in old:
                target = tmp
                target.unlink(missing_ok=True)
            else:
                target = dest
            # Only files of one mode may share an inode: a plain file shares
            # its object's, and an executable one of mode 0555.
            sha = entry.object.sha256
            key = (sha, entry.mode)
            sources = []
            if entry.mode != EXECUTABLE:
                sources.append(self._read_only_object(sha, read_only))
            elif line in held:
                sources.append(self.cache_root / live / entry.path)
            if key in copies:
                sources.append(copies[key])
            if any(self._link(source, target) for source in sources):
                report.linked += 1
            else:
                shutil.copyfile(self.objects.path(sha), target)
                os.chmod(target, 0o555 if entry.mode == EXECUTABLE else 0o444)
                report.copied += 1
                copies[key] = dest
            if target is not dest:
                os.replace(target, dest)

    def _read_only_object(self, sha: str, read_only: set[str]) -> Path:
        """The path of a cached object, made mode 0444 first unless it is
        known to be: a cache written before objects were fetched read-only
        holds them at 0644, and a tree file linked to one would be
        writable."""
        path = self.objects.path(sha)
        if sha not in read_only:
            os.chmod(path, 0o444)
            read_only.add(sha)
        return path

    @staticmethod
    def _link(source: Path, dest: Path) -> bool:
        try:
            os.link(source, dest)
        except OSError:  # a reader removed the source, or it has too many links
            return False
        return True

    # -- verifying -----------------------------------------------------------

    def verify(self) -> VerifyReport:
        """Re-hash every object in ``objects/`` and check the live tree
        against the catalog its marker names: every path present with its
        type and mode, no other path, every file's bytes, and ``.revision``
        at the synced head's revision. A tree file that is a hard link to an
        object already hashed is not read again."""
        report = VerifyReport()
        digests = self.objects.hash_all(report)
        head = self.last_head
        if head is None:
            report.errors.append("cache has never synced")
            return report
        live = self._live_generation()
        held = self._held(live)
        if held is None:
            report.errors.append("live tree names no readable catalog")
            return report
        root = self.cache_root / live
        entries = {e.path: e for e in map(parse_line, held)}
        expected = set(entries)
        for path in entries:
            expected.update(_parents(path))
        report.paths = len(expected)
        found = set()
        for dirpath, dirnames, filenames in os.walk(root):
            rel = os.path.relpath(dirpath, root)
            found.update(os.path.normpath(os.path.join(rel, n)) for n in dirnames + filenames)
        report.errors += [f"unexpected tree path {path}" for path in sorted(found - expected)]
        for path in sorted(expected):
            entry = entries.get(path)  # None for a directory above an entry
            try:
                st = os.lstat(root / path)
            except OSError:
                report.errors.append(f"missing tree path {path}")
                continue
            if entry is None or entry.mode == DIRECTORY:
                if not stat.S_ISDIR(st.st_mode):
                    report.errors.append(f"tree path {path} is not a directory")
                continue
            if not stat.S_ISREG(st.st_mode):
                report.errors.append(f"tree path {path} is not a file")
                continue
            mode = 0o555 if entry.mode == EXECUTABLE else 0o444
            if stat.S_IMODE(st.st_mode) != mode:
                report.errors.append(
                    f"tree path {path} has mode {stat.S_IMODE(st.st_mode):o}, not {mode:o}"
                )
            digest = digests.get((st.st_dev, st.st_ino)) or hash_file(root / path)[0]
            if digest != entry.object.sha256:
                report.errors.append(
                    f"tree file {path} does not match object {entry.object.sha256}"
                )
        # The file's bytes were checked against its entry above.
        revision = entries.get(REVISION_FILE)
        if (
            revision is not None
            and revision.object.sha256 != sha256_hex(_revision_bytes(head.revision))
        ):
            report.errors.append(
                f"tree {REVISION_FILE} disagrees with head revision {head.revision}"
            )
        return report

    # -- minimum viable execution ---------------------------------------------

    def run_mve(self, recipe, target: Target, recipe_dir: Path, timeout_s: int = 600) -> MveReport:
        """Run the recipe's researcher tests against the synced deploy tree."""
        head = self.last_head
        if head is None:
            raise NotDelivered("cache has never synced")
        rel = prefix_rel(target, recipe.name, recipe.version)
        prefix = self.tree_root / rel
        module = self.tree_root / modulefile_rel(target, recipe.name, recipe.version)
        if not prefix.is_dir() or not module.is_file():
            raise NotDelivered(
                f"{recipe.name}/{recipe.version} not delivered for "
                f"{target.arch}-{target.os}-{target.site}"
            )
        directives = parse_directives(module.read_text(encoding="utf-8"))
        env = apply_directives(
            {"PATH": SAFE_PATH},
            _relocate(directives, recipe.name, rel, str(prefix)),
        )
        chunks = []
        passed = True
        tests_run = 0
        for rel in recipe.researcher_tests:
            script = Path(recipe_dir) / rel
            with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
                rc = run_script(script_argv(script), env, recipe_dir, timeout_s, out, err)
                chunks.append(f"$ {rel}\n{_text(out)}{_text(err)}")
            tests_run += 1
            if rc != 0:
                chunks.append(
                    f"timeout after {timeout_s}s\n" if rc is None else f"exited {rc}\n"
                )
                passed = False
                break
        return MveReport(
            passed=passed,
            revision=head.revision,
            tests_run=tests_run,
            output="".join(chunks),
        )


def _text(fh) -> str:
    """What a researcher test wrote to the file ``fh``, read from its start
    as UTF-8 with universal newlines; an undecodable byte becomes U+FFFD.
    Closes ``fh``."""
    fh.seek(0)
    with io.TextIOWrapper(fh, encoding="utf-8", errors="replace") as text:
        return text.read()


def _parents(path: str):
    """The directories above a catalog path, as catalog paths."""
    parts = path.split("/")
    return ("/".join(parts[:i]) for i in range(1, len(parts)))


def _relocate(directives, name: str, rel: str, site_prefix: str):
    """Point the directives at the site's copy of an installation.

    The modulefile names the prefix it was built at with ``setenv
    <NAME>_DIR``; every value at or under that prefix is moved to
    ``site_prefix``.
    """
    var = f"{env_var_name(name)}_DIR"
    built = next((d[2] for d in directives if d[:2] == ("setenv", var)), None)
    if built is None or not (built == rel or built.endswith("/" + rel)):
        raise InvariantViolation(f"modulefile does not set {var} to a prefix ending in {rel}")
    return [
        (*d[:2], site_prefix + d[2][len(built):])
        if d[2] == built or d[2].startswith(built + "/")
        else d
        for d in directives
    ]


def poll_until_changed(cache: SiteCache, interval_s: float = 1.0, attempts: int = 1):
    """Poll helper for the CLI: returns the first changed head or None."""
    for i in range(max(1, attempts)):
        status, head = cache.poll()
        if status == CHANGED:
            return head
        if i + 1 < attempts:
            time.sleep(interval_s)
    return None
