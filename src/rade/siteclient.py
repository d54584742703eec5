"""Simulated remote site: poll the repository head, sync content into a local
cache, and run a delivered application's researcher tests (the minimum viable
execution).

The client interprets only the three directive forms the pipeline's
modulefiles contain; it is deliberately not a general modulefile interpreter.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from .envtree import (
    apply_directives,
    env_var_name,
    modulefile_rel,
    parse_directives,
    prefix_rel,
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
    _revision_bytes,
    copy_hashed,
    entry_line,
    parse_line,
    sha256_hex,
)
from .targets import Target

UNCHANGED = "unchanged"
CHANGED = "changed"

GENERATIONS = (".tree.a", ".tree.b")


@dataclass
class SyncReport:
    """What one sync transferred and what it did to the spare tree: files
    copied from ``objects/``, hard-linked from the live tree or from an earlier
    copy of the same object, and removed."""

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

    Layout: ``objects/`` holds verified content objects. ``.tree.a`` and
    ``.tree.b`` are two generations of the materialized catalog, and
    ``.tree.<x>.catalog`` names the catalog its tree holds (absent while the
    tree is being changed). ``tree`` is a relative symlink to the live
    generation and ``head`` the last synced HEAD line. A sync rewrites the
    spare generation, so a reader must not hold a tree path across two syncs.
    Tree files are read-only: unchanged ones are shared by both generations,
    and the paths of one generation with the same object and mode share one
    copy of it.
    """

    def __init__(self, repo_path: Path, cache_root: Path):
        self.repo = Repository.open(Path(repo_path))
        # Absolute, so the paths run_mve hands to the tests do not depend on
        # their working directory; not resolved, so they go through ``tree``.
        self.cache_root = Path(cache_root).absolute()
        self.objects_dir = self.cache_root / "objects"
        self.tree_root = self.cache_root / "tree"
        self.head_path = self.cache_root / "head"
        self.objects_dir.mkdir(parents=True, exist_ok=True)

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
        self._write_atomic(
            self.head_path,
            f"{head.root_catalog.sha256} {head.root_catalog.size} "
            f"{head.revision} {head.job_id}\n",
        )

    def _write_atomic(self, path: Path, text: str) -> None:
        tmp = self.cache_root / ".write.tmp"
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)

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
        consistent state.
        """
        if head is None:
            head = self.repo.read_head()
        wanted = set(self.repo.catalog_lines(head.root_catalog.sha256, IntegrityError))
        live = self._live_generation()
        held = self._held(live) or set()
        # Only an entry the live tree lacks can name an object not yet cached.
        new = {line: parse_line(line) for line in sorted(wanted - held)}

        fetched = 0
        fetched_bytes = 0
        for entry in new.values():
            if entry.mode == DIRECTORY:
                continue
            cached = self._cache_object_path(entry.object.sha256)
            if cached.is_file():
                continue
            fetched_bytes += self._fetch(entry, head, cached)
            fetched += 1

        report = SyncReport(head.revision, fetched, fetched_bytes)
        spare = GENERATIONS[1] if live == GENERATIONS[0] else GENERATIONS[0]
        self._apply(spare, wanted, new, live, held, report)
        self._write_atomic(self._marker(spare), head.root_catalog.sha256 + "\n")
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

    def _cache_object_path(self, sha: str) -> Path:
        return self.objects_dir / sha[:2] / sha[2:]

    def _fetch(self, entry: CatalogEntry, head: RepoHead, cached: Path) -> int:
        """Copy an entry's object into ``objects/`` if it matches its digest,
        and return its size."""
        sha = entry.object.sha256
        cached.parent.mkdir(parents=True, exist_ok=True)
        tmp = cached.parent / f".{cached.name}.tmp"
        # The revision counter is derived from HEAD, not stored in objects/.
        if entry.path == REVISION_FILE:
            data = _revision_bytes(head.revision)
            tmp.write_bytes(data)
            digest, size = sha256_hex(data), len(data)
        else:
            blob = self.repo.object_path(sha)
            if not blob.is_file():
                raise IntegrityError(f"object {sha} missing from repository")
            digest, size = copy_hashed(blob, tmp)
        if digest != sha:
            tmp.unlink()
            raise IntegrityError(f"object {sha} fails its digest")
        os.replace(tmp, cached)
        return size

    def _apply(
        self,
        spare: str,
        wanted: set[bytes],
        new: dict[bytes, CatalogEntry],
        live: str | None,
        held: set[bytes],
        report: SyncReport,
    ) -> None:
        """Change the spare tree from the catalog its marker names to the
        lines ``wanted``, of which ``new`` are parsed already. A tree without
        a marker is emptied first."""
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
            parts = path.split("/")
            emptied.update("/".join(parts[:i]) for i in range(1, len(parts)))
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
            # A file the spare holds may share its inode with the live tree,
            # so it is replaced by a rename, never written in place. A
            # temporary left by a crash may be such a link too, so it is
            # removed, never opened.
            if entry.path in old:
                target = tmp
                target.unlink(missing_ok=True)
            else:
                target = dest
            # Only files of one mode may share an inode.
            key = (entry.object.sha256, entry.mode)
            if line in held and self._link(self.cache_root / live / entry.path, target):
                report.linked += 1
            elif key in copies and self._link(copies[key], target):
                report.linked += 1
            else:
                shutil.copyfile(self._cache_object_path(entry.object.sha256), target)
                os.chmod(target, 0o555 if entry.mode == EXECUTABLE else 0o444)
                report.copied += 1
                copies[key] = dest
            if target is not dest:
                os.replace(target, dest)

    @staticmethod
    def _link(source: Path, dest: Path) -> bool:
        try:
            os.link(source, dest)
        except OSError:  # a reader removed the source; use objects/ instead
            return False
        return True

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
            {"PATH": "/usr/bin:/bin"},
            _relocate(directives, recipe.name, rel, str(prefix)),
        )
        chunks = []
        passed = True
        tests_run = 0
        for rel in recipe.researcher_tests:
            script = Path(recipe_dir) / rel
            argv = [str(script)] if os.access(script, os.X_OK) else ["/bin/sh", str(script)]
            proc = subprocess.run(
                argv,
                capture_output=True,
                text=True,
                env=env,
                cwd=recipe_dir,
                timeout=timeout_s,
            )
            tests_run += 1
            chunks.append(f"$ {rel}\n{proc.stdout}{proc.stderr}")
            if proc.returncode != 0:
                chunks.append(f"exited {proc.returncode}\n")
                passed = False
                break
        return MveReport(
            passed=passed,
            revision=head.revision,
            tests_run=tests_run,
            output="".join(chunks),
        )


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
