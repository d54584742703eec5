from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rade
from rade import repo as repo_mod
from rade.errors import (
    CorruptHead,
    InvariantViolation,
    PathCollision,
    StoreWriteFailure,
    TransactionInProgress,
)
from rade.repo import (
    CHUNK_SIZE,
    CatalogEntry,
    ObjectRef,
    Repository,
    Store,
    entry_line,
    hash_file,
    parse_line,
    sha256_hex,
)
from toycorpus import Faulty, catalog_entries


@pytest.fixture
def repo(tmp_path):
    return Repository.init(tmp_path / "repo")


def make_tree(root, files, executables=()):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        if rel in executables:
            path.chmod(0o755)
    return root


def object_files(repo):
    return sorted(
        p for p in repo.objects.root.rglob("*") if p.is_file() and not p.name.endswith(".tmp")
    )


class TestInitAndHead:
    def test_fresh_repo_is_revision_zero(self, repo):
        head = repo.read_head()
        assert head.revision == 0
        assert catalog_entries(repo, head) == {}
        assert (repo.path / ".revision").read_text() == "0\n"

    def test_init_is_idempotent(self, repo, tmp_path):
        again = Repository.init(tmp_path / "repo")
        assert again.read_head() == repo.read_head()

    def test_open_missing_repo(self, tmp_path):
        with pytest.raises(CorruptHead):
            Repository.open(tmp_path / "nowhere")

    def test_malformed_head(self, repo):
        repo.head_path.write_text("garbage")
        with pytest.raises(CorruptHead):
            repo.read_head()

    def test_non_ascii_head_is_corrupt(self, repo):
        data = bytearray(repo.head_path.read_bytes())
        data[-2] = 0xFF  # the last byte of the job id
        repo.head_path.write_bytes(bytes(data))
        with pytest.raises(CorruptHead):
            repo.read_head()


class TestTransactions:
    def test_begin_on_fresh_repo_sees_empty_tree(self, repo):
        tx = repo.begin_transaction()
        assert tx.base == []
        repo.abort(tx)

    def test_second_begin_raises(self, repo):
        tx = repo.begin_transaction()
        with pytest.raises(TransactionInProgress):
            repo.begin_transaction()
        repo.abort(tx)

    def test_begin_after_abort(self, repo):
        first = repo.begin_transaction()
        repo.abort(first)
        second = repo.begin_transaction()
        assert second.base == []
        repo.abort(second)

    def test_begin_waits_for_writer(self, repo):
        tx = repo.begin_transaction()
        release = threading.Timer(0.2, lambda: repo.abort(tx))
        release.start()
        try:
            waited = repo.begin_transaction(wait_s=5.0)
        finally:
            release.join()
        repo.abort(waited)

    def test_stale_lock_file_does_not_block(self, repo):
        repo.lock_path.write_text("tx-dead 999999\n")  # left by a dead writer
        tx = repo.begin_transaction(wait_s=0)
        repo.abort(tx)

    def test_killed_lock_holder_frees_the_lock(self, repo):
        hold = (
            "import sys, time\n"
            "from rade.repo import Repository\n"
            "tx = Repository(sys.argv[1]).begin_transaction()\n"
            "print('locked', flush=True)\n"
            "time.sleep(60)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(rade.__file__).parents[1])}
        holder = subprocess.Popen(
            [sys.executable, "-c", hold, str(repo.path)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            assert holder.stdout.readline() == "locked\n"
            with pytest.raises(TransactionInProgress):
                repo.begin_transaction(wait_s=0)
        finally:
            holder.kill()  # SIGKILL: the holder gets no chance to clean up
            holder.wait(timeout=10)
            holder.stdout.close()
        tx = repo.begin_transaction(wait_s=0)
        repo.abort(tx)

    def test_begin_sweeps_the_temporaries_of_a_killed_writer(self, repo, tmp_path):
        make_tree(tmp_path / "t", {"small": "s", "big": "b" * (CHUNK_SIZE + 1)})
        stage = (
            "import sys, time\n"
            "from rade.repo import Repository\n"
            "repo = Repository(sys.argv[1])\n"
            "tx = repo.begin_transaction()\n"
            "repo.stage(tx, sys.argv[2], 'apps', sys.argv[2])\n"
            "print(len(tx.pending), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(rade.__file__).parents[1])}
        writer = subprocess.Popen(
            [sys.executable, "-c", stage, str(repo.path), str(tmp_path / "t")],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            assert writer.stdout.readline() == "2\n"
        finally:
            writer.kill()  # SIGKILL between stage and publish
            writer.wait(timeout=10)
            writer.stdout.close()
        (repo.path / ".HEAD.0123abcd.tmp").write_text("half written")  # a killed HEAD swap
        assert len(temporaries(repo)) == 3
        repo.abort(repo.begin_transaction(wait_s=0))
        assert temporaries(repo) == []
        assert repo.verify().ok

    def test_begin_sweeps_the_catalog_temporary_of_a_killed_publish(self, repo, tmp_path):
        make_tree(tmp_path / "t", {"a": "content"})
        publish = (
            "import os, sys, time\n"
            "from rade.repo import Repository\n"
            "repo = Repository(sys.argv[1])\n"
            "tx = repo.begin_transaction()\n"
            "repo.stage(tx, sys.argv[2], 'apps', sys.argv[2])\n"
            "replace = os.replace\n"
            "def stalled_replace(src, dst):\n"
            "    if str(dst).startswith(str(repo.catalogs.root)):\n"
            "        print('writing', flush=True)\n"
            "        time.sleep(60)\n"
            "    replace(src, dst)\n"
            "os.replace = stalled_replace\n"
            "repo.publish(tx, 'job-1')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(rade.__file__).parents[1])}
        writer = subprocess.Popen(
            [sys.executable, "-c", publish, str(repo.path), str(tmp_path / "t")],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            assert writer.stdout.readline() == "writing\n"
        finally:
            writer.kill()  # SIGKILL while the new catalog is a temporary
            writer.wait(timeout=10)
            writer.stdout.close()
        [left] = temporaries(repo)
        assert left.parent == repo.catalogs.root  # beside the shards, not in one
        repo.abort(repo.begin_transaction(wait_s=0))
        assert temporaries(repo) == []
        assert repo.read_head().revision == 0
        assert repo.verify().ok

    def test_publish_takes_the_head_read_under_the_lock(self, repo, tmp_path, monkeypatch):
        tree = make_tree(tmp_path / "t", {"a": "content"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps", tmp_path)
        assert tx.head == repo.read_head()
        reads = []
        original = Repository.read_head
        monkeypatch.setattr(
            Repository, "read_head", lambda self: reads.append(self) or original(self)
        )
        head = repo.publish(tx, "job-1")
        assert (reads, head.revision) == ([], 1)


class TestStaging:
    def test_counts_files(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "1", "b": "2", "sub/c": "3"})
        tx = repo.begin_transaction()
        assert repo.stage(tx, tree, "apps", tmp_path) == 3
        repo.abort(tx)

    def test_idempotent_restage(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "same"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps", tmp_path)
        repo.stage(tx, tree, "apps", tmp_path)
        assert len(tx.staged) == 1
        repo.abort(tx)

    def test_conflicting_content_collides(self, repo, tmp_path):
        one = make_tree(tmp_path / "one", {"a": "first"})
        two = make_tree(tmp_path / "two", {"a": "second"})
        tx = repo.begin_transaction()
        repo.stage(tx, one, "apps", tmp_path)
        with pytest.raises(PathCollision):
            repo.stage(tx, two, "apps", tmp_path)
        repo.abort(tx)

    def test_single_file_staging(self, repo, tmp_path):
        f = tmp_path / "module"
        f.write_text("#%Module1.0\n")
        tx = repo.begin_transaction()
        assert repo.stage(tx, f, "modulefiles/x/m", tmp_path) == 1
        repo.abort(tx)

    def test_revision_path_reserved(self, repo, tmp_path):
        f = tmp_path / "f"
        f.write_text("boom")
        tx = repo.begin_transaction()
        with pytest.raises(PathCollision):
            repo.stage(tx, f, ".revision", tmp_path)
        repo.abort(tx)

    def test_escaping_paths_rejected(self, repo, tmp_path):
        f = tmp_path / "f"
        f.write_text("x")
        tx = repo.begin_transaction()
        for bad in ("../out", "/abs", "a//b", "a/./b"):
            with pytest.raises(PathCollision):
                repo.stage(tx, f, bad, tmp_path)
        repo.abort(tx)

    def test_symlinked_directory_inside_a_prefix_fails(self, repo, tmp_path):
        deploy = make_tree(tmp_path / "deploy", {"p/bin/b": "b", "q/lib/l": "l"})
        (deploy / "p" / "lib").symlink_to("../q/lib")
        tx = repo.begin_transaction()
        with pytest.raises(InvariantViolation) as exc:
            repo.stage(tx, deploy / "p", "a/p", tmp_path)
        assert str(exc.value) == "cannot stage a/p/lib: symlink to a directory"
        assert temporaries(repo) != []  # bin/b was staged before the link
        repo.abort(tx)
        assert temporaries(repo) == []

    def test_fifo_inside_a_prefix_fails_without_blocking(self, repo, tmp_path):
        deploy = make_tree(tmp_path / "deploy", {"p/bin/b": "b"})
        os.mkfifo(deploy / "p" / "bin" / "pipe")
        tx = repo.begin_transaction()
        raised = []

        def stage():
            try:
                repo.stage(tx, deploy / "p", "a/p", tmp_path)
            except InvariantViolation as exc:
                raised.append(str(exc))

        worker = threading.Thread(target=stage, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()  # an open() of the FIFO would block
        assert raised == ["cannot stage a/p/bin/pipe: not a regular file"]
        repo.abort(tx)

class TestPublish:
    def test_minimal_publish_gets_revision_file_entry(self, repo):
        tx = repo.begin_transaction()
        head = repo.publish(tx, "job-0")
        assert head.revision == 1
        assert list(catalog_entries(repo, head)) == [".revision"]
        assert (repo.path / ".revision").read_text() == "1\n"

    def test_publish_stages_tree_content(self, repo, tmp_path):
        tree = make_tree(
            tmp_path / "t", {"bin/hello": "#!/bin/sh\n"}, executables=("bin/hello",)
        )
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "x86_64/linux/sitea/hello/1.0", tmp_path)
        head = repo.publish(tx, "job-1")
        entries = catalog_entries(repo, head)
        entry = entries["x86_64/linux/sitea/hello/1.0/bin/hello"]
        assert entry.mode == "executable"
        assert repo.object_path(entry.object.sha256).is_file()

    def test_revision_counts_publishes(self, repo, tmp_path):
        for i in range(5):
            tree = make_tree(tmp_path / f"t{i}", {"f": f"content {i}"})
            tx = repo.begin_transaction()
            repo.stage(tx, tree, "data", tmp_path)
            repo.publish(tx, f"job-{i}")
        head = repo.read_head()
        assert head.revision == 5
        assert head.job_id == "job-4"
        assert (repo.path / ".revision").read_text() == "5\n"

    def test_dedup_identical_publish_adds_zero_objects(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"bin/app": "payload", "lib/l.so": "lib"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps/demo", tmp_path)
        repo.publish(tx, "job-1")
        before = object_files(repo)

        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps/demo", tmp_path)
        head = repo.publish(tx, "job-2")
        after = object_files(repo)

        assert after == before  # dedup oracle: object-store files unchanged
        assert head.revision == 2
        assert head.job_id == "job-2"

    def test_previous_content_carried_forward(self, repo, tmp_path):
        first = make_tree(tmp_path / "a", {"f": "one"})
        tx = repo.begin_transaction()
        repo.stage(tx, first, "apps/one", tmp_path)
        repo.publish(tx, "job-1")

        second = make_tree(tmp_path / "b", {"g": "two"})
        tx = repo.begin_transaction()
        repo.stage(tx, second, "apps/two", tmp_path)
        head = repo.publish(tx, "job-2")
        paths = set(catalog_entries(repo, head))
        assert {"apps/one/f", "apps/two/g", ".revision"} <= paths

    def test_restaged_prefix_drops_removed_files(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"bin/a": "a", "bin/b": "b", "lib/c": "c"})
        make_tree(tmp_path / "other", {"f": "kept"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps/d", tmp_path)
        repo.stage(tx, tmp_path / "other", "apps/other", tmp_path)
        repo.publish(tx, "job-1")

        (tree / "bin" / "b").unlink()
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps/d", tmp_path)
        head = repo.publish(tx, "job-2")
        paths = set(catalog_entries(repo, head))
        assert paths == {"apps/d/bin/a", "apps/d/lib/c", "apps/other/f", ".revision"}

    def test_empty_dirs_preserved(self, repo, tmp_path):
        tree = tmp_path / "t"
        (tree / "bin").mkdir(parents=True)
        (tree / "bin" / "x").write_text("x")
        (tree / "var" / "empty").mkdir(parents=True)
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps/d", tmp_path)
        head = repo.publish(tx, "job-1")
        entries = catalog_entries(repo, head)
        assert entries["apps/d/var/empty"].mode == "directory"


    def test_multi_chunk_file_is_stored_whole(self, repo, tmp_path):
        data = bytes(range(256)) * (2 * CHUNK_SIZE // 256) + b"tail"
        (tmp_path / "t").mkdir()
        (tmp_path / "t" / "big").write_bytes(data)
        tx = repo.begin_transaction()
        repo.stage(tx, tmp_path / "t", "apps", tmp_path)
        head = repo.publish(tx, "job-1")
        entry = catalog_entries(repo, head)["apps/big"]
        assert entry.object == ObjectRef(sha256_hex(data), len(data))
        assert repo.object_path(entry.object.sha256).read_bytes() == data

    def test_path_with_a_control_character_survives_the_next_transaction(
        self, repo, tmp_path
    ):
        tree = make_tree(tmp_path / "t", {"x\x1cy": "one"})
        for job in ("job-1", "job-2"):
            tx = repo.begin_transaction()
            repo.stage(tx, tree, "apps", tmp_path)
            head = repo.publish(tx, job)
        assert set(catalog_entries(repo, head)) == {
            "apps/x\x1cy", ".revision"
        }


class TestFileParentCollision:
    """A catalog in which a file is the parent of another path cannot be
    materialized, so publish rejects it before it writes anything."""

    @staticmethod
    def assert_rejected(repo, tx):
        before = repo.read_head()
        catalogs = sorted(repo.catalogs.root.rglob("*"))
        objects = object_files(repo)
        with pytest.raises(PathCollision, match="parent of another path"):
            repo.publish(tx, "job-x")
        assert repo.read_head() == before
        assert sorted(repo.catalogs.root.rglob("*")) == catalogs
        assert object_files(repo) == objects
        repo.abort(tx)

    def test_tree_below_a_published_file(self, repo, tmp_path):
        (tmp_path / "a").write_text("file")
        tx = repo.begin_transaction()
        repo.stage(tx, tmp_path / "a", "a", tmp_path)
        repo.publish(tx, "job-1")

        tree = make_tree(tmp_path / "t", {"y": "below"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "a/b", tmp_path)
        self.assert_rejected(repo, tx)

    def test_file_and_tree_below_it_in_one_transaction(self, repo, tmp_path):
        (tmp_path / "a").write_text("file")
        tree = make_tree(tmp_path / "t", {"y": "below"})
        tx = repo.begin_transaction()
        repo.stage(tx, tmp_path / "a", "a", tmp_path)
        repo.stage(tx, tree, "a/b", tmp_path)
        self.assert_rejected(repo, tx)

    def test_tree_at_the_revision_prefix(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"x": "below"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, ".revision", tmp_path)
        self.assert_rejected(repo, tx)

    def test_empty_directory_may_be_a_parent(self, repo, tmp_path):
        (tmp_path / "t" / "e").mkdir(parents=True)
        tx = repo.begin_transaction()
        repo.stage(tx, tmp_path / "t", "a", tmp_path)
        repo.publish(tx, "job-1")

        tree = make_tree(tmp_path / "u", {"y": "below"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "a/e/b", tmp_path)
        head = repo.publish(tx, "job-2")
        entries = catalog_entries(repo, head)
        assert entries["a/e"].mode == "directory"
        assert entries["a/e/b/y"].mode == "file"


class TestStoreFailure:
    def test_failed_publish_keeps_head_and_transaction(self, repo, tmp_path, monkeypatch):
        tree = make_tree(tmp_path / "t", {"a": "content"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps", tmp_path)
        before = repo.read_head()

        original = Store.put_bytes

        def boom(self, sha, data, mode=None):
            raise OSError("disk full")

        monkeypatch.setattr(Store, "put_bytes", boom)
        with pytest.raises(StoreWriteFailure):
            repo.publish(tx, "job-x")
        monkeypatch.setattr(Store, "put_bytes", original)

        assert repo.read_head() == before
        assert tx.state == "open"
        head = repo.publish(tx, "job-x")  # retry under the same lock succeeds
        assert head.revision == before.revision + 1


    def test_source_rewritten_after_staging_publishes_the_staged_bytes(self, repo, tmp_path):
        big = b"a" * (CHUNK_SIZE + 1)
        tree = tmp_path / "t"
        tree.mkdir()
        (tree / "f").write_bytes(big)
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps", tmp_path)
        (tree / "f").write_bytes(big[:-1] + b"b")
        head = repo.publish(tx, "job-x")
        ref = catalog_entries(repo, head)["apps/f"].object
        assert ref == ObjectRef(sha256_hex(big), len(big))
        assert sha256_hex(repo.object_path(ref.sha256).read_bytes()) == ref.sha256
        assert repo.verify().ok


class TestStore:
    def test_put_of_a_stored_digest_writes_nothing(self, tmp_path, monkeypatch):
        store = Store(tmp_path / "store")
        sha = sha256_hex(b"kept")
        store.put_bytes(sha, b"kept")
        before = store.path(sha).stat()
        source = tmp_path / "other"
        source.write_bytes(b"other bytes")

        def no_write(*args, **kwargs):
            raise AssertionError("a stored blob was written again")

        monkeypatch.setattr(repo_mod, "write_atomic", no_write)
        monkeypatch.setattr(repo_mod, "copy_verified", no_write)
        store.put_bytes(sha, b"other bytes", 0o444)
        assert store.put_copy(source, sha, 0o444) == len(b"kept")
        after = store.path(sha).stat()
        assert (after.st_ino, after.st_mode, after.st_mtime_ns) == (
            before.st_ino, before.st_mode, before.st_mtime_ns
        )
        assert store.path(sha).read_bytes() == b"kept"

    def test_put_copy_of_bytes_that_do_not_match_stores_nothing(self, tmp_path):
        store = Store(tmp_path / "store")
        source = tmp_path / "f"
        source.write_bytes(b"x" * (CHUNK_SIZE + 1))
        sha = sha256_hex(b"something else")
        assert store.put_copy(source, sha) is None
        assert [p.name for p in store.root.rglob("*") if p.is_file()] == []
        assert store.put_copy(source, sha256_hex(source.read_bytes()), 0o444) == CHUNK_SIZE + 1
        (blob,) = [p for p in store.root.rglob("*") if p.is_file()]
        assert (blob.parent.name + blob.name, blob.stat().st_mode & 0o777) == (
            sha256_hex(source.read_bytes()), 0o444
        )

    def test_hash_all_flags_misnamed_skips_temporaries_and_knows_links(self, tmp_path):
        store = Store(tmp_path / "store")
        good, other = sha256_hex(b"good"), sha256_hex(b"other")
        store.put_bytes(good, b"good")
        store.put_bytes(other, b"not other")  # a blob whose name is not its digest
        temporary = store.path(good).parent / f".{store.path(good).name}.0123abcd.tmp"
        temporary.write_bytes(b"half written")
        link = tmp_path / "tree-file"
        os.link(store.path(good), link)
        report = repo_mod.VerifyReport()
        digests = store.hash_all(report)
        assert report.checked == 2
        assert report.bad_objects == [other]
        st = link.stat()
        assert digests[st.st_dev, st.st_ino] == good
        assert sorted(digests.values()) == sorted([good, sha256_hex(b"not other")])


def temporaries(repo):
    """Temporaries left in objects/, catalogs/ or the repository root."""
    found = [*repo.objects.root.rglob("*"), *repo.catalogs.root.rglob("*"), *repo.path.iterdir()]
    return [p for p in found if p.name.endswith(".tmp")]


def root_revision(repo) -> int:
    return int((repo.path / ".revision").read_text())


def test_fault_at_every_replace_of_a_publish(tmp_path, monkeypatch):
    """Fail publish's k-th os.replace for every k: the head stays old or new,
    the repository verifies, nothing is left behind, the root .revision never
    leads HEAD, and the same transaction can publish. A fault after the HEAD
    rename fails nothing, and the next transaction mends .revision."""
    make_tree(tmp_path / "v1", {"a": "a1", "b": "b1"})
    make_tree(tmp_path / "v2", {"a": "a2", "b": "b1", "c": "c2"})
    k = 0
    while True:
        k += 1
        repo = Repository.init(tmp_path / f"repo-{k}")
        tx = repo.begin_transaction()
        repo.stage(tx, tmp_path / "v1", "apps", tmp_path)
        before = repo.publish(tx, "job-1")
        tx = repo.begin_transaction()
        repo.stage(tx, tmp_path / "v2", "apps", tmp_path)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(repo_mod, "os", Faulty(os, ("replace",), calls, k))
            try:
                head = repo.publish(tx, "job-2")
            except StoreWriteFailure:
                head = None
        if len(calls) < k:
            assert head is not None
            break  # publish made fewer than k calls: every call has been failed once
        seen = repo.read_head()
        assert root_revision(repo) <= seen.revision
        assert repo.verify().ok, repo.verify().problems()
        if head is None:
            assert tx.state == "open"
            # the objects not yet renamed stay pending, for the retry
            assert sorted(map(str, temporaries(repo))) == sorted(tx.pending.values())
            head = repo.publish(tx, "job-2")  # a retry under the same lock
            assert seen in (before, head)
        else:  # the fault came after the commit point
            assert temporaries(repo) == []
            assert k == len(calls) and seen == head
            repo.abort(repo.begin_transaction())
        assert head.revision == before.revision + 1
        assert root_revision(repo) == head.revision
        assert repo.verify().ok
        assert temporaries(repo) == []
    # the objects of a2 and c2, the catalog, HEAD and .revision
    assert k == 6


# sizes around the chunk boundary: empty, within one chunk, exactly one, and more
PAYLOAD_SIZES = (0, 1, 100, CHUNK_SIZE, CHUNK_SIZE + 1, 2 * CHUNK_SIZE + 7)


def payload(size: int, seed: int, last: int) -> bytes:
    """``size`` seeded bytes, the last of them replaced by ``last``: payloads
    of one size and seed differ only in their last byte."""
    data = random.Random(seed).randbytes(size)
    return data[:-1] + bytes([last]) if data else data


tree_st = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d/e", "d/f", "g/h/i"]),
    st.tuples(st.sampled_from(PAYLOAD_SIZES), st.integers(0, 1), st.integers(0, 1)),
    min_size=1,
    max_size=6,
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.tuples(tree_st, st.booleans()), min_size=1, max_size=3))
def test_staged_catalog_equals_the_hashes_of_the_files(transactions):
    """Each transaction stages a tree at ``apps`` and, if asked, again at
    ``copy``, so that every file has a duplicate in it; files of one size may
    differ only in their last byte, and later transactions find objects
    stored. The published catalog is what ``hash_file`` says of the files."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        repo = Repository.init(root / "repo")
        oracle = {}
        for n, (files, copy) in enumerate(transactions):
            tree = make_tree(root / f"t{n}", {})
            for rel, spec in files.items():
                (tree / rel).parent.mkdir(parents=True, exist_ok=True)
                (tree / rel).write_bytes(payload(*spec))
            prefixes = ["apps", "copy"] if copy else ["apps"]
            oracle = {p: e for p, e in oracle.items() if p.split("/")[0] not in prefixes}
            tx = repo.begin_transaction()
            for prefix in prefixes:
                repo.stage(tx, tree, prefix, root)
                for rel in files:
                    ref = ObjectRef(*hash_file(tree / rel))
                    oracle[f"{prefix}/{rel}"] = CatalogEntry(f"{prefix}/{rel}", "file", ref)
            head = repo.publish(tx, f"job-{n}")
            entries = catalog_entries(repo, head)
            del entries[".revision"]
            assert entries == oracle
            assert temporaries(repo) == []
        for entry in oracle.values():
            data = repo.object_path(entry.object.sha256).read_bytes()
            assert ObjectRef(sha256_hex(data), len(data)) == entry.object
        assert repo.verify().ok


# Spots in a delivered prefix, named so that sorting by path string and by
# path components differ ("a.b" sorts before "a/x", and after "a"), and what
# each may be, the kinds staging accepts more often than the others. A
# link's target is below the deploy root ({root}), beside it ({outside}, or
# {root}-x, whose name starts with the root's) or the link itself.
TREE_SPOTS = ("a", "a.b", "a/x", "a/x/y", "a.b/z", "b")
TREE_KINDS = ("file", "file", "executable", "directory", "directory", "link", "link", "fifo")
LINK_TARGETS = (
    "{root}/q/file", "{root}/p/a", "{root}/p/b", "{root}/p/a/x/y", "{root}/q/dir",
    "{root}/q/fifo", "{root}/q/out", "{root}/p", "{root}/missing", "{outside}/f",
    "{outside}/d", "{root}-x/f", "{self}",
)


def make_deploy_tree(base: Path, source_kind: str, nodes) -> tuple[Path, Path]:
    """A deploy root holding the prefix ``p`` that ``nodes`` describe, and
    the things links point at; returns the root, through a link if
    ``source_kind`` asks, and the prefix."""
    real_root, outside = base / "deploy", base / "outside"
    for d in (real_root / "q" / "dir", outside / "d", base / "deploy-x"):
        d.mkdir(parents=True)
    for f in (real_root / "q" / "file", outside / "f", base / "deploy-x" / "f"):
        f.write_text(f.name)
    os.mkfifo(real_root / "q" / "fifo")
    (real_root / "q" / "out").symlink_to(outside / "f")
    root = real_root
    if source_kind == "linked root":
        root = base / "deploy-link"
        root.symlink_to(real_root)
    source = root / "p"
    if source_kind == "outside":
        source.symlink_to(outside / "d")
    if source_kind in ("outside", "missing"):
        return root, source
    source.mkdir()
    for spot, kind, target, relative in nodes:
        path = source / spot
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if kind in ("file", "executable"):
                path.write_text(spot)
                path.chmod(0o755 if kind == "executable" else 0o644)
            elif kind == "directory":
                path.mkdir()
            elif kind == "fifo":
                os.mkfifo(path)
            else:
                target = target.format(root=real_root, outside=outside, self=path)
                path.symlink_to(os.path.relpath(target, path.parent) if relative else target)
        except OSError:  # the spot or its parent is taken by an earlier node
            continue
    return root, source


def resolve_oracle(source: Path, prefix: str, root: Path):
    """What staging ``source`` should do, by ``Path.resolve(strict=True)``:
    (mode, sha256) by repository path of everything before the first path it
    must refuse, and that path's repository path (None if there is none)."""
    real_root = root.resolve()
    staged = {}
    paths = [source] + sorted(source.rglob("*")) if source.is_dir() else [source]
    for path in paths:
        repo_path = "/".join([prefix, *path.relative_to(source).parts])
        try:
            real = path.resolve(strict=True)
        except (OSError, RuntimeError):  # RuntimeError: a symlink loop
            return staged, repo_path
        if not real.is_relative_to(real_root):
            return staged, repo_path
        if real.is_dir():
            if path.is_symlink() and path != source:
                return staged, repo_path
            if path != source and not any(path.iterdir()):
                staged[repo_path] = ("directory", "")
        elif real.is_file():
            mode = "executable" if os.access(path, os.X_OK) else "file"
            staged[repo_path] = (mode, hash_file(path)[0])
        else:
            return staged, repo_path
    return staged, None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    source_kind=st.sampled_from(("directory", "directory", "linked root", "missing", "outside")),
    nodes=st.lists(
        st.tuples(
            st.sampled_from(TREE_SPOTS),
            st.sampled_from(TREE_KINDS),
            st.sampled_from(LINK_TARGETS),
            st.booleans(),
        ),
        max_size=6,
        unique_by=lambda node: node[0],
    ),
)
def test_stage_agrees_with_resolve(source_kind, nodes):
    """Staging a generated deploy tree stages exactly what the oracle
    accepts, or refuses its first bad path in walk order, and raises
    nothing else."""
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch)
        root, source = make_deploy_tree(base, source_kind, nodes)
        staged, bad = resolve_oracle(source, "p", root)
        repo = Repository.init(base / "repo")
        tx = repo.begin_transaction()
        try:
            repo.stage(tx, source, "p", root)
        except InvariantViolation as exc:
            assert bad is not None and str(exc).startswith(f"cannot stage {bad}: "), str(exc)
        else:
            assert bad is None
            assert {p: (s.mode, s.sha256) for p, s in tx.staged.items()} == staged
        finally:
            repo.abort(tx)


def io_counts() -> tuple[int, int]:
    """Bytes this process has read and written through system calls."""
    fields = dict(line.split(": ") for line in Path("/proc/self/io").read_text().splitlines())
    return int(fields["rchar"]), int(fields["wchar"])


@pytest.mark.skipif(not Path("/proc/self/io").is_file(), reason="needs /proc/self/io")
def test_each_new_byte_is_hashed_and_written_once(repo, tmp_path):
    size = 3 * CHUNK_SIZE + 5
    same, other = random.Random(1).randbytes(size), random.Random(2).randbytes(size)
    tree = tmp_path / "t"
    tree.mkdir()
    for name, data in (("a1", same), ("a2", same), ("c", other)):
        (tree / name).write_bytes(data)
    slack = 16 << 10  # HEAD, the catalog and .revision
    tx = repo.begin_transaction()
    read0, written0 = io_counts()
    repo.stage(tx, tree, "apps", tmp_path)
    head = repo.publish(tx, "job-1")
    read1, written1 = io_counts()
    assert len({e.object for p, e in catalog_entries(repo, head).items() if p != ".revision"}) == 2
    # the two new objects, each written once; a2 is no third write
    assert 2 * size <= written1 - written0 <= 2 * size + slack
    # a1 and c are read once, by the hash; a2 and a1's pending copy once, by
    # the comparison that finds them equal; and the first chunk of c and of
    # that copy by the one that does not. Publish reads no payload again.
    assert read1 - read0 <= 4 * size + 2 * CHUNK_SIZE + slack


class TestCanonicalCatalog:
    def test_serialization_round_trip(self):
        for entry in (
            CatalogEntry("b/file", "file", ObjectRef("aa" * 32, 3)),
            CatalogEntry("a/exe", "executable", ObjectRef("bb" * 32, 9)),
            CatalogEntry("z/dir", "directory", None),
        ):
            sha, size = (entry.object.sha256, entry.object.size) if entry.object else ("-", 0)
            line = entry_line(entry.path, entry.mode, sha, size)
            assert parse_line(line) == entry

    def test_sorted_by_path_bytes(self, repo, tmp_path):
        make_tree(tmp_path / "t", {"b": "1", "a": "2"})
        tx = repo.begin_transaction()
        repo.stage(tx, tmp_path / "t", "apps", tmp_path)
        head = repo.publish(tx, "job-1")
        lines = repo.catalogs.path(head.root_catalog.sha256).read_bytes().splitlines()
        assert [line.split(b"\t")[0] for line in lines] == [b".revision", b"apps/a", b"apps/b"]

    def test_identical_content_identical_bytes(self, tmp_path):
        trees = []
        for sub in ("r1", "r2"):
            repo = Repository.init(tmp_path / sub)
            tree = make_tree(tmp_path / f"tree-{sub}", {"bin/x": "same bytes"})
            tx = repo.begin_transaction()
            repo.stage(tx, tree, "apps/demo", tmp_path)
            head = repo.publish(tx, "job")
            trees.append(repo.catalogs.path(head.root_catalog.sha256).read_bytes())
        assert trees[0] == trees[1]


class TestVerify:
    def test_clean_repo_verifies(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "x", "b": "y"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps", tmp_path)
        repo.publish(tx, "job-1")
        report = repo.verify()
        assert report.ok
        assert report.checked >= 3  # two objects + at least one catalog

    def test_bit_flip_reports_exactly_that_object(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "aaaa", "b": "bbbb"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps", tmp_path)
        head = repo.publish(tx, "job-1")
        victim = catalog_entries(repo, head)["apps/a"].object.sha256
        blob = repo.object_path(victim)
        data = bytearray(blob.read_bytes())
        data[0] ^= 0xFF
        blob.write_bytes(bytes(data))
        report = repo.verify()
        assert report.bad_objects == [victim]

    def test_missing_object_reported(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "gone"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps", tmp_path)
        head = repo.publish(tx, "job-1")
        sha = catalog_entries(repo, head)["apps/a"].object.sha256
        repo.object_path(sha).unlink()
        report = repo.verify()
        assert report.missing_objects == [sha]

    def test_revision_entry_consistency_checked(self, repo):
        tx = repo.begin_transaction()
        repo.publish(tx, "job-1")
        # desync HEAD's revision from the catalog's .revision entry
        head = repo.read_head()
        repo.head_path.write_text(
            f"{head.root_catalog.sha256} 42 {head.job_id}\n"
        )
        report = repo.verify()
        assert any("revision" in e for e in report.errors)


    def test_problems_list_each_problem_once(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "aaaa", "b": "bbbb"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps", tmp_path)
        head = repo.publish(tx, "job-1")
        assert repo.verify().problems() == []
        entries = catalog_entries(repo, head)
        bad, gone = (entries[p].object.sha256 for p in ("apps/a", "apps/b"))
        repo.object_path(bad).write_bytes(b"flipped")
        assert repo.verify().problems() == [f"object {bad} fails its digest"]
        repo.object_path(gone).unlink()
        assert repo.verify().problems() == [
            f"object {bad} fails its digest",
            f"missing object {gone}",
        ]


class TestConcurrentReaders:
    def test_read_head_never_torn_under_publishes(self, repo, tmp_path):
        stop = threading.Event()
        violations = []

        def reader():
            while not stop.is_set():
                try:
                    report = repo.verify()
                    assert report.ok, report.problems()
                except Exception as exc:  # noqa: BLE001
                    violations.append(repr(exc))
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(30):
                tree = make_tree(tmp_path / f"t{i}", {"f": f"gen {i}"})
                tx = repo.begin_transaction()
                repo.stage(tx, tree, "apps/demo", tmp_path)
                repo.publish(tx, f"job-{i}")
        finally:
            stop.set()
            thread.join()
        assert violations == []
        assert repo.read_head().revision == 30
