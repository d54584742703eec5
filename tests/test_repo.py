from __future__ import annotations

import threading

import pytest

from rade.errors import (
    CorruptHead,
    PathCollision,
    StoreWriteFailure,
    TransactionInProgress,
)
from rade.repo import CHUNK_SIZE, Catalog, CatalogEntry, ObjectRef, Repository, sha256_hex


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
        p for p in repo.objects_dir.rglob("*") if p.is_file() and not p.name.endswith(".tmp")
    )


class TestInitAndHead:
    def test_fresh_repo_is_revision_zero(self, repo):
        head = repo.read_head()
        assert head.revision == 0
        assert repo.read_catalog(head.root_catalog).entries == ()
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


class TestStaging:
    def test_counts_files(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "1", "b": "2", "sub/c": "3"})
        tx = repo.begin_transaction()
        assert repo.stage(tx, tree, "apps") == 3
        repo.abort(tx)

    def test_idempotent_restage(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "same"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps")
        repo.stage(tx, tree, "apps")
        assert len(tx.staged) == 1
        repo.abort(tx)

    def test_conflicting_content_collides(self, repo, tmp_path):
        one = make_tree(tmp_path / "one", {"a": "first"})
        two = make_tree(tmp_path / "two", {"a": "second"})
        tx = repo.begin_transaction()
        repo.stage(tx, one, "apps")
        with pytest.raises(PathCollision):
            repo.stage(tx, two, "apps")
        repo.abort(tx)

    def test_single_file_staging(self, repo, tmp_path):
        f = tmp_path / "module"
        f.write_text("#%Module1.0\n")
        tx = repo.begin_transaction()
        assert repo.stage(tx, f, "modulefiles/x/m") == 1
        repo.abort(tx)

    def test_revision_path_reserved(self, repo, tmp_path):
        f = tmp_path / "f"
        f.write_text("boom")
        tx = repo.begin_transaction()
        with pytest.raises(PathCollision):
            repo.stage(tx, f, ".revision")
        repo.abort(tx)

    def test_escaping_paths_rejected(self, repo, tmp_path):
        f = tmp_path / "f"
        f.write_text("x")
        tx = repo.begin_transaction()
        for bad in ("../out", "/abs", "a//b", "a/./b"):
            with pytest.raises(PathCollision):
                repo.stage(tx, f, bad)
        repo.abort(tx)


class TestPublish:
    def test_minimal_publish_gets_revision_file_entry(self, repo):
        tx = repo.begin_transaction()
        head = repo.publish(tx, "job-0")
        assert head.revision == 1
        catalog = repo.read_catalog(head.root_catalog)
        assert [e.path for e in catalog.entries] == [".revision"]
        assert (repo.path / ".revision").read_text() == "1\n"

    def test_publish_stages_tree_content(self, repo, tmp_path):
        tree = make_tree(
            tmp_path / "t", {"bin/hello": "#!/bin/sh\n"}, executables=("bin/hello",)
        )
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "x86_64/linux/sitea/hello/1.0")
        head = repo.publish(tx, "job-1")
        entries = repo.read_catalog(head.root_catalog).by_path()
        entry = entries["x86_64/linux/sitea/hello/1.0/bin/hello"]
        assert entry.mode == "executable"
        assert repo.object_path(entry.object.sha256).is_file()

    def test_revision_counts_publishes(self, repo, tmp_path):
        for i in range(5):
            tree = make_tree(tmp_path / f"t{i}", {"f": f"content {i}"})
            tx = repo.begin_transaction()
            repo.stage(tx, tree, "data")
            repo.publish(tx, f"job-{i}")
        head = repo.read_head()
        assert head.revision == 5
        assert head.job_id == "job-4"
        assert (repo.path / ".revision").read_text() == "5\n"

    def test_dedup_identical_publish_adds_zero_objects(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"bin/app": "payload", "lib/l.so": "lib"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps/demo")
        repo.publish(tx, "job-1")
        before = object_files(repo)

        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps/demo")
        head = repo.publish(tx, "job-2")
        after = object_files(repo)

        assert after == before  # dedup oracle: object-store files unchanged
        assert head.revision == 2
        assert head.job_id == "job-2"

    def test_previous_content_carried_forward(self, repo, tmp_path):
        first = make_tree(tmp_path / "a", {"f": "one"})
        tx = repo.begin_transaction()
        repo.stage(tx, first, "apps/one")
        repo.publish(tx, "job-1")

        second = make_tree(tmp_path / "b", {"g": "two"})
        tx = repo.begin_transaction()
        repo.stage(tx, second, "apps/two")
        head = repo.publish(tx, "job-2")
        paths = set(repo.read_catalog(head.root_catalog).by_path())
        assert {"apps/one/f", "apps/two/g", ".revision"} <= paths

    def test_restaged_prefix_drops_removed_files(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"bin/a": "a", "bin/b": "b", "lib/c": "c"})
        make_tree(tmp_path / "other", {"f": "kept"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps/d")
        repo.stage(tx, tmp_path / "other", "apps/other")
        repo.publish(tx, "job-1")

        (tree / "bin" / "b").unlink()
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps/d")
        head = repo.publish(tx, "job-2")
        paths = set(repo.read_catalog(head.root_catalog).by_path())
        assert paths == {"apps/d/bin/a", "apps/d/lib/c", "apps/other/f", ".revision"}

    def test_empty_dirs_preserved(self, repo, tmp_path):
        tree = tmp_path / "t"
        (tree / "bin").mkdir(parents=True)
        (tree / "bin" / "x").write_text("x")
        (tree / "var" / "empty").mkdir(parents=True)
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps/d")
        head = repo.publish(tx, "job-1")
        entries = repo.read_catalog(head.root_catalog).by_path()
        assert entries["apps/d/var/empty"].mode == "directory"


    def test_multi_chunk_file_is_stored_whole(self, repo, tmp_path):
        data = bytes(range(256)) * (2 * CHUNK_SIZE // 256) + b"tail"
        (tmp_path / "t").mkdir()
        (tmp_path / "t" / "big").write_bytes(data)
        tx = repo.begin_transaction()
        repo.stage(tx, tmp_path / "t", "apps")
        head = repo.publish(tx, "job-1")
        entry = repo.read_catalog(head.root_catalog).by_path()["apps/big"]
        assert entry.object == ObjectRef(sha256_hex(data), len(data))
        assert repo.object_path(entry.object.sha256).read_bytes() == data

    def test_path_with_a_control_character_survives_the_next_transaction(
        self, repo, tmp_path
    ):
        tree = make_tree(tmp_path / "t", {"x\x1cy": "one"})
        for job in ("job-1", "job-2"):
            tx = repo.begin_transaction()
            repo.stage(tx, tree, "apps")
            head = repo.publish(tx, job)
        assert set(repo.read_catalog(head.root_catalog).by_path()) == {
            "apps/x\x1cy", ".revision"
        }


class TestFileParentCollision:
    """A catalog in which a file is the parent of another path cannot be
    materialized, so publish rejects it before it writes anything."""

    @staticmethod
    def assert_rejected(repo, tx):
        before = repo.read_head()
        catalogs = sorted(repo.catalogs_dir.rglob("*"))
        objects = object_files(repo)
        with pytest.raises(PathCollision, match="parent of another path"):
            repo.publish(tx, "job-x")
        assert repo.read_head() == before
        assert sorted(repo.catalogs_dir.rglob("*")) == catalogs
        assert object_files(repo) == objects
        repo.abort(tx)

    def test_tree_below_a_published_file(self, repo, tmp_path):
        (tmp_path / "a").write_text("file")
        tx = repo.begin_transaction()
        repo.stage(tx, tmp_path / "a", "a")
        repo.publish(tx, "job-1")

        tree = make_tree(tmp_path / "t", {"y": "below"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "a/b")
        self.assert_rejected(repo, tx)

    def test_file_and_tree_below_it_in_one_transaction(self, repo, tmp_path):
        (tmp_path / "a").write_text("file")
        tree = make_tree(tmp_path / "t", {"y": "below"})
        tx = repo.begin_transaction()
        repo.stage(tx, tmp_path / "a", "a")
        repo.stage(tx, tree, "a/b")
        self.assert_rejected(repo, tx)

    def test_tree_at_the_revision_prefix(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"x": "below"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, ".revision")
        self.assert_rejected(repo, tx)

    def test_empty_directory_may_be_a_parent(self, repo, tmp_path):
        (tmp_path / "t" / "e").mkdir(parents=True)
        tx = repo.begin_transaction()
        repo.stage(tx, tmp_path / "t", "a")
        repo.publish(tx, "job-1")

        tree = make_tree(tmp_path / "u", {"y": "below"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "a/e/b")
        head = repo.publish(tx, "job-2")
        entries = repo.read_catalog(head.root_catalog).by_path()
        assert entries["a/e"].mode == "directory"
        assert entries["a/e/b/y"].mode == "file"


class TestStoreFailure:
    def test_failed_publish_keeps_head_and_transaction(self, repo, tmp_path, monkeypatch):
        tree = make_tree(tmp_path / "t", {"a": "content"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps")
        before = repo.read_head()

        original = Repository._write_blob

        def boom(self, store, sha, data):
            raise OSError("disk full")

        monkeypatch.setattr(Repository, "_write_blob", boom)
        with pytest.raises(StoreWriteFailure):
            repo.publish(tx, "job-x")
        monkeypatch.setattr(Repository, "_write_blob", original)

        assert repo.read_head() == before
        assert tx.state == "open"
        head = repo.publish(tx, "job-x")  # retry under the same lock succeeds
        assert head.revision == before.revision + 1


    def test_source_changed_since_staging_is_not_stored(self, repo, tmp_path):
        big = b"a" * (CHUNK_SIZE + 1)
        tree = tmp_path / "t"
        tree.mkdir()
        (tree / "f").write_bytes(big)
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps")
        before = repo.read_head()
        (tree / "f").write_bytes(big[:-1] + b"b")
        with pytest.raises(StoreWriteFailure, match="changed since staging"):
            repo.publish(tx, "job-x")
        assert repo.read_head() == before
        assert tx.state == "open"
        assert [p for p in repo.objects_dir.rglob("*") if p.is_file()] == []
        repo.abort(tx)


class TestCanonicalCatalog:
    def test_serialization_round_trip(self):
        entries = (
            CatalogEntry("b/file", "file", ObjectRef("aa" * 32, 3)),
            CatalogEntry("a/exe", "executable", ObjectRef("bb" * 32, 9)),
            CatalogEntry("z/dir", "directory", None),
        )
        catalog = Catalog(entries)
        data = catalog.serialize()
        assert Catalog.parse(data).serialize() == data

    def test_sorted_by_path_bytes(self):
        entries = (
            CatalogEntry("b", "file", ObjectRef("aa" * 32, 1)),
            CatalogEntry("a", "file", ObjectRef("bb" * 32, 1)),
        )
        lines = Catalog(entries).serialize().decode().splitlines()
        assert lines[0].startswith("a\t")
        assert lines[1].startswith("b\t")

    def test_identical_content_identical_bytes(self, tmp_path):
        trees = []
        for sub in ("r1", "r2"):
            repo = Repository.init(tmp_path / sub)
            tree = make_tree(tmp_path / f"tree-{sub}", {"bin/x": "same bytes"})
            tx = repo.begin_transaction()
            repo.stage(tx, tree, "apps/demo")
            head = repo.publish(tx, "job")
            trees.append(repo.catalog_path(head.root_catalog.sha256).read_bytes())
        assert trees[0] == trees[1]


class TestVerify:
    def test_clean_repo_verifies(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "x", "b": "y"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps")
        repo.publish(tx, "job-1")
        report = repo.verify()
        assert report.ok
        assert report.checked >= 3  # two objects + at least one catalog

    def test_bit_flip_reports_exactly_that_object(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "aaaa", "b": "bbbb"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps")
        head = repo.publish(tx, "job-1")
        victim = repo.read_catalog(head.root_catalog).by_path()["apps/a"].object.sha256
        blob = repo.object_path(victim)
        data = bytearray(blob.read_bytes())
        data[0] ^= 0xFF
        blob.write_bytes(bytes(data))
        report = repo.verify()
        assert report.bad_objects == [victim]

    def test_missing_object_reported(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "gone"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps")
        head = repo.publish(tx, "job-1")
        sha = repo.read_catalog(head.root_catalog).by_path()["apps/a"].object.sha256
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


    def test_verify_head_names_the_first_problem(self, repo, tmp_path):
        tree = make_tree(tmp_path / "t", {"a": "aaaa", "b": "bbbb"})
        tx = repo.begin_transaction()
        repo.stage(tx, tree, "apps")
        head = repo.publish(tx, "job-1")
        repo.verify_head(head)
        entries = repo.read_catalog(head.root_catalog).by_path()
        bad, gone = (entries[p].object.sha256 for p in ("apps/a", "apps/b"))
        repo.object_path(bad).write_bytes(b"flipped")
        with pytest.raises(CorruptHead, match=f"object {bad} fails its digest"):
            repo.verify_head(head)
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
                    head = repo.read_head()
                    repo.verify_head(head)
                except Exception as exc:  # noqa: BLE001
                    violations.append(repr(exc))
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(30):
                tree = make_tree(tmp_path / f"t{i}", {"f": f"gen {i}"})
                tx = repo.begin_transaction()
                repo.stage(tx, tree, "apps/demo")
                repo.publish(tx, f"job-{i}")
        finally:
            stop.set()
            thread.join()
        assert violations == []
        assert repo.read_head().revision == 30
