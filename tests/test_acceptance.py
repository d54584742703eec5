"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live; in
a plain run the line for any failing criterion appears in its captured output.
"""
from __future__ import annotations

import contextlib
import random
import shutil
import threading
import time

import pytest

from rade.cli import main as rade
from rade.depgraph import build_order, rebuild_set
from rade.errors import IntegrityError
from rade.repo import Repository
from rade.siteclient import SiteCache
from rade.targets import MatrixConfig, expand
from test_depgraph import (
    make_recipe,
    random_dag,
    reachability_oracle,
    topo_oracle,
)
from toycorpus import OPS_FAIL, catalog_entries, make_workspace, write_event


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


def run_cli(*argv) -> int:
    return rade([str(a) for a in argv])


def make_matrix_workspace(tmp_path):
    return make_workspace(
        tmp_path,
        arches=("aarch64", "x86_64"),
        oses=("linux6", "linux7"),
        sites=("sitea", "siteb"),
        width=4,
    )


def test_criterion_1_end_to_end_delivery(tmp_path, capsys):
    with criterion(1, "end-to-end delivery"):
        started = time.monotonic()
        ws = make_matrix_workspace(tmp_path)
        event = write_event(
            ws.spool_dir / "e.json", "evt-e2e", ["libdemo/1.0/rade.json"]
        )
        rc = run_cli("run", "--config", ws.config_path, "--event", event)
        out = capsys.readouterr().out
        assert rc == 0

        report_lines = [
            line for line in out.splitlines() if line and not line.startswith(("RESULT", "published"))
        ]
        assert len(report_lines) == 16
        assert all(line.split()[2] == "Delivered" for line in report_lines)
        # dependency order: all 8 libdemo jobs precede the 8 app jobs
        assert [line.split()[0] for line in report_lines] == (
            ["libdemo/1.0"] * 8 + ["app/1.0"] * 8
        )

        head = Repository.open(ws.repo_path).read_head()
        assert head.revision == 1  # exactly one publication on a fresh repo

        cache = ws.root / "freshcache"
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", cache) == 0
        capsys.readouterr()
        for arch in ("aarch64", "x86_64"):
            for os_name in ("linux6", "linux7"):
                for site in ("sitea", "siteb"):
                    rc = run_cli(
                        "mve",
                        "app/1.0",
                        "--config",
                        ws.config_path,
                        "--target",
                        f"{arch}-{os_name}-{site}",
                        "--cache",
                        cache,
                    )
                    assert rc == 0, f"mve failed for {arch}-{os_name}-{site}"
                    capsys.readouterr()

        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"


def test_criterion_2_conditional_chaining(tmp_path, capsys):
    with criterion(2, "conditional chaining"):
        ws = make_workspace(tmp_path, ops_tests={"always-fails": OPS_FAIL})
        Repository.init(ws.repo_path)
        revision_before = Repository.open(ws.repo_path).read_head().revision

        event = write_event(ws.spool_dir / "e.json", "evt-ops", ["libdemo/1.0/build.sh"])
        rc = run_cli("run", "--config", ws.config_path, "--event", event)
        out = capsys.readouterr().out
        assert rc == 1
        assert Repository.open(ws.repo_path).read_head().revision == revision_before
        assert not (ws.workdir / "publication.json").exists()

        lines = {line.split()[0]: line.split() for line in out.splitlines() if "/" in line}
        assert lines["libdemo/1.0"][2] == "Failed"
        assert lines["libdemo/1.0"][3] == "test"
        assert lines["app/1.0"][2] == "Pending"  # dependent never started


def test_criterion_3_atomic_publication(tmp_path):
    with criterion(3, "atomic publication"):
        repo = Repository.init(tmp_path / "repo")
        publishes = 100
        stop = threading.Event()
        violations: list[str] = []
        observed: list[int] = []

        def reader():
            last = -1
            while not stop.is_set():
                try:
                    head = repo.read_head()
                    report = repo.verify()  # store and full closure must verify
                    assert report.ok, report.problems()
                except Exception as exc:  # noqa: BLE001
                    violations.append(repr(exc))
                    return
                if head.revision < last:
                    violations.append(
                        f"revision went backwards: {last} -> {head.revision}"
                    )
                    return
                last = head.revision
                observed.append(head.revision)
                time.sleep(0.005)  # ~200 Hz attempt rate

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(publishes):
                payload = tmp_path / f"payload-{i}"
                payload.mkdir()
                (payload / "data").write_text(f"generation {i}\n")
                tx = repo.begin_transaction()
                repo.stage(tx, payload, f"apps/demo/{i}")
                repo.publish(tx, f"job-{i}")
        finally:
            stop.set()
            thread.join()

        assert violations == []
        assert observed, "reader never sampled a head"
        assert observed == sorted(observed)
        assert repo.read_head().revision == publishes
        final = repo.verify()
        assert final.ok


def test_criterion_4_dag_oracle_equivalence():
    with criterion(4, "DAG oracle equivalence"):
        rng = random.Random(0xDA6)
        for _ in range(1000):
            graph = random_dag(rng, max_nodes=6)
            nodes = sorted(graph.nodes)
            subset = set(rng.sample(nodes, rng.randint(1, len(nodes))))
            assert build_order(graph, subset) == topo_oracle(subset, graph.edges)

        rng = random.Random(0x5EED)
        for _ in range(1000):
            graph = random_dag(rng, max_nodes=8)
            nodes = sorted(graph.nodes)
            changed = set(rng.sample(nodes, rng.randint(1, len(nodes))))
            assert rebuild_set(graph, changed) == reachability_oracle(
                graph.edges, changed
            )


def test_criterion_5_integrity(tmp_path, capsys):
    with criterion(5, "integrity detection"):
        ws = make_workspace(tmp_path)
        event = write_event(ws.spool_dir / "e.json", "evt-int", ["libdemo/1.0/build.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", event) == 0
        capsys.readouterr()

        repo = Repository.open(ws.repo_path)
        head = repo.read_head()
        # corruption candidates: the head's whole closure (content objects
        # plus the root catalog document itself)
        candidates = [
            repo.object_path(e.object.sha256)
            for e in catalog_entries(repo, head).values()
            if e.mode != "directory" and e.path != ".revision"
        ]
        candidates.append(repo.catalogs.path(head.root_catalog.sha256))

        rng = random.Random(0xBADC0DE)
        detected = 0
        for i in range(50):
            victim = rng.choice(candidates)
            expected_sha = victim.parent.name + victim.name
            original = victim.read_bytes()
            corrupted = bytearray(original)
            pos = rng.randrange(len(corrupted))
            corrupted[pos] ^= 1 + rng.randrange(255)
            victim.write_bytes(bytes(corrupted))
            try:
                report = repo.verify()
                assert report.bad_objects == [expected_sha]
                cache = SiteCache(ws.repo_path, ws.root / f"cache-{i}")
                with pytest.raises(IntegrityError):
                    cache.sync()
                # fresh cache stays at its previous (empty) consistent state
                assert cache.last_head is None
                assert not cache.tree_root.exists()
                detected += 1
            finally:
                victim.write_bytes(original)
        assert detected == 50  # 100% detection
        assert repo.verify().ok  # restoration succeeded


def test_criterion_6_determinism_golden(tmp_path, capsys):
    with criterion(6, "determinism golden files"):
        ws = make_workspace(tmp_path)

        def one_run(event_name):
            event = write_event(
                ws.spool_dir / event_name, "evt-det", ["libdemo/1.0/build.sh"]
            )
            assert run_cli("run", "--config", ws.config_path, "--event", event) == 0
            capsys.readouterr()
            repo = Repository.open(ws.repo_path)
            head = repo.read_head()
            catalog_bytes = repo.catalogs.path(head.root_catalog.sha256).read_bytes()
            modulefiles = {
                str(p.relative_to(ws.deploy_root)): p.read_bytes()
                for p in (ws.deploy_root / "modulefiles").rglob("*")
                if p.is_file()
            }
            assert run_cli(
                "resolve", "--config", ws.config_path,
                "--event", str(ws.spool_dir / event_name) + ".done",
            ) == 0
            resolve_out = capsys.readouterr().out
            return catalog_bytes, modulefiles, resolve_out

        first = one_run("e1.json")
        # wipe every output and rerun from identical inputs
        for outdir in (ws.workdir, ws.integration_root, ws.deploy_root, ws.repo_path):
            if outdir.exists():
                shutil.rmtree(outdir)
        second = one_run("e2.json")

        assert first[0] == second[0], "canonical catalog bytes differ"
        assert first[1] == second[1], "modulefile bytes differ"
        assert first[2] == second[2], "resolve output differs"


def test_criterion_7_dedup(tmp_path):
    with criterion(7, "publication dedup"):
        repo = Repository.init(tmp_path / "repo")
        payload = tmp_path / "payload"
        (payload / "bin").mkdir(parents=True)
        (payload / "bin" / "tool").write_text("#!/bin/sh\necho ok\n")
        (payload / "lib").mkdir()
        (payload / "lib" / "libtool.so").write_text("not really elf\n")

        def object_count():
            return sum(1 for p in repo.objects.root.rglob("*") if p.is_file())

        revision_file = repo.path / ".revision"
        assert revision_file.read_text() == "0\n"

        tx = repo.begin_transaction()
        repo.stage(tx, payload, "apps/tool/1.0")
        repo.publish(tx, "job-1")
        count_after_first = object_count()
        assert revision_file.read_text() == "1\n"

        tx = repo.begin_transaction()
        repo.stage(tx, payload, "apps/tool/1.0")
        repo.publish(tx, "job-2")
        assert object_count() == count_after_first  # 0 new object-store files
        assert revision_file.read_text() == "2\n"

        tx = repo.begin_transaction()
        repo.stage(tx, payload, "apps/tool/1.0")
        repo.publish(tx, "job-3")
        assert object_count() == count_after_first
        assert revision_file.read_text() == "3\n"


def test_criterion_8_matrix_arithmetic():
    with criterion(8, "matrix arithmetic"):
        rng = random.Random(0xA71)
        recipe = make_recipe("demo", "1.0")
        for _ in range(200):
            na, no, ns = (rng.randint(1, 5) for _ in range(3))
            matrix = MatrixConfig(
                arches=tuple(f"a{i}" for i in range(na)),
                oses=tuple(f"o{i}" for i in range(no)),
                sites=tuple(f"s{i}" for i in range(ns)),
            )
            targets = expand(matrix, recipe)
            assert len(targets) == na * no * ns
            assert len(set(targets)) == len(targets)
