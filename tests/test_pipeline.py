from __future__ import annotations

import collections
import errno
import itertools
import json
import os
import signal
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rade import pipeline
from rade.depgraph import BuildPlan, DependencyGraph, build_order
from rade.envtree import DEPLOY, EnvTree, prefix_for

from rade.errors import BuildFailed, DeliverFailed, InvariantViolation, SourceChecksumMismatch
from rade.errors import TestFailed as PhaseTestFailed
from rade.pipeline import (
    BUILDING,
    BUILT,
    DELIVERED,
    DELIVERING,
    FAILED,
    PENDING,
    RESERVED_ENV_NAMES,
    TESTED,
    TESTING,
    JobRunner,
    escaping_paths,
    plan,
)
from rade.recipes import CommitEvent
from rade.targets import Target, target_id
from toycorpus import (
    OPS_NO_WORLD_WRITABLE,
    make_runner,
    make_workspace,
    write_recipe,
)
from toycorpus import make_bundle

EVENT_HELLO = CommitEvent("evt-hello", ("hello/1.0/build.sh",), 1700000000)
EVENT_LIBDEMO = CommitEvent("evt-libdemo", ("libdemo/1.0/build.sh",), 1700000000)


def first_job(runner, build_plan, index=0):
    name, version, target = build_plan.jobs[index]
    return runner.new_job(name, version, target)


class TestPlan:
    def test_recipe_without_dependents_spans_matrix(self, matrix_ws):
        config, corpus, graph, runner = make_runner(matrix_ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        assert len(build_plan.jobs) == 8
        assert {(n, v) for n, v, _ in build_plan.jobs} == {("hello", "1.0")}
        assert build_plan.rationale[("hello", "1.0")] == "changed"

    def test_chain_ordered_dependency_first(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_LIBDEMO, corpus, graph, config.matrix)
        assert [(n, v) for n, v, _ in build_plan.jobs] == [
            ("libdemo", "1.0"),
            ("app", "1.0"),
        ]
        assert build_plan.rationale[("libdemo", "1.0")] == "changed"
        assert build_plan.rationale[("app", "1.0")] == "dependent-of-changed"

    def test_non_recipe_event_gives_empty_plan(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        event = CommitEvent("evt-doc", ("README.md",), 1)
        build_plan = plan(event, corpus, graph, config.matrix)
        assert build_plan.jobs == ()
        report = runner.run_plan(build_plan, config.width)
        assert report.ok
        assert report.publication is None

    def test_planning_is_deterministic(self, matrix_ws):
        config, corpus, graph, _ = make_runner(matrix_ws)
        a = plan(EVENT_LIBDEMO, corpus, graph, config.matrix)
        b = plan(EVENT_LIBDEMO, corpus, graph, config.matrix)
        assert "\n".join(a.lines()) == "\n".join(b.lines())


class TestBuildPhase:
    def test_build_produces_binary(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        runner.run_build(job)
        assert job.state == BUILT
        assert (runner._build_dir(job) / "hello").is_file()

    def test_tampered_source_never_runs_script(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        bundle = small_ws.sources_dir / "hello-1.0.tar.gz"
        bundle.write_bytes(bundle.read_bytes() + b"tamper")
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        with pytest.raises(SourceChecksumMismatch):
            runner.run_build(job)
        assert job.state == FAILED
        assert job.failed_phase == "build"
        assert "$ " not in job.log_path.read_text()  # no script was invoked

    def test_failing_build_script(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        (small_ws.corpus_root / "hello" / "1.0" / "build.sh").write_text(
            "#!/bin/sh\nexit 1\n"
        )
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        with pytest.raises(BuildFailed):
            runner.run_build(job)
        assert job.state == FAILED
        assert job.failed_phase == "build"
        assert "=== PHASE test ===" not in job.log_path.read_text()


class TestTestPhase:
    def test_happy_path(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        runner.run_build(job)
        runner.run_test(job)
        assert job.state == TESTED
        prefix = small_ws.integration_root / "x86_64/linux/sitea/hello/1.0"
        assert (prefix / "bin" / "hello").is_file()

    def test_world_writable_artifact_fails_ops_test(self, tmp_path):
        ws = make_workspace(
            tmp_path, ops_tests={"no-world-writable-files": OPS_NO_WORLD_WRITABLE}
        )
        build_script = (ws.corpus_root / "hello" / "1.0" / "build.sh").read_text()
        (ws.corpus_root / "hello" / "1.0" / "build.sh").write_text(
            build_script + 'touch "$BUILD_DIR/loose"\nchmod 666 "$BUILD_DIR/loose"\n'
        )
        config, corpus, graph, runner = make_runner(ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        runner.run_build(job)
        with pytest.raises(PhaseTestFailed) as exc:
            runner.run_test(job)
        assert exc.value.origin == "ops"
        assert exc.value.command == "no-world-writable-files"
        assert job.state == FAILED
        assert job.failed_phase == "test"

    def test_zero_tests_still_installs(self, tmp_path):
        ws = make_workspace(tmp_path, corpus=False)
        _, digest = make_bundle(ws.sources_dir, "quiet-1.0.tar.gz", {"f": "data\n"})
        write_recipe(
            ws.corpus_root,
            "quiet",
            "1.0",
            source_url=f"file://{ws.sources_dir}/quiet-1.0.tar.gz",
            sha256=digest,
            build_script=(
                '#!/bin/sh\nset -eu\ntar -xzf "$SOURCE_DIR/quiet-1.0.tar.gz" '
                '-C "$BUILD_DIR"\n'
            ),
            check_script="#!/bin/sh\nexit 0\n",
            deploy_script=(
                '#!/bin/sh\nset -eu\nPREFIX="${DEPLOY_PREFIX:-$INSTALL_PREFIX}"\n'
                'mkdir -p "$PREFIX/bin"\ncp "$BUILD_DIR/f" "$PREFIX/bin/f"\n'
            ),
        )
        config, corpus, graph, runner = make_runner(ws)
        event = CommitEvent("evt-quiet", ("quiet/1.0/rade.json",), 1)
        build_plan = plan(event, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        runner.run_build(job)
        runner.run_test(job)
        assert job.state == TESTED


class TestDeliverPhase:
    def test_delivered_payload(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        runner.run_build(job)
        runner.run_test(job)
        payload = runner.run_deliver(job)
        assert job.state == DELIVERED
        prefix = small_ws.deploy_root / "x86_64/linux/sitea/hello/1.0"
        module = small_ws.deploy_root / "modulefiles/x86_64/linux/sitea/hello/1.0"
        assert (prefix / "bin" / "hello").is_file()
        assert module.is_file()
        assert payload == [
            (prefix, "x86_64/linux/sitea/hello/1.0"),
            (module, "modulefiles/x86_64/linux/sitea/hello/1.0"),
        ]

    def test_deploy_failure_keeps_integration_install(self, small_ws):
        deploy = small_ws.corpus_root / "hello" / "1.0" / "deploy.sh"
        deploy.write_text(
            "#!/bin/sh\nset -eu\n"
            'if [ -n "${DEPLOY_PREFIX:-}" ]; then exit 1; fi\n'
            'mkdir -p "$INSTALL_PREFIX/bin"\n'
            'cp "$BUILD_DIR/hello" "$INSTALL_PREFIX/bin/hello"\n'
        )
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        runner.run_build(job)
        runner.run_test(job)
        with pytest.raises(DeliverFailed):
            runner.run_deliver(job)
        assert job.state == FAILED
        assert job.failed_phase == "deliver"
        assert job.payload == []
        integration = small_ws.integration_root / "x86_64/linux/sitea/hello/1.0"
        assert (integration / "bin" / "hello").is_file()

    def test_two_targets_have_disjoint_deploy_trees(self, tmp_path):
        ws = make_workspace(tmp_path, sites=("sitea", "siteb"))
        config, corpus, graph, runner = make_runner(ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        assert len(build_plan.jobs) == 2
        file_sets = []
        for index in range(2):
            job = first_job(runner, build_plan, index)
            runner.run_build(job)
            runner.run_test(job)
            runner.run_deliver(job)
            prefix = job.payload[0][0]
            file_sets.append(
                {p.relative_to(ws.deploy_root) for p in prefix.rglob("*")}
            )
        assert file_sets[0] & file_sets[1] == set()  # oracle: intersection empty


class TestRunPlan:
    def test_independent_recipes_deliver_concurrently(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        event = CommitEvent(
            "evt-two", ("hello/1.0/build.sh", "libdemo/1.0/build.sh"), 1
        )
        build_plan = plan(event, corpus, graph, config.matrix)
        report = runner.run_plan(build_plan, width=2)
        by_name = {o.name: o.state for o in report.outcomes}
        assert by_name == {"hello": DELIVERED, "libdemo": DELIVERED, "app": DELIVERED}

    def test_failed_dependency_skips_dependents(self, small_ws):
        (small_ws.corpus_root / "libdemo" / "1.0" / "build.sh").write_text(
            "#!/bin/sh\nexit 1\n"
        )
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_LIBDEMO, corpus, graph, config.matrix)
        report = runner.run_plan(build_plan, config.width)
        states = {o.name: o for o in report.outcomes}
        assert states["libdemo"].state == FAILED
        assert states["libdemo"].failed_phase == "build"
        assert states["app"].state == PENDING
        assert "not delivered" in states["app"].reason
        assert report.publication is None
        assert "RESULT fail" in report.render()

    @pytest.mark.parametrize(
        "case, phase, reason",
        [
            ("https_source", "build", "unsupported source url scheme: https://example.invalid/l.tgz"),
            ("missing_bundle", "build", "source bundle missing: {bundle}"),
            ("integration_install", "test", "integration install exited 3"),
        ],
    )
    def test_phase_error_fails_the_job_there_and_skips_dependents(
        self, small_ws, case, phase, reason
    ):
        recipe_dir = small_ws.corpus_root / "libdemo" / "1.0"
        bundle = small_ws.sources_dir / "libdemo-1.0.tar.gz"
        if case == "https_source":  # SourceUnavailable: a scheme no fetch supports
            manifest = recipe_dir / "rade.json"
            doc = json.loads(manifest.read_text())
            doc["source"]["url"] = "https://example.invalid/l.tgz"
            manifest.write_text(json.dumps(doc))
        elif case == "missing_bundle":  # SourceUnavailable: no file behind file://
            bundle.unlink()
        else:  # InstallFailed: the deploy script fails in the integration tree only
            deploy = recipe_dir / "deploy.sh"
            deploy.write_text(deploy.read_text().replace(
                "set -eu\n", 'set -eu\nif [ -n "${INSTALL_PREFIX:-}" ]; then exit 3; fi\n'
            ))
        config, corpus, graph, runner = make_runner(small_ws)
        report = runner.run_plan(plan(EVENT_LIBDEMO, corpus, graph, config.matrix), 1)
        libdemo, app = report.outcomes
        assert (libdemo.state, libdemo.failed_phase) == (FAILED, phase)
        assert libdemo.reason == reason.format(bundle=bundle)
        assert libdemo.log_path.read_text().endswith(f"error: {libdemo.reason}\n")
        assert app.state == PENDING
        assert app.reason == "dependency libdemo/1.0 not delivered"
        assert report.publication is None

    def test_full_success_emits_single_publication(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_LIBDEMO, corpus, graph, config.matrix)
        report = runner.run_plan(build_plan, config.width)
        assert report.ok
        assert report.publication is not None
        # one prefix + one modulefile per job
        assert len(report.publication.stages) == 2 * len(build_plan.jobs)
        assert report.publication.job_id == "evt-libdemo"
        assert "RESULT ok" in report.render()

    def test_publication_payload_stays_inside_deploy_tree(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_LIBDEMO, corpus, graph, config.matrix)
        report = runner.run_plan(build_plan, config.width)
        for source, _ in report.publication.stages:
            assert source.resolve().is_relative_to(small_ws.deploy_root.resolve())
            assert not source.resolve().is_relative_to(
                small_ws.integration_root.resolve()
            )

    def test_prefix_linked_out_of_the_deploy_tree_publishes_nothing(self, small_ws, tmp_path):
        elsewhere = tmp_path / "elsewhere"
        deploy = small_ws.corpus_root / "hello" / "1.0" / "deploy.sh"
        deploy.write_text(f"""\
#!/bin/sh
set -eu
PREFIX="${{DEPLOY_PREFIX:-$INSTALL_PREFIX}}"
mkdir -p "{elsewhere}/bin"
cp "$BUILD_DIR/hello" "{elsewhere}/bin/hello"
rm -rf "$PREFIX"
ln -s "{elsewhere}" "$PREFIX"
""")
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        with pytest.raises(InvariantViolation, match="escapes the deploy tree"):
            runner.run_plan(build_plan, config.width)
        target = Target("x86_64", "linux", "sitea")
        assert prefix_for(runner.deploy, target, "hello", "1.0").is_symlink()

    def test_prefix_left_as_a_symlink_loop_publishes_nothing(self, small_ws):
        # app, delivered after libdemo, leaves libdemo's deploy prefix a loop
        deploy = small_ws.corpus_root / "app" / "1.0" / "deploy.sh"
        deploy.write_text("""\
#!/bin/sh
set -eu
PREFIX="${DEPLOY_PREFIX:-$INSTALL_PREFIX}"
mkdir -p "$PREFIX/bin"
cp "$BUILD_DIR/app" "$PREFIX/bin/app"
if [ -n "${DEPLOY_PREFIX:-}" ]; then
    cd "$PREFIX/../../libdemo"
    rm -rf 1.0
    ln -s 1.0 1.0
fi
""")
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_LIBDEMO, corpus, graph, config.matrix)
        with pytest.raises(InvariantViolation, match="libdemo/1.0 escapes the deploy tree"):
            runner.run_plan(build_plan, config.width)

    def test_delivered_modulefile_setenv_matches_prefix(self, small_ws):
        from rade.envtree import DEPLOY, EnvTree, modulefile_path, prefix_for

        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_LIBDEMO, corpus, graph, config.matrix)
        report = runner.run_plan(build_plan, config.width)
        assert report.ok
        deploy = EnvTree(DEPLOY, small_ws.deploy_root)
        for name, version, target in build_plan.jobs:
            module = modulefile_path(deploy, target, name, version)
            expected = prefix_for(deploy, target, name, version)
            var = name.upper().replace("-", "_").replace(".", "_")
            assert f"setenv {var}_DIR {expected}" in module.read_text()

    def test_concurrent_jobs_use_disjoint_build_dirs(self, matrix_ws):
        config, corpus, graph, runner = make_runner(matrix_ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        jobs = [runner.new_job(n, v, t) for n, v, t in build_plan.jobs]
        build_dirs = [runner._build_dir(j) for j in jobs]
        assert len(set(build_dirs)) == len(build_dirs)

    def test_dep_filtered_from_target_fails_dependent_build_there(self, tmp_path):
        import json

        ws = make_workspace(tmp_path, sites=("sitea", "siteb"))
        manifest_path = ws.corpus_root / "libdemo" / "1.0" / "rade.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["targets"] = {"exclude": ["*-*-siteb"]}
        manifest_path.write_text(json.dumps(manifest))

        config, corpus, graph, runner = make_runner(ws)
        build_plan = plan(EVENT_LIBDEMO, corpus, graph, config.matrix)
        report = runner.run_plan(build_plan, config.width)
        by_key = {(o.name, o.target.site): o for o in report.outcomes}
        assert by_key[("libdemo", "sitea")].state == DELIVERED
        assert by_key[("app", "sitea")].state == DELIVERED
        # the dependency never exists for siteb, so app fails at build there
        assert by_key[("app", "siteb")].state == FAILED
        assert by_key[("app", "siteb")].failed_phase == "build"
        assert "not installed" in by_key[("app", "siteb")].reason
        assert report.publication is None

    def test_phase_chaining_recorded_in_transitions(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        runner.run_job(job)
        states = [s for s, _ in job.transitions]
        assert states == [
            "Building",
            "Built",
            "Testing",
            "Tested",
            "Delivering",
            "Delivered",
        ]

    def test_report_entries_are_the_jobs(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        report = runner.run_plan(plan(EVENT_HELLO, corpus, graph, config.matrix), 1)
        (job,) = report.outcomes
        assert isinstance(job, pipeline.Job)
        assert [s for s, _ in job.transitions][-1] == DELIVERED
        assert job.payload == list(report.publication.stages)
        assert job.reason is None
        assert job.started <= job.transitions[0][1] <= job.transitions[-1][1] <= job.finished
        assert job.duration_ms == int((job.finished - job.started) * 1000)

    @pytest.mark.parametrize(
        "phase, running", [("build", BUILDING), ("test", TESTING), ("deliver", DELIVERING)]
    )
    def test_internal_error_fails_the_job_at_its_phase(
        self, small_ws, monkeypatch, phase, running
    ):
        phase_env = JobRunner._phase_env

        def broken_phase_env(runner, job, tree):
            if job.name == "libdemo" and job.state == running:
                raise RuntimeError("boom")
            return phase_env(runner, job, tree)

        monkeypatch.setattr(JobRunner, "_phase_env", broken_phase_env)
        config, corpus, graph, runner = make_runner(small_ws)
        report = runner.run_plan(plan(EVENT_LIBDEMO, corpus, graph, config.matrix), 1)
        libdemo, app = report.outcomes
        assert (libdemo.state, libdemo.failed_phase) == (FAILED, phase)
        assert [s for s, _ in libdemo.transitions][-2:] == [running, FAILED]
        assert libdemo.reason == "internal error: RuntimeError('boom')"
        assert libdemo.log_path.read_text().endswith(libdemo.reason + "\n")
        assert app.state == PENDING
        assert app.reason == "dependency libdemo/1.0 not delivered"
        assert report.publication is None

    def test_only_the_test_phase_takes_the_build_environment(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        job = first_job(runner, plan(EVENT_HELLO, corpus, graph, config.matrix))
        runner.run_build(job)
        assert "DEPLOY_PREFIX" in runner._phase_env(job, runner.deploy)
        assert list(runner._built_envs) == [job.key]
        runner.run_test(job)
        assert runner._built_envs == {}

    def test_each_tree_environment_is_worked_out_once_per_job(self, small_ws, monkeypatch):
        calls = []
        module_path = pipeline.envtree.module_path_for_dependencies

        def counting(graph, recipe, tree, target):
            calls.append((recipe.name, tree.kind))
            return module_path(graph, recipe, tree, target)

        monkeypatch.setattr(pipeline.envtree, "module_path_for_dependencies", counting)
        config, corpus, graph, runner = make_runner(small_ws)
        report = runner.run_plan(plan(EVENT_LIBDEMO, corpus, graph, config.matrix), 1)
        assert report.ok
        assert sorted(calls) == [
            ("app", "deploy"), ("app", "integration"),
            ("libdemo", "deploy"), ("libdemo", "integration"),
        ]
        assert runner._built_envs == {}  # each test phase took its build's

    def test_logs_hold_only_this_runs_output(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_LIBDEMO, corpus, graph, config.matrix)
        runner.new_job(*build_plan.jobs[0])
        assert not (small_ws.workdir / "logs").exists()  # planning writes no file
        assert runner.run_plan(build_plan, 1).ok
        (small_ws.corpus_root / "libdemo" / "1.0" / "build.sh").write_text(
            "#!/bin/sh\nexit 1\n"
        )
        config, corpus, graph, runner = make_runner(small_ws)
        libdemo, app = runner.run_plan(build_plan, 1).outcomes
        text = libdemo.log_path.read_text()
        assert text.startswith("=== PHASE build ===\n")
        assert text.count("=== PHASE") == 1
        assert app.state == PENDING
        assert app.log_path.read_text() == ""  # the delivered run's log is gone

    def test_report_line_format(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        report = runner.run_plan(build_plan, 1)
        lines = report.render().splitlines()
        cols = lines[0].split()
        assert cols[0] == "hello/1.0"
        assert cols[1] == "x86_64-linux-sitea"
        assert cols[2] == DELIVERED
        assert cols[3].isdigit()  # duration_ms
        assert lines[-1] == "RESULT ok"


class TestEnvironment:
    def test_host_environment_not_leaked(self, small_ws, monkeypatch):
        monkeypatch.setenv("LEAKY_SECRET", "hostvalue")
        check = small_ws.corpus_root / "hello" / "1.0" / "check-build"
        check.write_text(
            '#!/bin/sh\nset -eu\n[ -z "${LEAKY_SECRET:-}" ]\n'
            '[ "$PATH" = "/usr/bin:/bin" ]\n'
        )
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        runner.run_build(job)
        runner.run_test(job)
        assert job.state == TESTED

    def test_jobs_observe_only_their_own_target(self, tmp_path):
        ws = make_workspace(tmp_path, sites=("sitea", "siteb"))
        check = ws.corpus_root / "hello" / "1.0" / "check-build"
        check.write_text(
            "#!/bin/sh\nset -eu\n"
            'echo "$ARCH-$OS-$SITE" > "$BUILD_DIR/observed"\n'
        )
        config, corpus, graph, runner = make_runner(ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        for index, (name, version, target) in enumerate(build_plan.jobs):
            job = first_job(runner, build_plan, index)
            runner.run_build(job)
            runner.run_test(job)
            observed = (runner._build_dir(job) / "observed").read_text().strip()
            assert observed == target_id(target)

    def test_site_env_bindings_reach_scripts(self, tmp_path):
        ws = make_workspace(tmp_path, site_env={"sitea": ["SITE_FEATURE=fastnet"]})
        check = ws.corpus_root / "hello" / "1.0" / "check-build"
        check.write_text(
            '#!/bin/sh\nset -eu\n[ "${SITE_FEATURE:-}" = "fastnet" ]\n'
        )
        config, corpus, graph, runner = make_runner(ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        runner.run_build(job)
        runner.run_test(job)
        assert job.state == TESTED

    def test_reserved_names_are_the_phase_bindings(self, tmp_path):
        # hello has no dependencies, so no modulefile directive adds a name
        config, corpus, graph, runner = make_runner(make_workspace(tmp_path))
        job = first_job(runner, plan(EVENT_HELLO, corpus, graph, config.matrix))
        bound = set(runner._phase_env(job, runner.integration))
        bound |= set(runner._phase_env(job, runner.deploy))
        assert bound == RESERVED_ENV_NAMES

    def test_dependency_module_applied_to_build_env(self, small_ws):
        # app's build script sources $LIBDEMO_DIR/lib/libdemo.sh; it can only
        # succeed if the dependency's integration install was activated.
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_LIBDEMO, corpus, graph, config.matrix)
        report = runner.run_plan(build_plan, 1)
        assert report.ok
        app_bin = small_ws.deploy_root / "x86_64/linux/sitea/app/1.0/bin/app"
        assert "libdemo 1.0" in app_bin.read_text()

    def test_phase_timeout_fails_the_phase(self, tmp_path):
        ws = make_workspace(tmp_path, phase_timeout_s=1)
        pid_file = tmp_path / "pid"
        (ws.corpus_root / "hello" / "1.0" / "build.sh").write_text(
            f"#!/bin/sh\necho $$ > {pid_file}\nsleep 5\n"
        )
        config, corpus, graph, runner = make_runner(ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        with pytest.raises(BuildFailed) as exc:
            runner.run_build(job)
        assert str(exc.value) == "build script exited 124"
        assert job.failed_phase == "build"
        assert job.log_path.read_text().endswith("timeout after 1s\n")
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(int(pid_file.read_text()), 0)

    def test_script_exits_are_seen_without_sleeping(self, small_ws, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        config, corpus, graph, runner = make_runner(small_ws)
        job = first_job(runner, plan(EVENT_HELLO, corpus, graph, config.matrix))
        runner.run_job(job)
        assert job.state == DELIVERED
        assert sleeps == []

    def test_failed_pidfd_open_reaps_the_child(self, small_ws, monkeypatch):
        started = []

        class RecordedPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        def no_pidfd(pid):
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
        monkeypatch.setattr(os, "pidfd_open", no_pidfd)
        config, corpus, graph, runner = make_runner(small_ws)
        job = first_job(runner, plan(EVENT_HELLO, corpus, graph, config.matrix))
        runner._reset_log(job)
        script = small_ws.root / "slow.sh"
        script.write_text("#!/bin/sh\nsleep 5\n")
        with pytest.raises(OSError) as exc:
            runner._run_script(job, script, {"PATH": "/usr/bin:/bin"}, small_ws.root)
        assert exc.value.errno == errno.EMFILE
        [proc] = started
        assert proc.returncode == -signal.SIGKILL
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)

    def test_log_phases_delimited(self, small_ws):
        config, corpus, graph, runner = make_runner(small_ws)
        build_plan = plan(EVENT_HELLO, corpus, graph, config.matrix)
        job = first_job(runner, build_plan)
        runner.run_job(job)
        text = job.log_path.read_text()
        for phase in ("build", "test", "deliver"):
            assert f"=== PHASE {phase} ===" in text


# -- scheduling, with run_job stubbed so no phase script runs ------------------

TARGETS = (Target("x86_64", "linux", "sitea"), Target("x86_64", "linux", "siteb"))


class StubRunner(JobRunner):
    """Runs no phases: a job fails if its key is in ``fails``, else it is
    Delivered, after ``delays[key]`` seconds. Records the start and finish
    order and every start that came before one of its in-plan dependencies
    was Delivered."""

    def __init__(self, graph, workdir, deps, fails=(), delays=None, gate=None):
        deploy = EnvTree(DEPLOY, workdir / "deploy")
        super().__init__(None, graph, None, None, deploy, workdir)
        self.deps = deps
        self.fails = set(fails)
        self.delays = delays or {}
        self.gate = gate
        self.lock = threading.Lock()
        self.started: list[tuple] = []
        self.finished: list[tuple] = []
        self.delivered: set[tuple] = set()
        self.early: list[tuple] = []

    def run_job(self, job):
        if self.gate is not None:
            self.gate.acquire(timeout=5)  # bounded, so a scheduler fault cannot hang
        with self.lock:
            self.started.append(job.key)
            if not self.delivered.issuperset(self.deps[job.key]):
                self.early.append(job.key)
        job.started = time.time()
        time.sleep(self.delays.get(job.key, 0))
        job.transition(BUILDING)
        if job.key in self.fails:
            job.fail("build")
            reason = "stub failure"
        else:
            for state in (BUILT, TESTING, TESTED, DELIVERING, DELIVERED):
                job.transition(state)
            with self.lock:
                self.delivered.add(job.key)
            reason = None
        with self.lock:
            self.finished.append(job.key)
        job.finished = time.time()
        job.reason = reason


def in_plan_deps(graph, keys):
    """Each job's dependency jobs in ``keys`` for its own target, by an
    edge scan."""
    return {
        key: {
            (dn, dv, key[2])
            for (src, (dn, dv)) in graph.edges
            if src == key[:2] and (dn, dv, key[2]) in keys
        }
        for key in keys
    }


def reference_sequence(keys, deps, fails):
    """The submission order at width 1 by the rule the scheduler keeps: at
    each wakeup, submit in sorted order every pending job whose dependencies
    are all delivered; the one worker runs submissions first come, first
    served, and the scheduler wakes once per finished job."""
    pending, delivered, queue, sequence = set(keys), set(), collections.deque(), []
    while True:
        ready = sorted(k for k in pending if deps[k] <= delivered)
        pending.difference_update(ready)
        queue.extend(ready)
        if not queue:
            return sequence
        key = queue.popleft()
        sequence.append(key)
        if key not in fails:
            delivered.add(key)


def expected_reasons(keys, deps, ran, delivered):
    """Each never-run job, in plan order, names its first undelivered
    dependency in key order, or takes that dependency's reason if it never
    ran either."""
    reasons = {}
    for key in keys:
        if key not in ran:
            dep = min(d for d in deps[key] if d not in delivered)
            reasons[key] = reasons.get(dep, f"dependency {dep[0]}/{dep[1]} not delivered")
    return reasons


NAMES = ("ant", "bee", "cat", "dog", "eel", "fox", "gnu")


@st.composite
def scheduled_plans(draw):
    """A random DAG over up to seven recipes, expanded over one or two
    targets, some recipes filtered out of the second target, and a set of
    jobs that fail. Names are shuffled so key order is not build order."""
    names = draw(st.permutations(NAMES))[: draw(st.integers(2, len(NAMES)))]
    nodes = [(name, "1.0") for name in names]
    # node i may depend on any earlier node, so the graph is acyclic
    edges = {
        (nodes[i], nodes[j])
        for i in range(len(nodes))
        for j in range(i)
        if draw(st.booleans())
    }
    graph = DependencyGraph(nodes=frozenset(nodes), edges=frozenset(edges))
    targets = TARGETS[: draw(st.sampled_from((1, 2, 2)))]
    absent = set()
    if len(targets) == 2:
        absent = draw(st.sets(st.sampled_from(nodes), max_size=2))
    jobs = tuple(
        (name, version, target)
        for name, version in build_order(graph, set(nodes))
        for target in targets
        if target == targets[0] or (name, version) not in absent
    )
    keys = [(n, v, target_id(t)) for n, v, t in jobs]
    fails = draw(st.sets(st.sampled_from(keys), min_size=draw(st.integers(0, 1)), max_size=3))
    return graph, BuildPlan(jobs=jobs, event_id="evt-stub"), keys, fails


SCHEDULER = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def check_run(runner, report, keys, deps, fails):
    """The properties a run of any width has."""
    ran = set(runner.started)
    assert len(runner.started) == len(ran), "a job ran twice"
    assert runner.early == [], "a job started before its dependencies were delivered"
    delivered = ran - fails
    for key in keys:
        assert (key in ran) == (deps[key] <= delivered)
    outcomes = {(o.name, o.version, target_id(o.target)): o for o in report.outcomes}
    assert list(outcomes) == keys
    for key in keys:
        expected = DELIVERED if key in delivered else FAILED if key in ran else PENDING
        assert outcomes[key].state == expected
    assert (report.publication is not None) == (delivered == set(keys))
    reasons = expected_reasons(keys, deps, ran, delivered)
    assert {k: o.reason for k, o in outcomes.items() if k not in ran} == reasons


@SCHEDULER
@given(scheduled_plans())
def test_scheduler_width_3_runs_each_ready_job_once(case):
    graph, build_plan, keys, fails = case
    deps = in_plan_deps(graph, set(keys))
    delays = {key: 0.001 * (i % 3) for i, key in enumerate(keys)}
    with tempfile.TemporaryDirectory() as scratch:
        runner = StubRunner(graph, Path(scratch), deps, fails, delays)
        report = runner.run_plan(build_plan, width=3)
    check_run(runner, report, keys, deps, fails)


@SCHEDULER
@given(scheduled_plans())
def test_scheduler_width_1_submits_in_the_reference_order(case):
    graph, build_plan, keys, fails = case
    deps = in_plan_deps(graph, set(keys))
    # One job may start per wait, so the scheduler sees each job finish
    # before the next one starts, whatever the thread timing.
    gate = threading.Semaphore(0)
    real_wait = pipeline.wait

    def gated_wait(fs, return_when):
        gate.release()
        return real_wait(fs, return_when=return_when)

    with tempfile.TemporaryDirectory() as scratch, mock.patch.object(pipeline, "wait", gated_wait):
        runner = StubRunner(graph, Path(scratch), deps, fails, gate=gate)
        report = runner.run_plan(build_plan, width=1)
    check_run(runner, report, keys, deps, fails)
    assert runner.started == reference_sequence(keys, deps, fails)


def test_skip_reason_names_the_first_failed_dependency_in_key_order(tmp_path):
    # base <- liba, libb <- app <- viewer; liba and libb both fail, and
    # liba, the first in key order, finishes last
    base, liba, libb, app, viewer = (
        (name, "1.0") for name in ("base", "liba", "libb", "app", "viewer")
    )
    graph = DependencyGraph(
        nodes=frozenset({base, liba, libb, app, viewer}),
        edges=frozenset({(liba, base), (libb, base), (app, liba), (app, libb), (viewer, app)}),
    )
    target = TARGETS[0]
    build_plan = BuildPlan(
        jobs=tuple((n, v, target) for n, v in build_order(graph, set(graph.nodes))),
        event_id="evt-diamond",
    )
    tid = target_id(target)
    keys = {(n, v, tid) for n, v, _ in build_plan.jobs}
    runner = StubRunner(
        graph,
        tmp_path,
        in_plan_deps(graph, keys),
        fails={(*liba, tid), (*libb, tid)},
        delays={(*liba, tid): 0.2},
    )
    report = runner.run_plan(build_plan, width=2)
    outcomes = {o.name: o for o in report.outcomes}
    assert runner.finished.index((*libb, tid)) < runner.finished.index((*liba, tid))
    assert outcomes["app"].state == PENDING
    assert outcomes["app"].reason == "dependency liba/1.0 not delivered"
    assert outcomes["viewer"].reason == "dependency liba/1.0 not delivered"
    assert report.publication is None


# Symlinks at several depths of a deploy tree, pointing inside it, out of it
# (also to a sibling whose name starts with the tree's), up through it and
# nowhere. Relative targets are read from the link's directory.
LINK_SPOTS = ("d1", "a/d2", "a/b/d3", "a/b/c/d4")
LINK_TARGETS = (
    "a", "c", "..", "../..", "../outside", "missing", "{root}", "{root}/a/b", "{outside}",
    "{root}-x",
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    links=st.dictionaries(st.sampled_from(LINK_SPOTS), st.sampled_from(LINK_TARGETS), max_size=3),
    linked_root=st.booleans(),
)
def test_escaping_paths_agrees_with_resolve(links, linked_root):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        real_root, outside = base / "deploy", base / "outside"
        (real_root / "a/b/c").mkdir(parents=True)
        (outside / "b").mkdir(parents=True)
        (base / "deploy-x" / "b").mkdir(parents=True)
        root = real_root
        if linked_root:  # the deploy root itself reached through a symlink
            root = base / "deploy-link"
            root.symlink_to(real_root)
        for spot, target in links.items():
            (real_root / spot).symlink_to(target.format(root=real_root, outside=outside))
        components = itertools.product(("a", "d1", ".."), ("b", "d2"), ("c", "d3", "x"), ("d4", "f"))
        paths = [
            root.joinpath(*prefix)
            for prefix in sorted({parts[:n] for parts in components for n in range(1, 5)})
        ]
        paths += [outside / "b", base / "deploy" / "a", root / "a" / ".." / ".." / "outside"]
        paths += [base / "deploy-x" / "b"]
        expected = [p for p in paths if not p.resolve().is_relative_to(root.resolve())]
        assert list(escaping_paths(paths, root)) == expected


def test_escaping_paths_counts_a_symlink_loop_as_escaping(tmp_path):
    root = tmp_path / "deploy"
    (root / "x" / "ok").mkdir(parents=True)
    (root / "x" / "loop").symlink_to("loop")
    (root / "x" / "pair").symlink_to("loop")
    paths = [
        root / "x" / "ok",
        root / "x" / "loop",
        root / "x" / "loop" / "a",
        root / "x" / "pair" / "a",
        root / "x" / ".." / "x" / "loop",
        root / "x" / "missing",
    ]
    assert list(escaping_paths(paths, root)) == paths[1:5]
