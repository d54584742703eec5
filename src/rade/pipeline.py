"""Build -> Test -> Deliver state machine over (recipe, target) jobs.

Each phase runs the recipe's scripts in a sanitized environment (only the
phase bindings plus a minimal PATH reach the child process), capturing output
to a per-job log. Later phases run only if the earlier ones succeeded; a
worker pool executes independent jobs concurrently while dependents wait for
their dependencies' jobs on the same target to reach Delivered.
"""
from __future__ import annotations

import logging
import os
import shutil
import subprocess
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from graphlib import TopologicalSorter
from pathlib import Path

from . import envtree  # looked up per call, so a wrapper set on the module applies
from .depgraph import BuildPlan, DependencyGraph, build_order, rebuild_set
from .envtree import (
    SAFE_PATH,
    EnvTree,
    apply_directives,
    modulefile_rel,
    parse_directives,
    prefix_for,
    prefix_rel,
    run_script,
    script_argv,
    write_modulefile,
)
from .errors import (
    BuildFailed,
    DeliverFailed,
    InstallFailed,
    InvariantViolation,
    RadeError,
    SourceChecksumMismatch,
    SourceUnavailable,
    TestFailed,
)
from .recipes import (
    CommitEvent,
    Corpus,
    Recipe,
    _clock,
    _settled,
    _signature,
    changed_recipes,
)
from .repo import copy_verified, hash_file, write_atomic
from .targets import MatrixConfig, Target, expand, target_id

log = logging.getLogger(__name__)

PENDING = "Pending"
BUILDING = "Building"
BUILT = "Built"
TESTING = "Testing"
TESTED = "Tested"
DELIVERING = "Delivering"
DELIVERED = "Delivered"
FAILED = "Failed"

_TRANSITIONS = {
    PENDING: {BUILDING},
    BUILDING: {BUILT, FAILED},
    BUILT: {TESTING},
    TESTING: {TESTED, FAILED},
    TESTED: {DELIVERING},
    DELIVERING: {DELIVERED, FAILED},
    DELIVERED: set(),
    FAILED: set(),
}

# phase name -> (state while it runs, state once it succeeded)
_PHASES = {
    "build": (BUILDING, BUILT),
    "test": (TESTING, TESTED),
    "deliver": (DELIVERING, DELIVERED),
}

# Names that _phase_env binds itself; a site_env binding may not use them.
RESERVED_ENV_NAMES = frozenset({
    "PATH", "ARCH", "OS", "SITE", "SOURCE_DIR", "BUILD_DIR",
    "INSTALL_PREFIX", "DEPLOY_PREFIX", "DEP_MODULE_PATH",
})


@dataclass(frozen=True)
class OpsTest:
    name: str
    command: Path


@dataclass
class Job:
    """One (recipe, target) job's record, from its plan to the run report."""

    name: str
    version: str
    target: Target
    log_path: Path
    state: str = PENDING
    failed_phase: str | None = None
    reason: str | None = None  # why it failed, or why it never ran
    started: float | None = None
    finished: float | None = None
    transitions: list[tuple[str, float]] = field(default_factory=list)
    payload: list[tuple[Path, str]] = field(default_factory=list)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.name, self.version, target_id(self.target))

    def transition(self, new_state: str) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise InvariantViolation(
                f"illegal transition {self.state} -> {new_state}"
            )
        self.state = new_state
        self.transitions.append((new_state, time.time()))

    def fail(self, phase: str) -> None:
        self.transition(FAILED)
        self.failed_phase = phase

    @property
    def duration_ms(self) -> int:
        if self.started is None or self.finished is None:
            return 0
        return int((self.finished - self.started) * 1000)


@dataclass(frozen=True)
class PublicationRequest:
    job_id: str
    stages: tuple[tuple[Path, str], ...]


@dataclass
class RunReport:
    outcomes: list[Job]  # in plan order
    publication: PublicationRequest | None = None

    @property
    def ok(self) -> bool:
        return all(o.state == DELIVERED for o in self.outcomes)

    def render(self) -> str:
        lines = []
        for o in self.outcomes:
            cols = [f"{o.name}/{o.version}", target_id(o.target), o.state]
            if o.failed_phase:
                cols.append(o.failed_phase)
            cols.append(str(o.duration_ms))
            lines.append(" ".join(cols))
        lines.append("RESULT ok" if self.ok else "RESULT fail")
        return "\n".join(lines) + "\n"


SOURCE_RECORD_FORMAT = "rade-source-record/1"


def _record_line(sha256: str, st: os.stat_result) -> bytes:
    """The record of a local source copy that hashed to ``sha256`` and had
    the stat signature of ``st``, ``(st_mtime_ns, st_ctime_ns, st_size,
    st_ino)``. A record vouches only for the file that now has exactly that
    signature; the inode number tells two files of a directory apart."""
    signature = " ".join(map(str, _signature(st)))
    return f"{SOURCE_RECORD_FORMAT} {sha256} {signature}\n".encode("ascii")


def plan(
    event: CommitEvent,
    corpus: Corpus,
    graph: DependencyGraph,
    matrix: MatrixConfig,
) -> BuildPlan:
    """Jobs for one commit: rebuild set in build order, expanded per target."""
    changed = changed_recipes(event, corpus)
    to_build = rebuild_set(graph, changed)
    rationale = {
        node: "changed" if node in changed else "dependent-of-changed"
        for node in to_build
    }
    jobs = []
    for name, version in build_order(graph, to_build):
        recipe = corpus.recipes[(name, version)]
        for target in expand(matrix, recipe):
            jobs.append((name, version, target))
    return BuildPlan(jobs=tuple(jobs), rationale=rationale, event_id=event.event_id)


class JobRunner:
    """Executes jobs against one corpus/graph/matrix and two prefix trees."""

    def __init__(
        self,
        corpus: Corpus,
        graph: DependencyGraph,
        matrix: MatrixConfig,
        integration: EnvTree,
        deploy: EnvTree,
        workdir: Path,
        ops_tests=(),
        phase_timeout_s: int = 600,
    ):
        self.corpus = corpus
        self.graph = graph
        self.matrix = matrix
        self.integration = integration
        self.deploy = deploy
        self.workdir = Path(workdir)
        self.ops_tests = tuple(ops_tests)
        self.phase_timeout_s = phase_timeout_s
        # the environment of each job whose build phase passed, until its
        # test phase takes it
        self._built_envs: dict[tuple[str, str, str], dict[str, str]] = {}

    # -- naming ----------------------------------------------------------

    def new_job(self, name: str, version: str, target: Target) -> Job:
        log_path = self.workdir / "logs" / f"{name}-{version}-{target_id(target)}.log"
        return Job(name=name, version=version, target=target, log_path=log_path)

    def _recipe(self, job: Job) -> Recipe:
        return self.corpus.recipes[(job.name, job.version)]

    def _recipe_dir(self, job: Job) -> Path:
        return self.corpus.recipe_dir((job.name, job.version))

    def _build_dir(self, job: Job) -> Path:
        return self.workdir / "build" / f"{job.name}-{job.version}-{target_id(job.target)}"

    # -- environment -------------------------------------------------------

    def _phase_env(self, job: Job, tree: EnvTree) -> dict[str, str]:
        """The child environment of a phase that installs into ``tree``. The
        test phase takes the one its build phase ran with: the dependencies
        it reads were delivered before the job started."""
        if job.state == TESTING and job.key in self._built_envs:
            return self._built_envs.pop(job.key)
        prefix_var = "DEPLOY_PREFIX" if tree.kind == envtree.DEPLOY else "INSTALL_PREFIX"
        dep_modules = envtree.module_path_for_dependencies(
            self.graph, self._recipe(job), tree, job.target
        )

        env = {"PATH": SAFE_PATH}
        for module in dep_modules:
            env = apply_directives(
                env, parse_directives(module.read_text(encoding="utf-8"))
            )
        env.update(
            {
                "ARCH": job.target.arch,
                "OS": job.target.os,
                "SITE": job.target.site,
                "SOURCE_DIR": str(self._source_dir(job)),
                "BUILD_DIR": str(self._build_dir(job)),
                prefix_var: str(prefix_for(tree, job.target, job.name, job.version)),
                "DEP_MODULE_PATH": os.pathsep.join(str(p) for p in dep_modules),
            }
        )
        # load_config rejects site bindings of RESERVED_ENV_NAMES
        env.update(self.matrix.extra_env(job.target.site))
        return env

    # -- source fetching ---------------------------------------------------

    def _source_dir(self, job: Job) -> Path:
        return self.workdir / "sources" / f"{job.name}-{job.version}"

    def _source_record(self, job: Job) -> Path:
        # a recipe name starts with a letter or digit, so no source
        # directory's name starts with a dot
        return self.workdir / "sources" / f".{job.name}-{job.version}.verified"

    def _fetch_source(self, job: Job) -> Path:
        """Copy the recipe's source bundle locally and verify its checksum.

        A local copy is not hashed again while its record (see
        :func:`_record_line`) vouches for it. A copy that hashes to the
        declared sha256 gets a record if its signature is older than a clock
        reading taken before the hash, as the corpus index's entries do.
        """
        recipe = self._recipe(job)
        sha256 = recipe.source.sha256
        url = recipe.source.url
        if not url.startswith("file://"):
            raise SourceUnavailable(f"unsupported source url scheme: {url}")
        origin = Path(url[len("file://"):])
        if not origin.is_file():
            raise SourceUnavailable(f"source bundle missing: {origin}")
        dest_dir = self._source_dir(job)
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / origin.name
        record = self._source_record(job)
        try:
            if record.read_bytes() == _record_line(sha256, os.stat(dest)):
                return dest
        except OSError:  # no record or no copy: hash and fetch as without one
            pass
        clock = _clock(dest_dir)
        if dest.is_file() and hash_file(dest)[0] == sha256:
            st = os.stat(dest)
            if _settled(_signature(st), clock):
                try:
                    write_atomic(record, _record_line(sha256, st))
                except OSError:
                    pass  # the record only saves a hash
            return dest
        # concurrent jobs of one recipe may fetch simultaneously
        if copy_verified(origin, dest, sha256) is None:
            raise SourceChecksumMismatch(
                f"{origin} does not match declared sha256 {sha256}"
            )
        return dest

    # -- script execution ----------------------------------------------------

    def _run_script(self, job: Job, script: Path, env: dict[str, str], cwd: Path) -> int:
        """Run one phase script; captured output is appended to the job log."""
        script = Path(script)
        with open(job.log_path, "a", encoding="utf-8") as fh:
            fh.write(f"$ {script}\n")
            fh.flush()
            rc = run_script(
                script_argv(script), env, cwd, self.phase_timeout_s, fh, subprocess.STDOUT
            )
            if rc is None:
                fh.write(f"timeout after {self.phase_timeout_s}s\n")
                return 124
            return rc

    def _log_line(self, job: Job, text: str) -> None:
        with open(job.log_path, "a", encoding="utf-8") as fh:
            fh.write(text + "\n")

    @staticmethod
    def _reset_log(job: Job) -> None:
        """Create or empty the job's log, so it holds only this run's output."""
        job.log_path.parent.mkdir(parents=True, exist_ok=True)
        job.log_path.write_text("", encoding="utf-8")

    @staticmethod
    def _fresh_dir(path: Path) -> None:
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)

    # -- phases ---------------------------------------------------------------

    @contextmanager
    def _phase(self, job: Job, phase: str):
        """Run the body as ``phase``: any exception fails the job there and
        propagates. The build phase starts the job's log afresh."""
        running, done = _PHASES[phase]
        job.transition(running)
        try:
            if phase == "build":
                self._reset_log(job)
            self._log_line(job, f"=== PHASE {phase} ===")
            yield
        except Exception:
            job.fail(phase)
            raise
        job.transition(done)

    def _install(self, job: Job, tree: EnvTree, env: dict[str, str], error) -> Path:
        """Fresh prefix, deploy script and modulefile in ``tree``; failures raise ``error``."""
        recipe = self._recipe(job)
        self._fresh_dir(prefix_for(tree, job.target, job.name, job.version))
        rc = self._run_script(
            job, self._recipe_dir(job) / recipe.scripts.deploy, env, self._build_dir(job)
        )
        if rc != 0:
            raise error(f"{tree.kind} install exited {rc}")
        try:
            return write_modulefile(tree, recipe, job.target)
        except RadeError as exc:
            raise error(str(exc)) from exc

    def run_build(self, job: Job) -> None:
        """Fetch + verify source, then run the build script in a fresh BUILD_DIR."""
        with self._phase(job, "build"):
            self._fetch_source(job)
            build_dir = self._build_dir(job)
            self._fresh_dir(build_dir)
            env = self._phase_env(job, self.integration)
            rc = self._run_script(
                job, self._recipe_dir(job) / self._recipe(job).scripts.build, env, build_dir
            )
            if rc != 0:
                raise BuildFailed(f"build script exited {rc}")
            self._built_envs[job.key] = env

    def run_test(self, job: Job) -> None:
        """Internal tests, ops tests, integration install, researcher tests."""
        with self._phase(job, "test"):
            recipe = self._recipe(job)
            recipe_dir = self._recipe_dir(job)
            build_dir = self._build_dir(job)
            env = self._phase_env(job, self.integration)
            rc = self._run_script(job, recipe_dir / recipe.scripts.check, env, build_dir)
            if rc != 0:
                raise TestFailed("internal", recipe.scripts.check, f"exited {rc}")
            for ops in self.ops_tests:
                rc = self._run_script(job, ops.command, env, build_dir)
                if rc != 0:
                    raise TestFailed("ops", ops.name, f"exited {rc}")
            module = self._install(job, self.integration, env, InstallFailed)
            test_env = apply_directives(
                env, parse_directives(module.read_text(encoding="utf-8"))
            )
            for rel in recipe.researcher_tests:
                rc = self._run_script(job, recipe_dir / rel, test_env, recipe_dir)
                if rc != 0:
                    raise TestFailed("researcher", rel, f"exited {rc}")

    def run_deliver(self, job: Job) -> list[tuple[Path, str]]:
        """Clean rebuild in the deploy environment, install, render modulefile.

        Returns the (filesystem path, repository path) pairs staged for
        publication.
        """
        with self._phase(job, "deliver"):
            build_dir = self._build_dir(job)
            self._fresh_dir(build_dir)
            env = self._phase_env(job, self.deploy)
            rc = self._run_script(
                job, self._recipe_dir(job) / self._recipe(job).scripts.build, env, build_dir
            )
            if rc != 0:
                raise DeliverFailed(f"deploy-environment rebuild exited {rc}")
            module = self._install(job, self.deploy, env, DeliverFailed)
        prefix = prefix_for(self.deploy, job.target, job.name, job.version)
        job.payload = [
            (prefix, prefix_rel(job.target, job.name, job.version)),
            (module, modulefile_rel(job.target, job.name, job.version)),
        ]
        return job.payload

    def run_job(self, job: Job) -> None:
        """All three phases with conditional chaining; a failure's message
        becomes the job's reason. Never raises."""
        job.started = time.time()
        try:
            self.run_build(job)
            self.run_test(job)
            self.run_deliver(job)
        except RadeError as exc:
            job.reason = str(exc)
            self._log_line(job, f"error: {exc}")
        except Exception as exc:  # noqa: BLE001 - workers must not kill the run
            log.exception("unexpected failure in %s/%s", job.name, job.version)
            job.reason = f"internal error: {exc!r}"
            self._log_line(job, job.reason)
        job.finished = time.time()

    # -- scheduling --------------------------------------------------------

    def run_plan(self, build_plan: BuildPlan, width: int) -> RunReport:
        """Execute every job once its dependencies' jobs for the same target
        are Delivered; emits a publication request iff all are Delivered.

        Newly ready jobs are submitted in sorted order. A job whose dependency
        was not delivered never runs; its reason names its first undelivered
        dependency in key order, or repeats that one's reason if it never ran
        either, and its log is left empty. The report holds the jobs
        themselves, in plan order.

        An exception in the scheduler, such as a KeyboardInterrupt, cancels
        the jobs not yet started and kills the running jobs' scripts (see
        :func:`envtree.scripts_stopped`) before it propagates.
        """
        jobs = {
            (name, version, target_id(t)): self.new_job(name, version, t)
            for name, version, t in build_plan.jobs
        }
        # gate only on dependency jobs that exist in this plan; a dep
        # filtered out for this target is checked at build time instead
        deps = {
            key: [
                (dn, dv, key[2])
                for dn, dv in self.graph.deps.get(key[:2], ())
                if (dn, dv, key[2]) in jobs
            ]
            for key in jobs
        }
        sorter = TopologicalSorter(deps)
        sorter.prepare()
        running: dict = {}

        with ThreadPoolExecutor(max_workers=width) as pool:
            try:
                while True:
                    for key in sorted(sorter.get_ready()):
                        running[pool.submit(self.run_job, jobs[key])] = key
                    if not running:
                        break
                    done, _ = wait(running, return_when=FIRST_COMPLETED)
                    for future in done:
                        key = running.pop(future)
                        future.result()
                        if jobs[key].state == DELIVERED:
                            sorter.done(key)
            except BaseException:  # e.g. KeyboardInterrupt: stop every job
                with envtree.scripts_stopped():
                    pool.shutdown(cancel_futures=True)
                raise

        # the plan lists dependencies first, so a skipped dependency's
        # reason is known before its dependents'
        for key, job in jobs.items():
            if job.started is None:
                dep = next(jobs[d] for d in deps[key] if jobs[d].state != DELIVERED)
                job.reason = (
                    dep.reason if dep.started is None
                    else f"dependency {dep.name}/{dep.version} not delivered"
                )
                self._reset_log(job)
        report = RunReport(outcomes=list(jobs.values()))
        if build_plan.jobs and report.ok:
            stages = tuple(stage for job in jobs.values() for stage in job.payload)
            report.publication = PublicationRequest(job_id=build_plan.event_id, stages=stages)
        return report
