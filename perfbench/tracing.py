"""Spans and counters around rade's layer boundaries, installed from outside.

Each wrapper replaces a public module attribute or class method for the
duration of a traced run and records a span (name, start, end, parent, and
the commit it belongs to). Spans stay in memory until :meth:`Tracer.dump`.
Nothing under ``src/rade`` is edited.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


def proc_wchar() -> int:
    """Bytes this process has passed to write-like system calls."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar field")


class Tracer:
    def __init__(self, width: int):
        self.width = width
        self.spans: list[dict] = []
        self.counters: list[tuple[int | None, str, float]] = []
        self.commit: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._plan_span: int | None = None  # parent for worker-thread spans
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._plan_span
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"id": span_id, "parent": parent, "commit": self.commit,
                               "name": name, "start": start, "end": end})

    def count(self, name: str, value: float) -> None:
        self.counters.append((self.commit, name, value))

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _timed(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: lambda *a, **k: self.call(name, fn, *a, **k))

    def install(self) -> None:
        from rade import depgraph, envtree, pipeline, recipes, repo, siteclient

        self._timed(recipes, "load_corpus", "recipes.load_corpus")
        self._timed(depgraph, "build_graph", "depgraph.build_graph")
        self._timed(pipeline, "plan", "pipeline.plan")
        self._timed(envtree, "module_path_for_dependencies", "envtree.module_path")
        self._timed(pipeline.JobRunner, "run_job", "pipeline.run_job")
        self._timed(pipeline.JobRunner, "run_build", "pipeline.build")
        self._timed(pipeline.JobRunner, "run_test", "pipeline.test")
        self._timed(pipeline.JobRunner, "run_deliver", "pipeline.deliver")
        self._timed(repo.Repository, "begin_transaction", "repo.begin")
        self._timed(repo.Repository, "stage", "repo.stage")
        self._timed(repo.Repository, "verify", "repo.verify")
        self._timed(siteclient.SiteCache, "poll", "siteclient.poll")
        self._timed(siteclient.SiteCache, "run_mve", "siteclient.mve")

        def run_plan(fn):
            def wrapped(runner, build_plan, width):
                def scheduled():
                    self._plan_span = self._stack()[-1]
                    cpu = time.thread_time()
                    try:
                        return fn(runner, build_plan, width)
                    finally:
                        self.count("pipeline.sched_cpu_s", time.thread_time() - cpu)
                        self._plan_span = None
                self.count("pipeline.jobs", len(build_plan.jobs))
                return self.call("pipeline.run_plan", scheduled)
            return wrapped

        def publish(fn):
            def wrapped(repository, tx, job_id):
                new = {s.sha256 for s in tx.staged.values()
                       if s.sha256 and not repository.object_path(s.sha256).exists()}
                before = proc_wchar()
                head = self.call("repo.publish", fn, repository, tx, job_id)
                self.count("repo.publish_write_bytes", proc_wchar() - before)
                self.count("repo.new_objects", len(new))
                self.count("repo.catalog_bytes", head.root_catalog.size)
                return head
            return wrapped

        def sync(fn):
            def wrapped(cache, head=None):
                before = proc_wchar()
                report = self.call("siteclient.sync", fn, cache, head)
                self.count("siteclient.sync_write_bytes", proc_wchar() - before)
                self.count("siteclient.fetched_objects", report.fetched_objects)
                self.count("siteclient.fetched_bytes", report.fetched_bytes)
                return report
            return wrapped

        self._patch(pipeline.JobRunner, "run_plan", run_plan)
        self._patch(repo.Repository, "publish", publish)
        self._patch(siteclient.SiteCache, "sync", sync)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def samples(self) -> dict[str, list[float]]:
        """Per-layer samples: one per-commit sum for each commit, or one value
        per job for the phases; ``repo.verify_s`` has one value per call."""
        per_commit: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        per_job: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            if span["commit"] is None:
                continue
            dur = span["end"] - span["start"]
            per_commit[span["name"] + "_s"][span["commit"]] += dur
            if span["name"] in ("pipeline.build", "pipeline.test", "pipeline.deliver"):
                per_job[span["name"] + "_s"].append(dur)
        for commit, name, value in self.counters:
            if commit is not None:
                per_commit[name][commit] += value
        commits = sorted({c for by in per_commit.values() for c in by})
        idle = per_commit["pipeline.worker_idle_s"]
        for c in commits:
            idle[c] = (self.width * per_commit["pipeline.run_plan_s"][c]
                       - per_commit["pipeline.run_job_s"][c])
        out = {name: [by.get(c, 0.0) for c in commits]
               for name, by in per_commit.items() if name not in per_job}
        out.update(per_job)
        verify = [s["end"] - s["start"] for s in self.spans if s["name"] == "repo.verify"]
        if verify:
            out["repo.verify_s"] = verify
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, spans=self.spans,
                   counters=[{"commit": c, "name": n, "value": v} for c, n, v in self.counters])
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
