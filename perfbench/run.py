"""End-to-end benchmark for rade: commits flow through ``rade run``, one site
follows with ``rade sync`` and ``rade mve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload trickle --seed 1 --seconds 20 --trace 0

The load is a closed loop: one developer pushes the next commit only after the
site has synced the previous one and its MVE passed. Every rade call goes
in-process through ``rade.cli.main`` with its output captured in memory.

The run sets up its workspace several times (corpus generation, first full
build and publish, first sync) and reports the median as ``setup_s``. The
measured part then runs in a fresh child process, so that ``peak_rss_mb`` is
the high-water mark of the measured part alone. A workload with a commit cap
(``max_commits``) measures in several such segments, each on a fresh set-up,
until ``--seconds`` of measuring are done.

Every time is taken in reference seconds: a fixed probe that does not involve
rade runs after each timed step, and the step's wall time is scaled by how much
slower than its reference time the probe ran just before and after it (see
:class:`Probe` and :class:`Clock`). Outputs are checked against
the benchmark's own model (see ``corpus.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
With ``--trace 1`` the metrics are the per-layer ones, and the spans are
written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus as C  # noqa: E402
from tracing import Tracer, proc_wchar  # noqa: E402

SETUPS = 3
WIDTH = 2
MEMORY_DIR = Path("/dev/shm")
MEMORY_HEADROOM = 2 << 30  # bytes the memory-backed directory must have free
OUT_DIR = ROOT / ".perfbench_out"
DEADLINE_S = 170  # a run must end within 180 s
PROBE_REPEATS = 5
# The probe of each workload: (process spawns, small directories made and
# removed, Python loop iterations), and its time in seconds on a quiet host.
# A probe tracks a workload only as far as they are made of the same work: in
# a period when this host ran 2.6x slower on small-file churn but about 2x
# slower on spawns and Python, trickle (whose sync rewrites the whole site tree)
# slowed 2.6x and the other two about 2x.
PROBES = {
    "trickle": ((0, 128, 20000), 0.0040),
    "toolchain_bump": ((4, 0, 64000), 0.0052),
    "bulk_payload": ((4, 0, 64000), 0.0052),
}


class CheckFailed(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- host speed ------------------------------------------------------------------

class Probe:
    """Fixed work that does not involve rade, timed next to every measured
    step to track the host's speed. It is made of what dominates the
    workload's commits (see ``PROBES``): process spawns, small-file churn and
    interpreted Python."""

    def __init__(self, scratch: Path, spawns: int, dirs: int, loops: int):
        self.dir = scratch
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spawns, self.dirs, self.loops = spawns, dirs, loops

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(self.spawns):
            subprocess.run(["/bin/sh", "-c", ":"], check=True)
        tree = self.dir / "tree"
        for i in range(self.dirs):
            leaf = tree / f"d{i}"
            leaf.mkdir(parents=True)
            (leaf / "f").write_text(f"{i}\n" * 20)
        if self.dirs:
            shutil.rmtree(tree)
        total = 0
        for i in range(self.loops):
            total += i * i
        return time.perf_counter() - start

    def __call__(self) -> float:
        return statistics.median(self._once() for _ in range(PROBE_REPEATS))


class Clock:
    """Converts wall time into reference seconds: the time a step would take on
    a host where the probe takes ``reference_s``. The probe runs after every
    step; a step is scaled by the mean of the probes just before and just
    after it, so a drift that lasts longer than a step cancels out."""

    def __init__(self, probe, reference_s: float):
        self.probe = probe
        self.reference_s = reference_s
        self.last = probe()
        self.seen = [self.last]

    def scale(self) -> float:
        """Call right after a step ends; returns the factor for that step."""
        after = self.probe()
        self.seen.append(after)
        factor = self.reference_s / ((self.last + after) / 2)
        self.last = after
        return factor

    def time(self, fn, *args):
        """Runs ``fn(*args)``; returns its result and its time in reference seconds."""
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        return out, elapsed * self.scale()


def make_clock(workload: str, scratch: Path) -> Clock:
    mix, reference_s = PROBES[workload]
    return Clock(Probe(scratch, *mix), reference_s)


# -- workspace -------------------------------------------------------------------

class Workspace:
    def __init__(self, root: Path):
        self.root = root
        self.corpus = root / "corpus"
        self.sources = root / "sources"
        self.config = root / "rade.config.json"
        self.events = root / "events"
        self.repo = root / "repo"
        self.site = root / "site"
        self.deploy = root / "deploy"


def cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``rade`` call with its output captured in memory."""
    from rade import cli as rade_cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = rade_cli.main(argv)
    return rc, out.getvalue()


def write_event(ws: Workspace, event_id: str, paths: list[str]) -> Path:
    path = ws.events / f"{event_id}.json"
    path.write_text(json.dumps({"event_id": event_id, "changed_paths": paths,
                                "timestamp": 1700000000}) + "\n")
    return path


def run_argv(ws: Workspace, event: Path) -> list[str]:
    return ["run", "--config", str(ws.config), "--event", str(event)]


def sync_argv(ws: Workspace) -> list[str]:
    return ["sync", "--repo", str(ws.repo), "--cache", str(ws.site)]


def mve_argv(ws: Workspace, name: str) -> list[str]:
    return ["mve", f"{name}/{C.VERSION}", "--config", str(ws.config),
            "--target", C.MVE_TARGET, "--cache", str(ws.site)]


def setup(spec: C.Spec, ws: Workspace, width: int, clock: Clock) -> float:
    """Generate the corpus, build and publish all of it, sync the site once.
    Returns the time taken in reference seconds."""
    _, total = clock.time(C.write_corpus, spec, ws.corpus, ws.sources)
    ws.events.mkdir()
    ws.config.write_text(json.dumps({
        "corpus_root": "corpus", "workdir": "work", "integration_root": "integration",
        "deploy_root": "deploy", "repo_path": "repo",
        "matrix": {"arches": list(C.ARCHES), "oses": [C.OS], "sites": [C.SITE]},
        "width": width, "phase_timeout_s": 60,
    }, indent=2) + "\n")
    event = write_event(ws, "c00000", [f"{n}/{C.VERSION}/stamp" for n in spec.names])
    (rc, out), took = clock.time(cli, run_argv(ws, event))
    total += took
    check(rc == 0 and "published revision 1 " in out, f"setup run failed: {out[-400:]}")
    (rc, out), took = clock.time(cli, sync_argv(ws))
    total += took
    check(rc == 0 and out.startswith("revision 1:"), f"setup sync failed: {out[-400:]}")
    return total


# -- checks -------------------------------------------------------------------------

def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(C.CHUNK):
            h.update(chunk)
    return h.hexdigest()


def head_revision(ws: Workspace) -> int:
    return int((ws.repo / "HEAD").read_text().split(" ")[1])


def check_run_report(spec: C.Spec, changed: list[str], out: str) -> int:
    """The planned (recipe, target) set equals the benchmark's own reverse
    reachability times the targets, every job was Delivered, and every
    dependency comes before its dependents. Returns the job count."""
    lines = out.splitlines()
    check("RESULT ok" in lines, f"run did not succeed: {out[-400:]}")
    jobs = [line.split() for line in lines[: lines.index("RESULT ok")]]
    keys = [(j[0].split("/")[0], j[1]) for j in jobs]
    want = {(n, t) for n in C.rebuild_set(spec, changed) for t in C.TARGETS}
    check(set(keys) == want and len(keys) == len(want),
          f"planned {len(keys)} jobs, expected {len(want)}")
    check(all(j[2] == "Delivered" for j in jobs), "a job was not Delivered")
    position = {k: i for i, k in enumerate(keys)}
    for (name, target), i in position.items():
        for dep in spec.deps[name]:
            j = position.get((dep, target))
            check(j is None or j < i, f"{name} ran before its dependency {dep}")
    return len(jobs)


def check_site_recipes(expected: C.Expected, ws: Workspace, names) -> None:
    memo: dict = {}
    tree = ws.site / "tree"
    for name in names:
        for target in C.TARGETS:
            arch, os_, site = target.split("-")
            path = tree / arch / os_ / site / name / C.VERSION / "bin" / name
            check(path.is_file() and file_sha256(path) == expected.digest(name, target, memo),
                  f"site holds wrong content for {name} on {target}")


def check_store(store: Path) -> None:
    """Every blob in a content-addressed store hashes to its name."""
    for blob in store.glob("??/*"):
        check(file_sha256(blob) == blob.parent.name + blob.name,
              f"{blob.relative_to(store.parent.parent)} does not hash to its name")


def check_final(spec: C.Spec, ws: Workspace, first: int, commits: int) -> None:
    """Whole-state checks after a measured segment that made ``commits``
    commits, taken from the commit stream after its first ``first``."""
    expected = C.Expected(spec)
    stream = C.commits(spec)
    for _ in range(first):
        next(stream)
    for _ in range(commits):
        expected.stamps.update(next(stream)[1])
    revision = head_revision(ws)
    check(revision == 1 + commits, f"HEAD at revision {revision} after {commits} commits")
    tree = ws.site / "tree"
    found = {p.relative_to(tree).as_posix(): file_sha256(p)
             for p in tree.rglob("*") if p.is_file()}
    want = expected.site_files(ws.deploy, revision)
    check(found.keys() == want.keys(),
          f"site tree paths differ: {sorted(found.keys() ^ want.keys())[:4]}")
    bad = sorted(p for p in want if found[p] != want[p])
    check(not bad, f"site files differ from the derived content: {bad[:4]}")
    site_head = (ws.site / "head").read_text().split(" ")
    check(int(site_head[2]) == revision, "site head lags the repository head")
    for store in (ws.repo / "objects", ws.repo / "catalogs", ws.site / "objects"):
        check_store(store)


def dir_bytes(*dirs: Path) -> int:
    return sum(p.stat().st_size for d in dirs for p in d.rglob("*") if p.is_file())


# -- the measured part (child process) --------------------------------------------

def measure(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    spec = C.make_spec(job["workload"], job["seed"])
    ws = Workspace(Path(job["workspace"]))
    expected = C.Expected(spec)
    clock = make_clock(job["workload"], ws.root.parent / "probe")
    tracer = Tracer(job["width"]) if job["trace"] else None
    if tracer:
        tracer.install()

    def call(kind: str, argv: list[str]):
        if tracer is None:
            return cli(argv)
        return tracer.call(f"cli.{kind}", cli, argv)

    ops = {"commits": [0, 0], "syncs": [0, 0], "mves": [0, 0]}
    c2s, rates, sync_bytes, wall_c2s = [], [], [], []
    repo_before = dir_bytes(ws.repo / "objects", ws.repo / "catalogs")
    repo_growth = None
    stream = C.commits(spec)
    for _ in range(job["first"]):
        next(stream)
    error = None
    min_commits, max_commits = spec.shape.min_commits, spec.shape.max_commits
    start = time.perf_counter()
    try:
        n = 0
        while n < min_commits or (time.perf_counter() - start < job["seconds"]
                                  and n != max_commits):
            n += 1
            if tracer:
                tracer.commit = n
            changed, stamps = next(stream)
            expected.stamps.update(stamps)
            event = write_event(ws, f"c{n:05d}", C.write_stamps(ws.corpus, stamps))

            t0 = time.perf_counter()
            ops["commits"][0] += 1
            rc, run_out = call("run", run_argv(ws, event))
            t1 = time.perf_counter()
            ops["commits"][1] += rc != 0
            check(rc == 0, f"rade run exited {rc}: {run_out[-400:]}")
            ops["syncs"][0] += 1
            wchar = proc_wchar()
            rc, sync_out = call("sync", sync_argv(ws))
            wrote = proc_wchar() - wchar
            ops["syncs"][1] += rc != 0
            check(rc == 0, f"rade sync exited {rc}: {sync_out[-400:]}")
            mve_outs = []
            for name in changed:
                ops["mves"][0] += 1
                rc, out = call("mve", mve_argv(ws, name))
                ops["mves"][1] += rc != 0
                mve_outs.append(out)
                check(rc == 0, f"rade mve {name} exited {rc}: {out[-400:]}")
            t2 = time.perf_counter()
            scale = clock.scale()

            wall_c2s.append(t2 - t0)
            c2s.append((t2 - t0) * scale)
            rates.append(check_run_report(spec, changed, run_out) / ((t1 - t0) * scale))
            check(f"published revision {n + 1} " in run_out and head_revision(ws) == n + 1,
                  f"commit {n} did not publish revision {n + 1}")
            check(sync_out.startswith(f"revision {n + 1}:"), f"site did not sync revision {n + 1}")
            check(all("MVE pass" in out for out in mve_outs), "MVE did not pass")
            check_site_recipes(expected, ws, C.rebuild_set(spec, changed))
            if n <= min_commits:
                sync_bytes.append(wrote)
            if n == min_commits:
                repo_growth = dir_bytes(ws.repo / "objects", ws.repo / "catalogs") - repo_before
    except CheckFailed as exc:
        error = str(exc)

    result = {"ops": ops, "commits": len(c2s), "error": error,
              "measured_s": time.perf_counter() - start,
              "c2s": c2s, "rates": rates, "wall_c2s": wall_c2s, "probes": clock.seen,
              "repo_bytes": repo_growth, "sync_bytes": sum(sync_bytes),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracer.commit = None
        from rade.repo import Repository

        tracer.call("repo.verify", Repository(ws.repo).verify)
        tracer.uninstall()
        result["layers"] = tracer.samples()
        tracer.dump(Path(job["trace_path"]), {"workload": job["workload"], "seed": job["seed"]})
    return result


def summarize(spec: C.Spec, segments: list[dict]) -> dict:
    """End-to-end metrics, and per-layer ones if traced, over all segments.
    The byte counts come from the first ``min_commits`` commits of the first
    segment, so that they repeat exactly."""
    first = segments[0]

    def every(key: str) -> list[float]:
        return [x for seg in segments for x in seg[key]]

    metrics = {
        "commit_to_site_s_p50": statistics.median(every("c2s")),
        "jobs_per_s": statistics.median(every("rates")),
        "repo_bytes_per_rev": first["repo_bytes"] / spec.shape.min_commits,
        "site_write_bytes_per_rev": first["sync_bytes"] / spec.shape.min_commits,
        "peak_rss_mb": max(seg["peak_rss_mb"] for seg in segments),
    }
    if "layers" in first:
        layers: dict[str, list[float]] = {}
        for seg in segments:
            for name, values in seg["layers"].items():
                layers.setdefault(name, []).extend(values)
        metrics.update({name: statistics.median(v) for name, v in layers.items()})
    return metrics


# -- entry point ----------------------------------------------------------------------

def filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1]
            inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, fstype = mount, fields[2]
    return fstype


def workspace_parent() -> Path:
    """A memory-backed directory when one exists with room to spare, else
    the checkout. On a shared ext4 disk, deleting the site tree on every sync
    makes the same run vary by 2x from one minute to the next; on tmpfs it
    repeats within a few percent."""
    if (MEMORY_DIR.is_dir() and os.access(MEMORY_DIR, os.W_OK)
            and filesystem_of(MEMORY_DIR) == "tmpfs"
            and shutil.disk_usage(MEMORY_DIR).free > MEMORY_HEADROOM):
        return MEMORY_DIR
    return ROOT / ".perfbench_work"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(C.SHAPES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if args.measure:
        print(json.dumps(measure(json.loads(args.measure))))
        return 0
    if not (src / "rade" / "cli.py").is_file():
        print(f"perfbench: no rade sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    width = min(WIDTH, nproc)
    spec = C.make_spec(args.workload, args.seed)
    # Modulefiles embed the deploy prefix, so the path length is kept fixed:
    # byte counts then repeat exactly from run to run.
    parent = workspace_parent()
    base = parent / f"perfbench-{os.getpid():08d}"
    fstype = filesystem_of(parent)
    signal.signal(signal.SIGTERM, _terminate)
    started = time.monotonic()
    setup_times, segments, error = [], [], None
    try:
        clock = make_clock(args.workload, base / "probe")
        for i in range(SETUPS):
            ws = Workspace(base / f"ws{i}")
            setup_times.append(setup(spec, ws, width, clock))
            if i + 1 < SETUPS:
                shutil.rmtree(ws.root)
        # A segment ends early only at the workload's max_commits; the next
        # one then starts from a fresh set-up and goes on with the commit stream.
        left, first = args.seconds, 0
        while True:
            job = {"workload": args.workload, "seed": args.seed, "seconds": left,
                   "first": first, "trace": args.trace, "width": width,
                   "workspace": str(ws.root), "src": str(src),
                   "trace_path": str(OUT_DIR / f"trace-{args.workload}-s{args.seed}"
                                               f"-{len(segments)}.json")}
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--measure", json.dumps(job)],
                stdout=subprocess.PIPE, text=True, check=True,
                timeout=DEADLINE_S - (time.monotonic() - started))
            result = json.loads(proc.stdout.splitlines()[-1])
            segments.append(result)
            error = result["error"]
            if error is None:
                try:
                    check_final(spec, ws, first, result["commits"])
                except CheckFailed as exc:
                    error = str(exc)
            left -= result["measured_s"]
            first += result["commits"]
            if error or left <= 0:
                break
            shutil.rmtree(ws.root)
            ws = Workspace(base / f"ws{len(setup_times)}")
            setup_times.append(setup(spec, ws, width, clock))
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if parent != MEMORY_DIR:
            with contextlib.suppress(OSError):
                parent.rmdir()

    ops = {kind: [sum(seg["ops"][kind][k] for seg in segments) for k in (0, 1)]
           for kind in segments[0]["ops"]}
    print(f"perfbench: workload={args.workload} seed={args.seed} fs={fstype} nproc={nproc} "
          f"width={width} segments={len(segments)} commits={ops['commits']} "
          f"syncs={ops['syncs']} mves={ops['mves']} (attempted, failed)")
    if error:
        print(f"perfbench: CHECK FAILED: {error}")
    values = summarize(spec, segments) if error is None else {}
    values["setup_s"] = statistics.median(setup_times)
    if error is None:
        wall = [x for seg in segments for x in seg["wall_c2s"]]
        probes = [x for seg in segments for x in seg["probes"]]
        print(f"perfbench: commit_to_site p50 {values['commit_to_site_s_p50']:.4f} reference s, "
              f"{statistics.median(wall):.4f} wall-clock s; probe p50 "
              f"{statistics.median(probes) * 1000:.3f} ms "
              f"(reference {PROBES[args.workload][1] * 1000:.1f} ms)")
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({
        "correct": error is None,
        "attempted": sum(a for a, _ in ops.values()),
        "failed": sum(f for _, f in ops.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
