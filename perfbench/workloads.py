"""Workloads of the platoonsec benchmark and the checks on their outputs.

A workload is one or more ``python -m repro`` command lines, run in
order.  The benchmark runs each as a fresh process (a *pass*), reads
what the CLI itself records -- the ``--run-log`` telemetry and the
``--bench-history`` record -- and checks the outputs.  Workloads with a
result store rerun each command, warm, against the store its first pass
filled.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

#: Longest one CLI pass may run before it is killed and counted failed.
PASS_TIMEOUT_S = 60.0

#: Lines of CLI output that carry timings or paths, not results.
_VOLATILE_PREFIXES = ("campaign:", "artifacts:")


@dataclass
class Pass:
    """One CLI invocation and everything it recorded."""

    rc: int
    stdout: str
    events: list                     # run-log records, in emission order
    bench: dict                      # metrics of the bench record, if any
    artifacts: bytes                 # sweep artifacts, if any
    host_wall: float                 # process start to exit [s]
    started_at: float                # epoch seconds just before launch
    cpu_s: float = 0.0               # user+sys of the process tree
    rss_mb: float = 0.0              # largest peak RSS in the process tree
    canonical: bytes = b""           # canonical_run_log_bytes of the run log

    def of_kind(self, kind: str) -> list:
        return [e for e in self.events if e.get("kind") == kind]

    @property
    def finished_units(self) -> list:
        return self.of_kind("unit_finished")

    @property
    def episode_times(self) -> List[float]:
        """In-worker compute time of every unit this pass computed."""
        return [e["wall_time"] for e in self.finished_units
                if e.get("source") == "computed"]

    @property
    def setup_s(self) -> float:
        """Process start to the first ``unit_started``."""
        started = self.of_kind("unit_started")
        return started[0]["ts"] - self.started_at if started else 0.0

    @property
    def wall_s(self) -> float:
        """First ``run_started`` to the last ``unit_finished``."""
        runs, units = self.of_kind("run_started"), self.finished_units
        if not runs or not units:
            return 0.0
        return units[-1]["ts"] - runs[0]["ts"]

    @property
    def result_text(self) -> str:
        return "\n".join(line for line in self.stdout.splitlines()
                         if not line.startswith(_VOLATILE_PREFIXES))

    @property
    def digest(self) -> str:
        """sha256 over the pass's outputs: canonical run log, bench-record
        metrics, printed results and sweep artifacts."""
        h = hashlib.sha256(self.canonical)
        h.update(json.dumps(self.bench, sort_keys=True).encode())
        h.update(self.result_text.encode())
        h.update(self.artifacts)
        return h.hexdigest()


@dataclass
class Verdict:
    """Outcome of the output check on one iteration."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, units: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + units)
        self.problems.append(problem)


@dataclass(frozen=True)
class Command:
    """One CLI command line of a workload and the check on its output."""

    args: tuple                      # CLI arguments after the global --seed
    check: Callable[[Pass, List[Pass], Verdict], None]

    def argv(self, work: Path, workers: Optional[int] = None) -> list:
        out = [arg.format(work=work) for arg in self.args]
        if workers is not None and "--workers" in out:
            out[out.index("--workers") + 1] = str(workers)
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple                  # Commands, run in order each iteration
    workers: int
    store: bool = False              # fresh sqlite store, then warm reruns


# ---------------------------------------------------------------------------
# Output checks.  Each gets the cold pass, the warm reruns (store workloads)
# and the verdict to fill; a crashed pass fails every unit it attempted.
# ---------------------------------------------------------------------------

def _crashed(p: Pass, ok_codes: tuple, needs_bench: bool) -> bool:
    return p.rc not in ok_codes or not p.finished_units \
        or (needs_bench and not p.bench)


def check_matrix(cold: Pass, warms: List[Pass], v: Verdict) -> None:
    """Every defended cell keeps a positive mitigation; a flip fails the
    cell's three units."""
    if _crashed(cold, (0,), needs_bench=True):
        v.fail(v.attempted, f"matrix exited {cold.rc} without a record")
        return
    for key in sorted(cold.bench):
        if not key.endswith(".defended"):
            continue
        cell = key[:-len(".defended")]
        mitigation = cold.bench.get(f"{cell}.mitigation")
        if mitigation is None or mitigation <= 0:
            v.fail(3, f"{cell}: mitigation {mitigation} is not positive")


def check_sweep(cold: Pass, warms: List[Pass], v: Verdict) -> None:
    """The sweep completes and writes its artifacts (their bytes enter
    the digest, which must repeat across the run's iterations)."""
    if _crashed(cold, (0,), needs_bench=True) or not cold.artifacts:
        v.fail(v.attempted, f"sweep exited {cold.rc} without artifacts")


def check_falsify(cold: Pass, warms: List[Pass], v: Verdict) -> None:
    """The cold search finds a violation; every warm rerun is all store
    hits and prints the same search."""
    found = any(line.startswith("violation found:")
                for line in cold.stdout.splitlines())
    if _crashed(cold, (0,), needs_bench=False) or not found:
        v.fail(v.attempted, f"falsify exited {cold.rc} without a violation")
        return
    if not warms or any(_crashed(warm, (0,), needs_bench=False)
                        for warm in warms):
        v.fail(v.attempted, "warm falsify rerun failed")
        return
    for warm in warms:
        computed = [e for e in warm.finished_units
                    if not e.get("cache_hit")]
        if computed:
            v.fail(len(computed), f"warm rerun computed {len(computed)} units")
        if warm.result_text != cold.result_text:
            v.fail(v.attempted, "warm rerun printed a different search")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="crypto-density",
        why="HMAC+freshness defence matrix, then traffic-density sweep, "
            "workers=1: traced, rx with defence and HMAC is 31% of the "
            "matrix's event loop, channel and MAC 59% of the sweep's",
        commands=(
            Command(args=("--vehicles", "4", "--duration", "60",
                          "matrix", "secret_public_keys"),
                    check=check_matrix),
            Command(args=("--duration", "15", "--seed-replicates", "1",
                          "--workers", "1", "sweep", "traffic-density",
                          "--out-dir", "{work}/sweep"),
                    check=check_sweep),
        ),
        workers=1),
    Workload(
        name="falsify-store",
        why="falsify at workers=2 on a fresh sqlite store, then warm "
            "reruns: 3 runner batches, 2 pool starts, 13 store writes and "
            "leases; a warm rerun computes nothing, 13 store hits",
        commands=(
            Command(args=("--workers", "2", "--store",
                          "sqlite:{work}/store.db", "falsify",
                          "examples/specs/insider_surge.json", "--no-emit"),
                    check=check_falsify),
        ),
        workers=2, store=True),
)}


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

def _read_pass_files(run_log: Path, bench: Path, artifacts: Path) -> tuple:
    from repro.obs.telemetry import canonical_run_log_bytes, load_run_log

    events, canonical = [], b""
    if run_log.exists():
        events = load_run_log(run_log)
        canonical = canonical_run_log_bytes(run_log)
    metrics = {}
    if bench.exists():
        lines = bench.read_text().splitlines()
        metrics = json.loads(lines[-1]).get("metrics", {}) if lines else {}
    blob = b"".join(path.read_bytes() for path in sorted(artifacts.glob("*"))
                    if path.is_file()) if artifacts.is_dir() else b""
    return events, canonical, metrics, blob


def _pass_files(work: Path, tag: str) -> tuple:
    return work / f"{tag}.run-log.jsonl", work / f"{tag}.bench.jsonl"


def run_subprocess(root: Path, argv: list, seed: int, work: Path,
                   tag: str) -> Pass:
    """Run ``python -m repro`` as its own process group and measure it."""
    run_log, bench = _pass_files(work, tag)
    cmd = [sys.executable, "-m", "repro", "--seed", str(seed),
           "--run-log", str(run_log), "--bench-history", str(bench), *argv]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # Cache bytecode as a default interpreter does, so only the first
    # pass of a checkout pays for compiling the package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with open(work / f"{tag}.stdout", "w+") as out, \
            open(work / f"{tag}.stderr", "w") as err:
        started = time.time()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out,
                                stderr=err, start_new_session=True)
        killer = threading.Timer(PASS_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            _kill_group(proc.pid)            # stray pool workers, if any
        host_wall = time.time() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    events, canonical, metrics, blob = _read_pass_files(
        run_log, bench, work / "sweep")
    return Pass(rc=proc.returncode, stdout=stdout, events=events,
                bench=metrics, artifacts=blob, host_wall=host_wall,
                started_at=started, cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0, canonical=canonical)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_in_process(argv: list, seed: int, work: Path, tag: str) -> Pass:
    """Run the CLI's ``main`` inside this process (for traced passes)."""
    import contextlib
    import io

    from repro.__main__ import main

    run_log, bench = _pass_files(work, tag)
    out = io.StringIO()
    started = time.time()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(["--seed", str(seed), "--run-log", str(run_log),
                       "--bench-history", str(bench), *argv])
        except Exception as exc:             # a raise fails the pass
            print(f"{type(exc).__name__}: {exc}")
            rc = -1
    host_wall = time.time() - started
    events, canonical, metrics, blob = _read_pass_files(
        run_log, bench, work / "sweep")
    return Pass(rc=rc, stdout=out.getvalue(), events=events, bench=metrics,
                artifacts=blob, host_wall=host_wall, started_at=started,
                canonical=canonical)


def combined_digest(passes: list) -> str:
    """sha256 over the cold passes' digests, in command order."""
    return hashlib.sha256("".join(cold.digest for cold, _ in passes)
                          .encode()).hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
