"""serve-mixed: an open-loop load generator against ``repro serve``.

The server runs as a subprocess (``repro serve --jobs 1``) over an
empty cache directory.  One generator thread (this process's main
thread) submits jobs on a seeded Poisson schedule whether or not
earlier jobs finished, so a stall shows up as latency of the jobs
behind it.  A job's latency runs from the moment it was due to be
sent to the server's own completion stamp (``finished`` in the job
summary, the server's ``time.time()`` on the same host clock), so the
completion-time resolution is that of ``time.time()``, about a
microsecond, independent of how the generator polls.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import workloads
from common import HERE, ROOT, Run, src_env

# Offered load, jobs per second.  Even when the host runs 2.4x slower
# the worker is busy only about 30% of the time; at 4 jobs/s the p50
# of a slow host spread twice as much across seeds.
RATE = 3.0
# At least this many jobs, so the p90 has ten samples beyond it; at
# RATE this sets the episode to about 33 s when --seconds is smaller.
MIN_JOBS = 100
TRAINING_SHARE = 0.1
# Servers booted per run; the median boot is ``setup_s`` and the last
# one serves the episode.
BOOTS = 3
# goodput counts jobs done within this many seconds of being due: above
# the p90 measured at the seed commit (0.16-0.33 s).
LATENCY_LIMIT_S = 0.5
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 90.0


def _proc_status(pid: int, field: str) -> float:
    """A ``/proc/<pid>/status`` memory field in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children") as handle:
            kids.extend(int(kid) for kid in handle.read().split())
    return kids


def _gone(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


class ServerProcess:
    """One ``repro serve`` subprocess and its worker pool."""

    def __init__(self, workdir: Path, name: str,
                 spans_path: Optional[Path] = None):
        self.cache_dir = workdir / f"{name}-cache"
        self.log_path = workdir / f"{name}.log"
        self.spans_path = spans_path
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.rss_after_warmup = 0.0

    def boot(self) -> float:
        """Start, wait for ``/healthz``, run the warm-up job; seconds taken."""
        from repro.serve import ServeClient

        if self.spans_path is None:
            launcher = ["-m", "repro"]
        else:
            launcher = [str(HERE / "serve_traced.py"), str(self.spans_path)]
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, *launcher, "serve", "--port", "0",
                 "--jobs", "1", "--cache", str(self.cache_dir), "--quiet"],
                stdout=log, stderr=subprocess.STDOUT, env=src_env(),
                cwd=ROOT)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not self.url:
            match = re.search(r"listening on (http://\S+)",
                              self.log_path.read_text())
            if match:
                self.url = match.group(1)
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not start:\n"
                                   + self.log_path.read_text()[-2000:])
            else:
                time.sleep(0.005)
        client = ServeClient(self.url, timeout=30.0)
        client.health()
        warm = client.wait(client.submit(tasks=workloads.WARMUP_SPECS,
                                         tenant="warmup"), timeout=60.0)
        if warm["failed"]:
            raise RuntimeError(f"warm-up job failed: {warm}")
        elapsed = time.perf_counter() - start
        self.rss_after_warmup = _proc_status(self.proc.pid, "VmRSS")
        return elapsed

    def stop(self) -> None:
        """Interrupt the server, then wait for it and its workers to end."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        kids = _children(proc.pid) if proc.poll() is None else []
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 5.0
        for kid in kids:
            while not _gone(kid):
                if time.monotonic() > deadline:
                    os.kill(kid, signal.SIGKILL)
                    deadline = time.monotonic() + 5.0
                time.sleep(0.01)


def _episode(server: ServerProcess, schedule: List[Dict],
             pins: Dict, run: Run) -> Dict:
    """Send ``schedule`` open-loop to ``server`` and check every record.

    Returns job latencies, generator lateness, submit round trips, the
    backend counters the episode added, and the server's memory.
    """
    from repro.jobspec import task_from_spec
    from repro.serve import ServeClient, ServeError

    keys = {}
    for job in schedule:
        for spec in job["tasks"]:
            keys.setdefault(id(spec), task_from_spec(spec).cache_key())
    client = ServeClient(server.url, timeout=30.0)
    before = client.stats()["backend"]
    base = time.time() + 0.2
    sent, late, rtts = [], [], []
    for job in schedule:
        due = base + job["due"]
        delay = due - time.time()
        if delay > 0:
            time.sleep(delay)
        sent_at = time.time()
        late.append(sent_at - due)
        run.attempted += 1
        try:
            job_id = client.submit(tasks=job["tasks"], tenant=job["tenant"])
        except (ServeError, OSError) as error:
            print(f"submit of job {job['index']} failed: {error}",
                  file=sys.stderr)
            run.failed += 1
            continue
        rtts.append(time.time() - sent_at)
        sent.append((job, job_id, due))

    latencies = []
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    for job, job_id, due in sent:
        try:
            detail = client.wait(
                job_id, timeout=max(0.1, deadline - time.monotonic()),
                results="full")
        except (ServeError, OSError) as error:
            print(f"job {job['index']} did not complete: {error}",
                  file=sys.stderr)
            run.failed += 1
            continue
        if detail["failed"]:
            print(f"job {job['index']} has failed tasks", file=sys.stderr)
            run.failed += 1
            continue
        for spec, record in zip(job["tasks"], detail["records"]):
            key = keys[id(spec)]
            checks.expect(f"serve record {key[:12]} ({record['label']})",
                          checks.serve_pin(record), pins["serve"][key])
        latencies.append(detail["finished"] - due)
    after = client.stats()["backend"]
    return {
        "latencies": latencies, "late": late, "rtts": rtts,
        "backend": {name: after[name] - before[name]
                    for name in ("executed", "cache_hits", "coalesced",
                                 "failures")},
        "peak_rss_mib": _proc_status(server.proc.pid, "VmHWM"),
        "rss_growth_mib": (_proc_status(server.proc.pid, "VmRSS")
                           - server.rss_after_warmup),
    }


def serve_mixed(seed: int, seconds: float, trace: bool, run: Run) -> None:
    """Untraced: ``BOOTS`` boots, then one measured episode.  Traced: one
    episode on a stock server, then the same schedule on a traced one."""
    # A shell that starts a command in the background makes it ignore
    # SIGINT, and an ignored signal stays ignored across exec: the
    # server would then ignore the SIGINT that stops it gracefully.
    if signal.getsignal(signal.SIGINT) == signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    pins = checks.load_pins()
    n_jobs = max(MIN_JOBS, math.ceil(RATE * seconds))
    schedule = workloads.serve_schedule(seed, n_jobs, RATE, TRAINING_SHARE)
    n_tasks = sum(len(job["tasks"]) for job in schedule)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    servers: List[ServerProcess] = []

    def boot(name: str, spans_path: Optional[Path] = None) -> float:
        servers.append(ServerProcess(workdir, name, spans_path))
        return servers[-1].boot()

    try:
        if not trace:
            setups = []
            for index in range(BOOTS):
                if servers:
                    servers[-1].stop()
                setups.append(boot(f"server{index}"))
            episode = _episode(servers[-1], schedule, pins, run)
        else:
            boot("untraced")
            plain = _episode(servers[-1], schedule, pins, run)
            servers[-1].stop()
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-serve-mixed-{seed}.json"
            boot("traced", spans_path)
            episode = _episode(servers[-1], schedule, pins, run)
            servers[-1].stop()
            with open(spans_path) as handle:
                spans = json.load(handle)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = episode["latencies"]
    if not latencies:
        return
    n = len(latencies)
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8]
    offered_s = schedule[-1]["due"]
    within = sum(1 for latency in latencies if latency <= LATENCY_LIMIT_S)
    backend = episode["backend"]
    if not trace:
        run.put("wall_s", p50, n)
        run.put("setup_s", statistics.median(setups), len(setups))
        run.put("peak_rss_mib", episode["peak_rss_mib"])
    else:
        run.put("serve.submit_s", statistics.median(episode["rtts"]),
                len(episode["rtts"]))
        for name, value in backend.items():
            run.put(f"serve.backend.{name}", value)
        run.put("serve.repeat_share",
                (backend["cache_hits"] + backend["coalesced"]) / n_tasks,
                n_tasks)
        run.put("serve.rss_growth_mib", episode["rss_growth_mib"])
        run.put("serve.gen_late_s", max(episode["late"]), len(schedule))
        run.put("serve.job_p90_s", p90, n)
        run.put("serve.goodput_jobs_per_s", within / offered_s, n)
        self_s, counts = spans["self_s"], spans["counts"]
        run.put("serve.backend.self_s", self_s.get("serve.backend", 0.0),
                int(counts.get("serve.backend.calls", 0)))
        for op in ("get", "put"):
            layer = f"runtime.cache.{op}"
            calls = counts.get(f"{layer}.calls", 0)
            run.put(f"{layer}_s", self_s.get(layer, 0.0), int(calls))
            run.put(f"{layer}s", calls)
        plain_p50 = statistics.median(plain["latencies"])
        run.put("trace.overhead", p50 / plain_p50 - 1.0,
                n + len(plain["latencies"]))
    run.notes.append(
        f"serve-mixed: {n} of {len(schedule)} jobs ({n_tasks} tasks) at "
        f"{RATE} jobs/s open-loop over {offered_s:.1f} s; job latency "
        f"p50 {p50:.4f} s, p90 {p90:.4f} s (n={n}); goodput "
        f"{within / offered_s:.3f} jobs/s within {LATENCY_LIMIT_S} s; "
        f"generator at most {max(episode['late']) * 1e3:.2f} ms late; "
        f"backend {backend}; completion times are server time.time() "
        f"stamps (~1 us resolution)")
