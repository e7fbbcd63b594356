"""Concurrency battery for the sweep server.

The service contract under concurrent multi-tenant load:

* N threaded clients submitting overlapping sweeps all complete, and
  the shared backend executes each unique content address exactly
  once (cache + in-flight coalescing — no duplicate simulations);
* every client's records are byte-identical to a single-client run
  of the same tasks through the plain SweepRuntime;
* fair-share scheduling: a small job from a second tenant finishes
  ahead of a large backlog submitted first by another tenant;
* a worker crash mid-request is retried and excluded through the
  pool's retry-with-exclusion path without poisoning other requests.
"""

from __future__ import annotations

import json
import os
import threading

from repro.runtime import ResultCache, RuntimeConfig, SimTask, SweepRuntime
from repro.runtime import task as task_module
from repro.serve import ExecutionBackend, ServeClient, SweepServer
from tests.conftest import tiny_job, tiny_model

_PARENT_PID = os.getpid()


def _tiny_tasks(systems=("none", "recomputation", "gpu-cpu-swap")):
    job = tiny_job()
    return [SimTask(label=f"battery/{system}", job=job, system=system)
            for system in systems]


def _dump(records):
    return json.dumps(records, sort_keys=True)


# -- eight clients, two tenants, overlapping sweeps --------------------------


class TestManyClients:
    N_CLIENTS = 8
    TENANTS = ("alice", "bob")

    def test_overlapping_submissions_dedup_and_match_single_client(
            self, tmp_path):
        tasks = _tiny_tasks()
        # The yardstick: one client, plain runtime, no server.
        baseline = SweepRuntime(RuntimeConfig(jobs=1)).run(tasks)
        assert baseline.failed == 0
        expected = _dump(baseline.records())

        cache = ResultCache(str(tmp_path / "cache"))
        server = SweepServer(port=0, jobs=2, cache=cache).start()
        try:
            results = [None] * self.N_CLIENTS
            errors = []
            barrier = threading.Barrier(self.N_CLIENTS)

            def client_run(n):
                try:
                    client = ServeClient(server.url, timeout=60.0)
                    tenant = self.TENANTS[n % len(self.TENANTS)]
                    barrier.wait()          # all submissions overlap
                    job = server.submit(tenant, 0, tasks)
                    results[n] = client.wait(job.id, timeout=120.0,
                                             results="full")
                except Exception as exc:    # noqa: BLE001 — surfaced below
                    errors.append(f"client {n}: {exc!r}")

            threads = [threading.Thread(target=client_run, args=(n,))
                       for n in range(self.N_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not errors, errors
            assert all(r is not None for r in results)

            # Every client saw the whole sweep, byte-identical to the
            # single-client baseline.
            for detail in results:
                assert detail["status"] == "done"
                assert detail["failed"] == 0
                assert _dump(detail["records"]) == expected

            # No duplicate simulations: 8 x 3 units resolved, but the
            # backend executed each unique content address once.
            counters = server.backend.counters()
            assert counters["executed"] == len(tasks)
            resolved = (counters["executed"] + counters["cache_hits"]
                        + counters["coalesced"])
            assert resolved == self.N_CLIENTS * len(tasks)

            # Both tenants were served and billed.
            tenants = server.registry.tenants()
            assert set(tenants) == set(self.TENANTS)
            for account in tenants.values():
                assert account["tasks"] == \
                    (self.N_CLIENTS // 2) * len(tasks)
                assert account["failed"] == 0
        finally:
            server.stop()

    def test_warm_server_serves_everything_from_cache(self, tmp_path):
        tasks = _tiny_tasks(("none",))
        cache = ResultCache(str(tmp_path / "cache"))
        first = SweepServer(port=0, jobs=1, cache=cache).start()
        try:
            job = first.submit("alice", 0, tasks)
            detail = first.registry.wait(job.id, until_done=True,
                                         timeout=60.0)
            assert detail["executed"] == 1
        finally:
            first.stop()
        # A fresh server process over the same cache directory starts
        # warm: the store is shared across servers, not per-instance.
        second = SweepServer(port=0, jobs=1,
                             cache=ResultCache(str(tmp_path / "cache"))
                             ).start()
        try:
            job = second.submit("bob", 0, tasks)
            detail = second.registry.wait(job.id, until_done=True,
                                          timeout=60.0)
            assert detail["executed"] == 0 and detail["cached"] == 1
        finally:
            second.stop()


# -- fair share under load ---------------------------------------------------


class TestFairShare:
    def test_small_tenant_finishes_before_large_backlog(self):
        job = tiny_job()
        wide = [SimTask(label=f"wide/{i}", job=job, system="none")
                for i in range(8)]
        small_model = tiny_model(n_layers=4, hidden=128)
        narrow_job = tiny_job(model=small_model, system="pipedream")
        narrow = [SimTask(label=f"narrow/{i}", job=narrow_job,
                          system="none") for i in range(2)]
        # jobs=1: a single dispatcher, so completion order is exactly
        # the scheduler's dispatch order.
        server = SweepServer(port=0, jobs=1).start()
        try:
            wide_job = server.submit("alice", 0, wide)
            narrow_job_state = server.submit("bob", 0, narrow)
            server.registry.wait(wide_job.id, until_done=True, timeout=300.0)
            server.registry.wait(narrow_job_state.id, until_done=True,
                                 timeout=300.0)
            wide_state = server.registry.get(wide_job.id)
            narrow_state = server.registry.get(narrow_job_state.id)
            assert wide_state.status == "done"
            assert narrow_state.status == "done"
            # Fair share: bob's 2-unit job cleared while alice's
            # 8-unit backlog was still draining.
            assert narrow_state.finished < wide_state.finished
        finally:
            server.stop()


# -- in-flight coalescing ----------------------------------------------------


class TestCoalescing:
    def test_concurrent_identical_requests_run_one_simulation(self,
                                                              monkeypatch):
        # Deterministic rendezvous: the owner blocks inside the
        # (stubbed) simulation until both requesters are committed.
        backend = ExecutionBackend(jobs=1)
        task = SimTask(label="co/task", job=tiny_job(), system="none")
        release = threading.Event()
        started = threading.Event()
        calls = []

        def _slow_run(self, task, key):
            calls.append(key)
            started.set()
            release.wait(timeout=30)
            from repro.serve.backend import TaskResolution

            return TaskResolution(key=key, record={"label": task.label,
                                                   "ok": True},
                                  source="pool")

        monkeypatch.setattr(ExecutionBackend, "_run_with_retries",
                            _slow_run)
        resolutions = [None, None]

        def run(n):
            resolutions[n] = backend.execute(task)

        owner = threading.Thread(target=run, args=(0,))
        owner.start()
        assert started.wait(timeout=10)
        follower = threading.Thread(target=run, args=(1,))
        follower.start()
        # The follower parks on the in-flight entry; only then is the
        # owner's simulation allowed to finish.
        deadline = threading.Event()
        deadline.wait(timeout=0.2)
        release.set()
        owner.join(timeout=10)
        follower.join(timeout=10)
        assert len(calls) == 1, "second request re-ran the simulation"
        sources = sorted(r.source for r in resolutions)
        assert sources == ["coalesced", "pool"]
        assert all(r.ok for r in resolutions)
        assert backend.coalesced == 1

    def test_coalesced_failure_propagates_to_waiters(self, monkeypatch):
        backend = ExecutionBackend(jobs=1)
        task = SimTask(label="co/fail", job=tiny_job(), system="none")
        release = threading.Event()
        started = threading.Event()

        def _failing_run(self, task, key):
            started.set()
            release.wait(timeout=30)
            from repro.serve.backend import TaskResolution

            return TaskResolution(key=key, record=None, source="inline",
                                  attempts=3, error="ValueError: boom")

        monkeypatch.setattr(ExecutionBackend, "_run_with_retries",
                            _failing_run)
        resolutions = [None, None]

        def run(n):
            resolutions[n] = backend.execute(task)

        threads = [threading.Thread(target=run, args=(0,))]
        threads[0].start()
        assert started.wait(timeout=10)
        threads.append(threading.Thread(target=run, args=(1,)))
        threads[1].start()
        wait = threading.Event()
        wait.wait(timeout=0.2)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert all(not r.ok for r in resolutions)
        assert any(r.source == "coalesced" and "boom" in (r.error or "")
                   for r in resolutions)
        assert backend.failures == 2      # owner + coalesced waiter

    def test_other_label_waits_for_the_owner_then_reads_the_cache(
            self, tmp_path, monkeypatch):
        # Same content, another label: another sweep cell.  It does
        # not share the owner's outcome, but it does not simulate
        # again either: it waits, then hits the record the owner
        # cached.
        backend = ExecutionBackend(jobs=1,
                                   cache=ResultCache(str(tmp_path)))
        owner_task = SimTask(label="co/a", job=tiny_job(), system="none")
        other_task = SimTask(label="co/b", job=tiny_job(), system="none")
        release = threading.Event()
        started = threading.Event()
        calls = []

        def _slow_run(self, task, key):
            calls.append(task.label)
            started.set()
            release.wait(timeout=30)
            from repro.serve.backend import TaskResolution

            return TaskResolution(key=key, record={"label": task.label,
                                                   "ok": True},
                                  source="pool")

        monkeypatch.setattr(ExecutionBackend, "_run_with_retries",
                            _slow_run)
        resolutions = {}

        def run(task):
            resolutions[task.label] = backend.execute(task)

        owner = threading.Thread(target=run, args=(owner_task,))
        owner.start()
        assert started.wait(timeout=10)
        other = threading.Thread(target=run, args=(other_task,))
        other.start()
        threading.Event().wait(timeout=0.2)
        release.set()
        owner.join(timeout=10)
        other.join(timeout=10)
        assert calls == ["co/a"]
        assert resolutions["co/a"].source == "pool"
        assert resolutions["co/b"].source == "cache"
        assert resolutions["co/b"].record == {"label": "co/b", "ok": True}
        assert backend.coalesced == 0


# -- worker crash mid-request ------------------------------------------------
#
# Same poisoning scheme as tests/test_runtime_pool.py: the backend
# workers fork this module, so a task labelled ``bad/*`` kills its
# worker with ``os._exit`` (unhandleable, like a segfault) while the
# inline exclusion run in the parent raises a catchable RuntimeError.


def _poisoned_execute(task):
    if task.label.startswith("bad/"):
        if os.getpid() != _PARENT_PID:
            os._exit(23)
        raise RuntimeError("poisoned config")
    return task_module.execute_task(task)


class TestWorkerCrash:
    def test_crash_mid_request_is_excluded_and_survivors_finish(
            self, monkeypatch):
        monkeypatch.setattr("repro.runtime.pool.execute_task",
                            _poisoned_execute)
        job = tiny_job()
        # Three distinct content addresses (the label is cosmetic and
        # excluded from the key): the crasher must not coalesce onto a
        # healthy task's in-flight simulation, or vice versa.
        tasks = [
            SimTask(label="battery/none", job=job, system="none"),
            SimTask(label="bad/crasher", job=job, system="gpu-cpu-swap"),
            SimTask(label="battery/recomputation", job=job,
                    system="recomputation"),
        ]
        server = SweepServer(port=0, jobs=2, retries=1).start()
        try:
            state = server.submit("alice", 0, tasks)
            server.registry.wait(state.id, until_done=True, timeout=300.0)
            detail = server.registry.detail(state.id, results="full")
            assert detail["status"] == "done"
            rows = {row["label"]: row for row in detail["tasks"]}
            crashed = rows["bad/crasher"]
            assert crashed["ok"] is False
            assert crashed["source"] == "inline"   # excluded from the pool
            assert "RuntimeError" in crashed["error"]
            assert crashed["attempts"] == 3        # retries + 1 + inline
            assert rows["battery/none"]["ok"] is True
            assert rows["battery/recomputation"]["ok"] is True
            assert detail["failed"] == 1
            # The broken pool generation was rebuilt.
            assert server.backend.pool_generations >= 2
            # The server is still healthy for the next request.
            after = server.submit("bob", 0, [
                SimTask(label="battery/after", job=job, system="none")])
            done = server.registry.wait(after.id, until_done=True,
                                        timeout=120.0)
            assert done["failed"] == 0
        finally:
            server.stop()

    def test_worker_exception_is_retried_then_recorded(self, monkeypatch):
        def _raise(task):
            raise ValueError("boom")

        monkeypatch.setattr("repro.runtime.pool.execute_task", _raise)
        backend = ExecutionBackend(jobs=2, retries=1)
        try:
            resolution = backend.execute(
                SimTask(label="battery/none", job=tiny_job(),
                        system="none"))
            assert not resolution.ok
            assert "ValueError" in resolution.error
            assert resolution.source == "inline"
            assert resolution.attempts == 3
        finally:
            backend.shutdown()
