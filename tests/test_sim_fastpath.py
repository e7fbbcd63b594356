"""Fast-path dispatch, tape compilation, and failure parity.

Unit coverage for :mod:`repro.sim.fastpath`: when the tape
interpreter is allowed to fire, how dispatch is counted, and
that the failure modes (single-use reuse, OOM attribution, deadlock
reporting) match the reference interpreter exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.mpress import MPress
from repro.errors import ScheduleError, SimulationError
from repro.faults.spec import random_schedule
from repro.sim.events import TraceRecorder
from repro.sim.fastpath import (
    FastInterpreter,
    ProgramTape,
    fast_path_runs,
    reference_runs,
    reset_run_counters,
    run_program,
    wants_fast_path,
)
from repro.sim.interpreter import Interpreter
from repro.sim.ir import (
    Barrier,
    ExecOptions,
    InstructionProgram,
)
from repro.sim.lowering import Lowering
from repro.sim.trace import Trace
from tests.conftest import small_server, tiny_job, tiny_model
from tests.test_fastpath_equivalence import result_fingerprint

MiB = 2**20


@pytest.fixture(scope="module")
def program():
    job = tiny_job()
    plan = MPress(job).build_plan()
    return Lowering(job, ExecOptions(strict=False, prefetch_lead=2)).lower(plan)


class TestDispatch:
    def test_unobserved_run_takes_fast_path(self, program):
        assert wants_fast_path(program)
        reset_run_counters()
        run_program(program)
        assert fast_path_runs() == 1
        assert reference_runs() == 0

    def test_external_subscriber_forces_reference(self, program):
        """Any bus subscriber makes the run observed: the reference
        interpreter must serve it (and produce the same bytes)."""
        recorder = TraceRecorder(Trace())
        assert not wants_fast_path(program, subscribers=(recorder,))
        reset_run_counters()
        observed = run_program(program, subscribers=(recorder,))
        assert reference_runs() == 1
        assert fast_path_runs() == 0
        # The external recorder saw the same event stream the
        # built-in one recorded.
        assert len(recorder.trace.events) == len(observed.trace.events)
        assert result_fingerprint(observed) == \
            result_fingerprint(run_program(program))

    def test_fault_schedule_forces_reference(self):
        job = tiny_job()
        faults = random_schedule(seed=5, n_devices=job.server.n_gpus,
                                 horizon=1.0)
        program = Lowering(
            job, ExecOptions(strict=False, prefetch_lead=2, faults=faults)
        ).lower(MPress(job).build_plan())
        assert not wants_fast_path(program)
        reset_run_counters()
        run_program(program)
        assert reference_runs() == 1

    def test_empty_fault_schedule_stays_fast(self):
        from repro.faults.spec import FaultSchedule

        job = tiny_job()
        faults = FaultSchedule()
        assert faults.is_empty
        program = Lowering(
            job, ExecOptions(strict=False, prefetch_lead=2, faults=faults)
        ).lower(MPress(job).build_plan())
        assert wants_fast_path(program)


class TestSingleUse:
    def test_reference_interpreter_rejects_reuse(self, program):
        interp = Interpreter(program)
        interp.run()
        with pytest.raises(SimulationError, match="single-use"):
            interp.run()

    def test_fast_interpreter_rejects_reuse(self, program):
        interp = FastInterpreter(program)
        interp.run()
        with pytest.raises(SimulationError, match="single-use"):
            interp.run()

    def test_mark_consumed_reserves_interpreter(self, program):
        interp = FastInterpreter(program)
        interp.mark_consumed()
        with pytest.raises(SimulationError, match="single-use"):
            interp.run()
        with pytest.raises(SimulationError, match="single-use"):
            interp.mark_consumed()


class TestTape:
    def test_tape_shapes(self, program):
        tape = ProgramTape(program)
        n = len(program.instructions)
        assert tape.n == n
        assert sum(len(m) for m in tape.members) == n
        assert sum(tape.dep_count) == len(program.edges)
        assert len(tape.stream_keys) == len(program.stream_order)

    def test_durations_are_plain_floats(self, program):
        """Only Python floats reach the tape and the results — records
        go through json.dumps."""
        tape = ProgramTape(program)
        assert all(type(d) is float for d in tape.durations)
        result = FastInterpreter(program).run()
        assert type(result.makespan) is float
        assert type(result.minibatch_time) is float

    def test_simulation_needs_no_numpy(self):
        """The package depends on nothing outside the standard library:
        a fresh interpreter compiles a tape and replays a planned run
        without importing numpy."""
        script = (
            "import sys\n"
            "from repro.core.mpress import MPress\n"
            "from repro.sim.fastpath import FastInterpreter, ProgramTape\n"
            "from repro.sim.ir import ExecOptions\n"
            "from repro.sim.lowering import Lowering\n"
            "from tests.conftest import tiny_job\n"
            "job = tiny_job()\n"
            "program = Lowering(job, ExecOptions()).lower(MPress(job).build_plan())\n"
            "tape = ProgramTape(program)\n"
            "assert all(type(d) is float for d in tape.durations)\n"
            "assert FastInterpreter(program, tape=tape).run().ok\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_tape_is_reusable_across_runs(self, program):
        tape = ProgramTape(program)
        first = FastInterpreter(program, tape=tape).run()
        second = FastInterpreter(program, tape=tape).run()
        assert result_fingerprint(first) == result_fingerprint(second)


class TestFailureParity:
    def test_strict_oom_matches_reference(self):
        """An over-capacity strict run fails identically on both
        paths: same verdict, same OOM attribution string."""
        job = tiny_job(server=small_server(gpu_memory=24 * MiB),
                       model=tiny_model(n_layers=12, hidden=512),
                       microbatches_per_minibatch=6)
        program = Lowering(job, ExecOptions(strict=True)).lower(None)
        fast = FastInterpreter(program).run()
        reference = Interpreter(program).run()
        assert not fast.ok and not reference.ok
        assert str(fast.oom) == str(reference.oom)
        assert fast.makespan == reference.makespan == 0.0

    def test_deadlock_message_matches_reference(self, program):
        """A cyclic dependency deadlocks both interpreters with the
        same diagnostic."""
        job = tiny_job()
        instrs = tuple(
            Barrier(iid=i, name=f"b{i}", stream=("x", 0), stream_mode="fifo",
                    duration=0.0, device=0)
            for i in range(2)
        )
        cyclic = InstructionProgram(
            job=job,
            plan=MPress(job).build_plan(),
            options=ExecOptions(strict=False),
            instructions=instrs,
            edges=((0, 1), (1, 0)),
            static_effects=(),
            stream_order=((("x", 0), "fifo"),),
        )
        with pytest.raises(ScheduleError) as fast_err:
            FastInterpreter(cyclic).run()
        with pytest.raises(ScheduleError) as ref_err:
            Interpreter(cyclic).run()
        assert str(fast_err.value) == str(ref_err.value)
        assert "deadlock: 2 tasks" in str(fast_err.value)


class TestSnapshots:
    def test_snapshot_cadence(self, program):
        interp = FastInterpreter(program, snapshot_every=64)
        interp.run()
        assert interp.snapshots
        done_counts = [snapshot.n_done for snapshot in interp.snapshots]
        assert done_counts == sorted(done_counts)
        assert all(snapshot.now <= interp._now for snapshot in interp.snapshots)

    def test_no_snapshots_by_default(self, program):
        interp = FastInterpreter(program)
        interp.run()
        assert interp.snapshots == []
