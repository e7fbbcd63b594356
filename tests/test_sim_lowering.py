"""Lowering pass tests: IR shape, reuse, and replay determinism."""

import pytest

from repro.core.emulator import Emulator
from repro.core.plan import Action, PlanEntry, empty_plan
from repro.errors import SimulationError
from repro.graph.tensor import TensorKind, tensor_classes_for
from repro.runtime.task import trace_digest
from repro.sim.executor import simulate
from repro.sim.interpreter import Interpreter
from repro.sim.ir import Compute, ExecOptions, OptimStep
from repro.sim.lowering import Lowering, skeleton_build_count
from repro.units import MiB

from tests.conftest import small_server, tiny_job, tiny_model


def _pressured_job():
    return tiny_job(
        server=small_server(gpu_memory=48 * MiB),
        model=tiny_model(n_layers=10),
        microbatch_size=8,
        microbatches_per_minibatch=6,
    )


def _recompute_plan(job):
    plan = empty_plan(job.n_stages)
    classes = tensor_classes_for(
        job.stage_plan, job.schedule, job.microbatch_size, job.bytes_per_element
    )
    cls = next(c for c in classes if c.kind is TensorKind.ACTIVATION and c.stage == 0)
    plan.assign(PlanEntry(cls=cls, action=Action.RECOMPUTE))
    return plan


class TestProgramShape:
    def test_instruction_counts_match_schedule(self):
        job = tiny_job()
        program = Lowering(job, ExecOptions()).lower(empty_plan(job.n_stages))
        counts = program.counts_by_type()
        total_layers = sum(
            len(job.stage_plan.stage(s).layers) for s in range(job.n_stages)
        )
        expected_compute = (
            2 * total_layers
            * job.microbatches_per_minibatch
            * job.n_minibatches
        )
        assert counts["Compute"] == expected_compute
        assert counts["OptimStep"] == job.n_stages * job.n_minibatches

    def test_edges_reference_valid_instructions(self):
        job = tiny_job()
        program = Lowering(job, ExecOptions()).lower(empty_plan(job.n_stages))
        n = len(program)
        assert n > 0
        for consumer, producer in program.edges:
            assert 0 <= consumer < n
            assert 0 <= producer < n
            assert consumer != producer

    def test_by_stream_and_for_device_partition_the_program(self):
        job = tiny_job()
        program = Lowering(job, ExecOptions()).lower(empty_plan(job.n_stages))
        assert sum(len(v) for v in program.by_stream().values()) == len(program)
        compute = [i for i in program.for_device(0) if isinstance(i, Compute)]
        assert compute
        assert all(i.device == 0 for i in compute)

    def test_optimizer_joins_carry_minibatch_ids(self):
        job = tiny_job()
        program = Lowering(job, ExecOptions()).lower(empty_plan(job.n_stages))
        opts = [i for i in program.instructions if isinstance(i, OptimStep)]
        assert {o.minibatch for o in opts} == set(range(job.n_minibatches))

    def test_short_device_map_rejected(self):
        job = tiny_job()
        plan = empty_plan(job.n_stages - 1)
        with pytest.raises(SimulationError):
            Lowering(job, ExecOptions()).lower(plan)


class TestSkeletonReuse:
    def test_lowering_built_once_per_job_and_options(self):
        # The acceptance gate: N candidate plans through one Emulator
        # must build the plan-independent skeleton exactly once.
        job = _pressured_job()
        before = skeleton_build_count()
        emulator = Emulator(job)
        plans = [empty_plan(job.n_stages), _recompute_plan(job),
                 empty_plan(job.n_stages)]
        for plan in plans:
            emulator.run(plan)
        assert skeleton_build_count() == before + 1
        assert emulator.n_emulations == len(plans)

    def test_planner_reports_emulation_count(self):
        from repro.core.planner import Planner

        _plan, report = Planner(_pressured_job()).build()
        assert report.n_emulations >= 1

    def test_lower_once_interpret_twice_is_deterministic(self):
        job = tiny_job()
        program = Lowering(job, ExecOptions()).lower(empty_plan(job.n_stages))
        first = Interpreter(program).run()
        second = Interpreter(program).run()
        assert first.ok and second.ok
        assert first.makespan == second.makespan
        assert trace_digest(first.trace) == trace_digest(second.trace)

    def test_interpreter_is_single_use(self):
        job = tiny_job()
        program = Lowering(job, ExecOptions()).lower(empty_plan(job.n_stages))
        interp = Interpreter(program)
        interp.run()
        with pytest.raises(SimulationError, match="single-use"):
            interp.run()


def _program_fields(program):
    """Everything a lowered program says, with each instruction's
    ``__dict__`` in order (comparison of the dataclasses alone would
    not see the key order)."""
    return (
        [(type(i), list(vars(i).items())) for i in program.instructions],
        program.edges,
        program.static_effects,
        program.stream_order,
    )


class TestSkeletonIsPlanFree:
    def test_relowering_equals_a_fresh_lowering(self):
        """Plans lowered back to back on one skeleton come out exactly
        as on a fresh skeleton each: no plan state leaks into it."""
        from repro.core.mpress import MPress

        job = _pressured_job()
        options = ExecOptions(prefetch_lead=2)
        plans = [MPress(job).build_plan(), _recompute_plan(job),
                 empty_plan(job.n_stages)]
        shared = Lowering(job, options)
        for plan in plans + plans:
            assert _program_fields(shared.lower(plan)) == \
                _program_fields(Lowering(job, options).lower(plan))

    def test_frozen_instructions_match_their_constructor(self):
        """``freeze_draft`` fills the instance dict directly; the result
        equals the dataclass constructor's, key order included."""
        from repro.core.mpress import MPress

        job = _pressured_job()
        program = Lowering(job, ExecOptions()).lower(MPress(job).build_plan())
        assert len(program.counts_by_type()) >= 4
        for instr in program.instructions:
            rebuilt = type(instr)(**vars(instr))
            assert rebuilt == instr
            assert hash(rebuilt) == hash(instr)
            assert list(vars(rebuilt).items()) == list(vars(instr).items())

    def test_freeze_draft_rejects_unknown_and_missing_fields(self):
        from repro.sim.ir import SwapOut, _InstructionDraft, freeze_draft

        def draft(**fields):
            return _InstructionDraft(SwapOut, 0, "x", ("s", 0), "pool", 1.0, 0,
                                     fields=fields)

        frozen = freeze_draft(draft(size=4, tag="t"))   # out of order, tier defaulted
        assert list(vars(frozen).items()) == list(vars(SwapOut(
            iid=0, name="x", stream=("s", 0), stream_mode="pool", duration=1.0,
            device=0, tag="t", size=4)).items())
        with pytest.raises(TypeError, match="size"):
            freeze_draft(draft(tag="t"))
        with pytest.raises(TypeError, match="bogus"):
            freeze_draft(draft(tag="t", size=4, bogus=1))


class TestFacadeEquivalence:
    def test_simulate_matches_manual_lowering(self):
        job = tiny_job()
        facade = simulate(job)
        manual = Interpreter(
            Lowering(job, ExecOptions()).lower(empty_plan(job.n_stages))
        ).run()
        assert facade.ok and manual.ok
        assert facade.makespan == manual.makespan
        assert trace_digest(facade.trace) == trace_digest(manual.trace)
