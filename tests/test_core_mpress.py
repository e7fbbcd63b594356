"""MPress facade and run_system dispatch tests."""

from dataclasses import replace

import pytest

import repro.runtime.task as task_module
from repro.core.mpress import MPress, run_system
from repro.core.plan import MemorySavingPlan
from repro.core.planner import PlannerConfig, baseline_config
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.hardware.cluster import dgx1_cluster
from repro.hardware.server import dgx1_server, dgx2_server
from repro.job import dapple_job, pipedream_job
from repro.models import bert_variant, gpt_variant
from repro.runtime.task import trace_digest
from repro.sim.executor import simulate, strict_run
from repro.sim.lowering import Lowering
from repro.units import MiB

from tests.conftest import small_server, tiny_job, tiny_model


def _pressured_job():
    return tiny_job(
        server=small_server(gpu_memory=48 * MiB),
        model=tiny_model(n_layers=10),
        microbatch_size=8,
        microbatches_per_minibatch=6,
    )


class TestMPress:
    def test_plan_is_cached(self):
        mpress = MPress(_pressured_job())
        assert mpress.build_plan() is mpress.build_plan()

    def test_run_returns_successful_result(self):
        result = MPress(_pressured_job()).run()
        assert result.ok
        assert result.tflops > 0
        assert result.samples_per_second > 0

    def test_planner_report_available_before_run(self):
        mpress = MPress(_pressured_job())
        assert mpress.planner_report is not None

    def test_custom_config_respected(self):
        config = PlannerConfig(allow_d2d=False, mapping_mode="identity")
        result = MPress(_pressured_job(), config).run()
        assert result.plan.device_map == list(range(4))


class TestRunSystem:
    def test_none_system_is_uncompacted(self):
        job = tiny_job()  # fits without compaction
        result = run_system(job, "none")
        assert result.ok
        assert not result.plan.entries

    def test_none_system_ooms_under_pressure(self):
        result = run_system(_pressured_job(), "none")
        assert not result.ok

    @pytest.mark.parametrize("system", ["recomputation", "gpu-cpu-swap", "mpress"])
    def test_memory_saving_systems_survive_pressure(self, system):
        result = run_system(_pressured_job(), system)
        assert result.ok, system

    def test_mpress_at_least_matches_swap_baseline(self):
        job = _pressured_job()
        swap = run_system(job, "gpu-cpu-swap")
        mpress = run_system(job, "mpress")
        assert mpress.tflops >= swap.tflops

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            run_system(_pressured_job(), "megatron")


class TestRunSystemReports:
    def test_none_feasibility_flag_matches_fit(self):
        fits = run_system(tiny_job(), "none")
        assert fits.planner_report.feasible
        pressured = run_system(_pressured_job(), "none")
        assert not pressured.planner_report.feasible

    def test_result_exposes_simulation(self):
        result = run_system(tiny_job(), "none")
        assert result.simulation.makespan > 0
        assert len(result.simulation.peak_memory_per_gpu) == 4


# -- the strict run is the accepted emulation -------------------------------

_SYSTEMS = ["mpress", "d2d-only", "recomputation", "gpu-cpu-swap", "none"]


def _dgx1_pipedream():
    return pipedream_job(bert_variant(0.64), dgx1_server())


def _dgx2_dapple():
    return dapple_job(gpt_variant(10.3), dgx2_server())


def _books(simulation):
    return simulation.memory.gpus + [simulation.memory.host]


def _fresh_strict(job, result, system, faults=None):
    """A from-scratch strict replay of ``result``'s plan."""
    lead = 3 if system == "none" else baseline_config(system).prefetch_lead
    return simulate(job, result.plan, strict=True, prefetch_lead=lead,
                    faults=faults)


def _prior_run(result, system):
    """The non-strict run the strict one may have been taken from."""
    if system == "none":
        return result.planner_report.profile.baseline
    return result.planner_report.emulation.result


def _assert_same_run(got, fresh):
    assert got.ok == fresh.ok
    assert str(got.oom) == str(fresh.oom)
    assert got.makespan == fresh.makespan
    assert got.minibatch_time == fresh.minibatch_time
    assert got.memory.strict and fresh.memory.strict
    assert len(_books(got)) == len(_books(fresh))
    for book, fresh_book in zip(_books(got), _books(fresh)):
        assert book.name == fresh_book.name
        assert book.strict and fresh_book.strict
        assert book.peak == fresh_book.peak
        assert book.in_use == fresh_book.in_use
        assert book.timeline == fresh_book.timeline
        assert book.events == fresh_book.events
        assert book.usage_by_tag() == fresh_book.usage_by_tag()
    assert trace_digest(got.trace) == trace_digest(fresh.trace)
    assert got.trace.counters == fresh.trace.counters


class TestStrictRunReuse:
    @pytest.mark.parametrize("system", _SYSTEMS)
    @pytest.mark.parametrize("make_job", [_dgx1_pipedream, _dgx2_dapple],
                             ids=["dgx1-pipedream", "dgx2-dapple"])
    def test_strict_run_equals_fresh_replay(self, make_job, system):
        job = make_job()
        result = run_system(job, system)
        reused = result.simulation is _prior_run(result, system)
        # Every plan that fits is reused; an overflowing one (here the
        # uncompacted "none" runs) takes the fresh replay.
        assert reused == result.ok
        _assert_same_run(result.simulation, _fresh_strict(job, result, system))

    def test_fitting_none_run_reuses_the_profile(self):
        job = pipedream_job(bert_variant(0.35), dgx1_server())
        result = run_system(job, "none")
        assert result.ok
        assert result.simulation is result.planner_report.profile.baseline
        _assert_same_run(result.simulation, _fresh_strict(job, result, "none"))

    @pytest.mark.parametrize("system", ["mpress", "none"])
    def test_fault_schedule_takes_fresh_run(self, system):
        job = _pressured_job() if system == "mpress" else tiny_job()
        makespan = simulate(job).makespan
        faults = FaultSchedule(faults=(
            FaultSpec(kind=FaultKind.DEVICE_SLOWDOWN, start=0.0,
                      duration=makespan, device=0, factor=0.5),
        ))
        result = run_system(job, system, faults=faults)
        assert result.ok
        assert result.simulation is not _prior_run(result, system)
        assert result.simulation.resilience is not None
        fresh = _fresh_strict(job, result, system, faults=faults)
        _assert_same_run(result.simulation, fresh)
        assert result.simulation.resilience == fresh.resilience

    @pytest.mark.parametrize("gpu_mib,system", [(48, "d2d-only"),
                                                (16, "mpress")])
    def test_overflowing_plan_keeps_oom_attribution(self, gpu_mib, system):
        job = tiny_job(
            server=small_server(gpu_memory=gpu_mib * MiB),
            model=tiny_model(n_layers=10),
            microbatch_size=8,
            microbatches_per_minibatch=6,
        )
        result = run_system(job, system)
        emulation = result.planner_report.emulation
        assert not emulation.fits
        assert not result.ok
        assert result.simulation is not emulation.result
        _assert_same_run(result.simulation, _fresh_strict(job, result, system))

    def test_guard_checks_options_and_plan(self):
        job = _pressured_job()
        result = run_system(job, "mpress")
        emulation = result.planner_report.emulation
        prior, prior_options = emulation.result, emulation.options
        strict = replace(prior_options, strict=True)
        other_lead = replace(strict, prefetch_lead=strict.prefetch_lead + 1)
        assert strict_run(job, result.plan, other_lead, prior,
                          prior_options) is not prior
        copy = MemorySavingPlan(list(result.plan.device_map),
                                dict(result.plan.entries))
        fresh = strict_run(job, copy, strict, prior, prior_options)
        assert fresh is not prior
        _assert_same_run(prior, fresh)
        assert strict_run(job, result.plan, strict, prior,
                          prior_options) is prior


class TestSimulationCounts:
    """Pins the saving: no plan is lowered, nor trace digested, twice."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_mpress_lowers_profile_plus_emulations(self, monkeypatch):
        lowerings = self._count(monkeypatch, Lowering, "lower")
        result = run_system(_pressured_job(), "mpress")
        assert result.ok
        assert len(lowerings) == 1 + result.planner_report.n_emulations

    def test_none_lowers_once(self, monkeypatch):
        lowerings = self._count(monkeypatch, Lowering, "lower")
        assert run_system(tiny_job(), "none").ok
        assert len(lowerings) == 1

    def test_autoplan_lowerings_and_digests(self, monkeypatch):
        from repro.autoplan import autoplan

        lowerings = self._count(monkeypatch, Lowering, "lower")
        digests = self._count(monkeypatch, task_module, "trace_digest")
        cluster = dgx1_cluster(1)
        report = autoplan(dapple_job(gpt_variant(5.3), cluster.servers[0]),
                          cluster)
        assert report.n_simulated == 5
        assert len(lowerings) == 13
        assert len(digests) <= 5
