"""The :class:`Session` facade: one front door to the whole stack.

A Session lazily materialises the pipeline a :class:`~repro.api.spec.ScenarioSpec`
describes — model → backend (from the backend table) → inference engine → query
generator → host simulation — and returns a structured
:class:`~repro.api.results.ScenarioResult`.  The wiring is exactly what the
hand-written examples used to do::

    from repro.api import ScenarioSpec, Session

    result = Session(ScenarioSpec()).run()
    print(result.summary_table())

A study over one or more spec values (the dotted paths of
:meth:`ScenarioSpec.replace`) is a campaign: :func:`repro.runtime.run_campaign`
over :meth:`repro.runtime.CampaignSpec.from_grid`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.api.backends import create_backend
from repro.api.results import PowerSummary, ScenarioResult
from repro.api.spec import ScenarioSpec, model_spec_by_name
from repro.core.sdm import SoftwareDefinedMemory
from repro.dlrm.inference import ComputeSpec, EmbeddingBackend, InferenceEngine, Query
from repro.dlrm.model import DLRMModel
from repro.dlrm.model_config import build_scaled_model
from repro.obs.metrics import MetricsSampler
from repro.obs.trace import NULL_RECORDER, ChromeTraceRecorder, TraceRecorder
from repro.serving.capacity_planner import DeploymentScenario, plan_deployment
from repro.serving.engine import HostSimulationResult, OpenLoopResult, ServingEngine
from repro.serving.platform import ALL_PLATFORMS
from repro.serving.power import PowerModel, power_saving
from repro.workload.generator import QueryGenerator, generate_arrival_times


class Session:
    """Builds and runs the scenario a :class:`ScenarioSpec` describes.

    Construction is lazy: the model, backend, engine and queries are built on
    first use, so cheap operations (inspecting the workload, listing traces)
    never pay for device setup.  Serving state (caches, statistics)
    accumulates across repeated :meth:`run` calls on the same session; use a
    fresh session — as each campaign point does — for independent runs.
    """

    def __init__(self, spec: ScenarioSpec, compute: Optional[ComputeSpec] = None) -> None:
        self.spec = spec
        self.compute = compute if compute is not None else ComputeSpec()
        self._model: Optional[DLRMModel] = None
        self._backend: Optional[EmbeddingBackend] = None
        self._engine: Optional[InferenceEngine] = None
        self._generator: Optional[QueryGenerator] = None
        self._queries: Optional[List[Query]] = None

    def adopt_backend(
        self, model: DLRMModel, backend: Optional[EmbeddingBackend] = None
    ) -> None:
        """Serve through an already-built ``(model, backend)`` pair, or build
        this session's backend over an already-built ``model``.

        The campaign runtimes (:mod:`repro.runtime.runtimes`) keep one built
        backend per :meth:`ScenarioSpec.backend_hash` resident in each worker
        process; adopting it skips model construction and backend build — the
        dominant cost of small-scenario grid points.  The caller owns the
        reuse contract: the model must have been built from a spec whose
        ``model`` section equals this session's (and the backend, when given,
        from an equal ``backend`` section too), and the backend must be
        restored to its as-constructed state
        (``backend.restore_pristine()``) before every adopting run, or
        results will not be bit-identical to a fresh build.  A built model is
        never written to, so any number of backends may share one.  Only
        valid before the first :meth:`run` touches the lazy parts.
        """
        if self._model is not None or self._backend is not None:
            raise RuntimeError(
                "adopt_backend must be called before the session builds its "
                "own model/backend"
            )
        self._model = model
        self._backend = backend

    def adopt_queries(self, queries: List[Query]) -> None:
        """Serve an already-generated query stream instead of generating one.

        The campaign runtimes keep each stream they generate resident in the
        worker, keyed by :meth:`ScenarioSpec.stream_hash`; adopting it skips
        query generation.  The caller owns the contract: the stream must come
        from a spec whose ``model`` and ``workload`` sections equal this
        session's.  Queries are read-only, so any number of sessions may share
        one stream.  Only valid before the session generates its own.
        """
        if self._queries is not None:
            raise RuntimeError(
                "adopt_queries must be called before the session generates its own queries"
            )
        self._queries = queries

    # ------------------------------------------------------------ lazy parts
    @property
    def model(self) -> DLRMModel:
        if self._model is None:
            choice = self.spec.model
            self._model = build_scaled_model(
                model_spec_by_name(choice.spec),
                max_tables_per_group=choice.max_tables_per_group,
                max_rows_per_table=choice.max_rows_per_table,
                item_batch=choice.item_batch,
                seed=choice.seed,
            )
        return self._model

    @property
    def backend(self) -> EmbeddingBackend:
        if self._backend is None:
            self._backend = create_backend(
                self.spec.backend.name,
                self.model,
                compute=self.compute,
                **self.spec.backend.options,
            )
        return self._backend

    @property
    def engine(self) -> InferenceEngine:
        if self._engine is None:
            self._engine = InferenceEngine(self.model, self.compute, user_backend=self.backend)
        return self._engine

    @property
    def generator(self) -> QueryGenerator:
        if self._generator is None:
            workload = self.spec.workload
            self._generator = QueryGenerator(
                self.model,
                workload.to_workload_config(self.model.item_batch),
                seed=workload.seed,
            )
        return self._generator

    def queries(self) -> List[Query]:
        """The scenario's query stream (generated once, then cached)."""
        if self._queries is None:
            self._queries = self.generator.generate(self.spec.workload.num_queries)
        return self._queries

    def access_trace(self, table_name: str, queries: Optional[Sequence[Query]] = None) -> List[int]:
        """Row accesses the query stream makes to one table (locality studies)."""
        stream = list(queries) if queries is not None else self.queries()
        return self.generator.access_trace(stream, table_name)

    # ---------------------------------------------------------------- running
    def run(self) -> ScenarioResult:
        """Serve the query stream and return the structured result.

        ``spec.traffic`` picks the serving discipline: closed loop (the seed
        behaviour) or the event-driven open loop with an arrival process and
        a bounded admission queue.
        """
        serving = self.spec.serving
        recorder, sampler = self._telemetry()
        engine = ServingEngine(
            self.engine,
            serving.concurrency,
            store_results=serving.store_results,
            recorder=recorder,
            sampler=sampler,
        )
        measured = engine.warm_up(self.queries(), serving.warmup_queries)
        if serving.reset_stats_after_warmup and serving.warmup_queries:
            # Report steady-state statistics only.
            self.backend.reset_stats()
        host_result = self._serve(engine, measured)
        return self._build_result(host_result, recorder=recorder, sampler=sampler)

    def _telemetry(self):
        """(recorder, sampler) per the spec's telemetry section.

        With telemetry off (the default) this is the shared no-op recorder
        and no sampler: the serving path takes the exact pre-telemetry code
        path, which the parity tests pin bit-for-bit.
        """
        telemetry = self.spec.telemetry
        recorder: TraceRecorder = NULL_RECORDER
        if telemetry.trace:
            recorder = ChromeTraceRecorder(max_events=telemetry.max_trace_events)
            attach = getattr(self.backend, "set_trace_recorder", None)
            if callable(attach):
                attach(recorder)
        sampler = None
        if telemetry.sample_interval > 0:
            sampler = MetricsSampler(telemetry.sample_interval)
            counters = getattr(self.backend, "telemetry_counters", None)
            if callable(counters):
                sampler.add_counters("backend", counters)
        return recorder, sampler

    def _serve(
        self, engine: ServingEngine, queries: Sequence[Query]
    ) -> HostSimulationResult:
        traffic = self.spec.traffic
        if traffic.mode == "closed":
            return engine.run_closed_loop(queries)
        arrivals = generate_arrival_times(
            len(queries),
            process=traffic.arrival,
            offered_qps=traffic.offered_qps,
            seed=traffic.seed,
            trace=traffic.trace or None,
        )
        return engine.run_open_loop(
            queries,
            arrivals,
            queue_depth=traffic.queue_depth,
            serve_batch=traffic.serve_batch,
        )

    # -------------------------------------------------------------- internals
    def _backend_stats(self) -> dict:
        backend = self.backend
        if not isinstance(backend, SoftwareDefinedMemory):
            return {}
        return {
            "row cache hit rate": backend.row_cache_hit_rate,
            "pooled cache hit rate": backend.pooled_cache_hit_rate,
            "SM IOs per query": backend.stats.ios_per_query,
            "device read amplification": backend.device_stats().read_amplification,
            "FM footprint bytes": float(backend.fm_footprint_bytes()),
            "SM footprint bytes": float(backend.sm_footprint_bytes()),
        }

    def _tier_summaries(self):
        """Per-tier serving stats, for backends that expose a hierarchy."""
        summaries = getattr(self.backend, "tier_summaries", None)
        return summaries() if callable(summaries) else None

    @staticmethod
    def _platform(name: str):
        if name not in ALL_PLATFORMS:
            raise ValueError(f"unknown platform {name!r}; known: {sorted(ALL_PLATFORMS)}")
        return ALL_PLATFORMS[name]

    def _fleet(
        self,
        scenario_name: str,
        platform_name: str,
        qps_per_host: float,
        helper_platform: Optional[str],
        helper_hosts_per_host: float,
        fleet_qps: Optional[float],
        power_model: PowerModel,
    ):
        """(num_hosts, fleet_power) for one platform, Eq. 7 when fleet_qps is set."""
        platform = self._platform(platform_name)
        if fleet_qps is None:
            return 1, power_model.host_power(platform)
        plan = plan_deployment(
            DeploymentScenario(
                scenario_name,
                platform,
                qps_per_host,
                fleet_qps,
                helper_platform=(
                    self._platform(helper_platform) if helper_platform is not None else None
                ),
                helper_hosts_per_host=helper_hosts_per_host,
            ),
            power_model,
        )
        return plan.total_hosts, plan.total_power

    def power_summary(
        self, host_result: Optional[HostSimulationResult] = None
    ) -> Optional[PowerSummary]:
        """Fleet sizing and power for the spec's platform fields.

        Purely analytic when ``serving.qps_per_host`` is set (no simulation
        needed); otherwise the per-host QPS comes from ``host_result`` —
        :meth:`run` passes its own.  Returns ``None`` when the spec names no
        platform.
        """
        serving = self.spec.serving
        if serving.platform is None:
            return None
        power_model = PowerModel()
        platform = self._platform(serving.platform)
        if serving.qps_per_host is not None:
            qps_per_host = serving.qps_per_host
        elif host_result is not None:
            qps_per_host = host_result.achieved_qps
        else:
            raise ValueError(
                "power_summary needs serving.qps_per_host or a host simulation result"
            )
        num_hosts, fleet_power = self._fleet(
            self.spec.name,
            serving.platform,
            qps_per_host,
            serving.helper_platform,
            serving.helper_hosts_per_host,
            serving.fleet_qps,
            power_model,
        )

        baseline_num_hosts = None
        baseline_fleet_power = None
        saving = None
        if serving.baseline_platform is not None:
            baseline_qps = (
                serving.baseline_qps_per_host
                if serving.baseline_qps_per_host is not None
                else qps_per_host
            )
            baseline_num_hosts, baseline_fleet_power = self._fleet(
                "baseline",
                serving.baseline_platform,
                baseline_qps,
                serving.baseline_helper_platform,
                serving.baseline_helper_hosts_per_host,
                serving.fleet_qps,
                power_model,
            )
            saving = power_saving(baseline_fleet_power, fleet_power)

        return PowerSummary(
            platform=platform.name,
            host_power=power_model.host_power(platform),
            num_hosts=num_hosts,
            fleet_power=fleet_power,
            baseline_platform=serving.baseline_platform,
            baseline_num_hosts=baseline_num_hosts,
            baseline_fleet_power=baseline_fleet_power,
            power_saving=saving,
        )

    def _build_result(
        self,
        host_result: HostSimulationResult,
        recorder: TraceRecorder = NULL_RECORDER,
        sampler: Optional[MetricsSampler] = None,
    ) -> ScenarioResult:
        target = self.spec.serving.latency_target()
        timeline = None
        if sampler is not None:
            # The serving engine already finished the sampler at the makespan.
            timeline = sampler.timeline.to_dict()
        trace = None
        if isinstance(recorder, ChromeTraceRecorder):
            trace = recorder.to_chrome_trace()
        queueing = None
        dropped = 0
        offered_qps = None
        if isinstance(host_result, OpenLoopResult):
            queueing = (
                host_result.queueing_percentiles() if host_result.queue_delays else None
            )
            dropped = host_result.dropped_queries
            offered_qps = host_result.offered_qps
        return ScenarioResult(
            scenario=self.spec.name,
            backend_name=self.spec.backend.name,
            num_queries=host_result.num_queries,
            concurrency=host_result.concurrency,
            makespan_seconds=host_result.makespan_seconds,
            achieved_qps=host_result.achieved_qps,
            latency=host_result.percentiles(),
            meets_slo=host_result.meets(target),
            slo_headroom=target.headroom(host_result.latencies),
            backend_stats=self._backend_stats(),
            power=self.power_summary(host_result),
            host_result=host_result,
            traffic_mode=self.spec.traffic.mode,
            offered_qps=offered_qps,
            serve_batch=self.spec.traffic.serve_batch,
            dropped_queries=dropped,
            queueing=queueing,
            tiers=self._tier_summaries(),
            timeline=timeline,
            trace=trace,
        )
