"""Hook table and per-layer metrics.  Layers are the ``src/repro`` packages.

Only per-batch public functions are wrapped (never per-row ones such as
``BatchReadScheduler.schedule`` or ``UnifiedRowCache.get``), so the tracer's
own cost stays a small, reported share (``bench.trace_overhead``).  One
consequence to keep in mind when reading the numbers: on a batch that falls
back to the scalar walk (``TierChain.fetch_batch`` returning ``None``), the
per-row cache probes and fills run inside ``TierChain.fetch_rows`` and are
charged to ``hierarchy.chain_self_s`` — that is the cost of the fallback.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from perf.trace import Hook, SpanTotal, Tracer


def backend_counters(backend: Any) -> Dict[str, float]:
    """Work counts from a backend's public stats objects (``SDMStats``,
    ``TierStats``, ``CacheStats``, ``IOEngineStats``); empty for DRAM."""
    stats = getattr(backend, "stats", None)
    if stats is None:
        return {}
    counters: Dict[str, float] = {
        "sdm.table_requests": stats.sm_table_requests,
        "sdm.row_lookups": stats.sm_row_lookups,
        "sdm.ios": stats.sm_ios,
        "sdm.pooled_lookups": stats.pooled_cache_lookups,
        "sdm.pooled_hits": stats.pooled_cache_hits,
    }
    for index, tier in enumerate(backend.tiers):
        counters[f"tier{index}.rows_served"] = tier.stats.rows_served
        counters["tiers.ios"] = counters.get("tiers.ios", 0) + tier.stats.ios
        if tier.cache is not None:
            cache = tier.cache.stats
            for key in ("hits", "misses", "inserts", "evictions"):
                name = f"cache.{key}"
                counters[name] = counters.get(name, 0) + getattr(cache, key)
        engine = getattr(tier, "io_engine", None)
        if engine is not None:
            for key in ("ios_submitted", "throttled_submissions", "bytes_requested", "bytes_transferred"):
                name = f"io.{key}"
                counters[name] = counters.get(name, 0) + getattr(engine.stats, key)
    return counters


def _after_session_run(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    # A campaign point's backend is reachable only here; its stats cover
    # exactly this point because every point starts from restore_pristine().
    tracer.add_counters(backend_counters(args[0].backend))


_ROWS = 2  # (self, table_name, stored_indices, ...): the per-row array

HOOKS: Tuple[Hook, ...] = (
    # workload
    Hook("repro.workload.generator", "QueryGenerator.generate", "workload.generate", "workload"),
    Hook("repro.workload.generator", "generate_arrival_times", "workload.arrivals", "workload"),
    Hook("repro.api.session", "generate_arrival_times", "workload.arrivals", "workload"),
    # api
    Hook("repro.api.session", "build_scaled_model", "api.model_build", "api"),
    Hook("repro.api.session", "create_backend", "api.backend_build", "api"),
    Hook("repro.api.spec", "ScenarioSpec.from_dict", "api.spec_from_dict", "api"),
    Hook("repro.api.spec", "ScenarioSpec.to_dict", "api.spec_to_dict", "api"),
    Hook("repro.api.results", "ScenarioResult.to_dict", "api.result_to_dict", "api"),
    Hook("repro.api.results", "ScenarioResult.from_dict", "api.result_from_dict", "api"),
    Hook("repro.api.session", "Session.run", "api.session_run", "api", after=_after_session_run),
    # sim
    Hook("repro.sim.events", "Simulator.run", "sim.run", "sim", work="result"),
    # serving
    Hook("repro.serving.engine", "ServingEngine.run_closed_loop", "serving.run_closed_loop", "serving"),
    Hook("repro.serving.engine", "ServingEngine.run_open_loop", "serving.run_open_loop", "serving"),
    # dlrm
    Hook("repro.dlrm.inference", "InferenceEngine.run_query", "dlrm.run_query", "dlrm", op=True),
    Hook("repro.dlrm.model", "DLRMModel.score", "dlrm.score", "dlrm"),
    Hook("repro.dlrm.inference", "InMemoryBackend.pooled_embeddings", "dlrm.item_embed", "dlrm"),
    Hook("repro.core.sdm", "dequantize_rows", "dlrm.dequant", "dlrm"),
    # core
    Hook("repro.core.sdm", "SoftwareDefinedMemory.pooled_embeddings", "core.pooled_embeddings", "core"),
    Hook("repro.core.pooled_cache", "PooledEmbeddingCache.probe_batch", "core.pooled_probe", "core"),
    Hook("repro.core.pooled_cache", "PooledEmbeddingCache.put_batch", "core.pooled_put", "core"),
    Hook("repro.core.sdm", "SoftwareDefinedMemory.restore_pristine", "core.restore_pristine", "core"),
    # hierarchy
    Hook("repro.hierarchy.chain", "TierChain.fetch_batch", "hierarchy.fetch_batch", "hierarchy"),
    Hook("repro.hierarchy.chain", "TierChain.fetch_rows", "hierarchy.fetch_rows", "hierarchy"),
    Hook("repro.hierarchy.tier", "DeviceTier.read_rows_batch", "hierarchy.tier_read_batch", "hierarchy"),
    Hook("repro.hierarchy.tier", "DeviceTier.read_rows", "hierarchy.tier_read_rows", "hierarchy"),
    # cache
    Hook("repro.cache.unified", "UnifiedRowCache.probe_batch", "cache.probe_batch", "cache", work=_ROWS),
    Hook("repro.cache.unified", "UnifiedRowCache.contains_batch", "cache.contains_batch", "cache"),
    Hook("repro.cache.unified", "UnifiedRowCache.fill_batch", "cache.fill_batch", "cache", work=_ROWS),
    # storage
    Hook("repro.storage.access", "DirectIOReader.read_rows_batch", "storage.access_batch", "storage"),
    Hook("repro.storage.access", "DirectIOReader.read_rows", "storage.access_rows", "storage"),
    Hook("repro.storage.io_engine", "IOEngine.submit_row_reads_batch", "storage.io_submit_batch", "storage"),
    Hook("repro.storage.io_engine", "IOEngine.submit_row_reads", "storage.io_submit_rows", "storage"),
    Hook("repro.storage.device", "SimulatedDevice.read_rows_ndarray", "storage.gather", "storage"),
    # runtime
    Hook("repro.runtime", "run_campaign", "runtime.run_campaign", "runtime"),
    Hook("repro.runtime.runtimes", "run_point", "runtime.run_point", "runtime", op=True),
    Hook("repro.runtime.store", "ExperimentStore.put", "runtime.store_put", "runtime"),
)

#: Layers whose ``<layer>.share`` metrics partition the traced root span.
SHARE_LAYERS = (
    "workload", "api", "sim", "serving", "dlrm", "core", "hierarchy", "cache", "storage", "runtime",
)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    whole: Mapping[str, SpanTotal],
    root: Mapping[str, SpanTotal],
    counters: Mapping[str, float],
    facts: Mapping[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``, by name.

    ``whole`` holds span totals over the whole traced run (set-up included),
    ``root`` those of the traced serve call alone.  That call is the root
    span, so the self times inside it sum to its duration and the layer
    shares to 1.  ``counters`` are the work counts read from public stats
    objects; ``facts`` what only the harness knows (queries generated,
    offered/served/shed, point outcomes, timings of untraced passes);
    campaign-only facts default to 0.
    """
    none = SpanTotal("")
    root_wall_s = sum(total.self_s for total in root.values())

    def self_s(table: Mapping[str, SpanTotal], *names: str) -> float:
        return sum(table.get(name, none).self_s for name in names)

    def layer_s(layer: str) -> float:
        return sum(total.self_s for total in root.values() if total.layer == layer)

    c = counters.get
    metrics: Dict[str, float] = {}

    gen_s = self_s(whole, "workload.generate")
    metrics["workload.gen_s"] = gen_s
    metrics["workload.gen_us_per_query"] = 1e6 * ratio(gen_s, facts["generated_queries"])
    metrics["workload.arrivals_gen_s"] = self_s(whole, "workload.arrivals")
    metrics["workload.lookups_per_query"] = facts["lookups_per_query"]

    metrics["api.import_s"] = facts["import_s"]
    metrics["api.model_build_s"] = self_s(whole, "api.model_build")
    metrics["api.backend_build_s"] = self_s(whole, "api.backend_build")
    metrics["api.result_build_s"] = self_s(
        whole, "api.result_to_dict", "api.result_from_dict", "api.session_run"
    )
    metrics["api.spec_roundtrip_s"] = self_s(whole, "api.spec_from_dict", "api.spec_to_dict")

    events = root.get("sim.run", none).work
    metrics["sim.self_s"] = layer_s("sim")
    metrics["sim.events"] = events
    metrics["sim.us_per_event"] = 1e6 * ratio(layer_s("sim"), events)

    metrics["serving.self_s"] = layer_s("serving")
    for key in ("offered", "served", "shed", "sim_p50_ms", "sim_queue_wait_share", "sim_slo_rate_qps"):
        metrics[f"serving.{key}"] = facts.get(key, 0.0)

    scores = root.get("dlrm.score", none).calls
    metrics["dlrm.engine_self_s"] = self_s(root, "dlrm.run_query")
    metrics["dlrm.score_s"] = self_s(root, "dlrm.score")
    metrics["dlrm.item_embed_s"] = self_s(root, "dlrm.item_embed")
    metrics["dlrm.dequant_s"] = self_s(root, "dlrm.dequant")
    metrics["dlrm.score_calls"] = scores
    metrics["dlrm.us_per_score"] = 1e6 * ratio(metrics["dlrm.score_s"], scores)

    sdm_stack_s = sum(layer_s(layer) for layer in ("core", "hierarchy", "cache", "storage"))
    metrics["core.sdm_self_s"] = self_s(root, "core.pooled_embeddings")
    metrics["core.pooled_s"] = self_s(root, "core.pooled_probe", "core.pooled_put")
    metrics["core.table_requests"] = c("sdm.table_requests", 0)
    metrics["core.row_lookups"] = c("sdm.row_lookups", 0)
    metrics["core.wall_us_per_lookup"] = 1e6 * ratio(
        sdm_stack_s + metrics["dlrm.dequant_s"], c("sdm.row_lookups", 0)
    )
    metrics["core.pooled_lookups"] = c("sdm.pooled_lookups", 0)
    metrics["core.pooled_hit_rate"] = ratio(c("sdm.pooled_hits", 0), c("sdm.pooled_lookups", 0))
    metrics["core.restore_pristine_s"] = self_s(whole, "core.restore_pristine")

    batches = root.get("hierarchy.fetch_batch", none)
    tier_rows = [c(f"tier{index}.rows_served", 0) for index in range(3)]
    metrics["hierarchy.chain_self_s"] = self_s(root, "hierarchy.fetch_batch", "hierarchy.fetch_rows")
    metrics["hierarchy.tier_self_s"] = self_s(
        root, "hierarchy.tier_read_batch", "hierarchy.tier_read_rows"
    )
    metrics["hierarchy.batches"] = batches.calls
    metrics["hierarchy.fallback_share"] = ratio(batches.none_returns, batches.calls)
    for index, rows in enumerate(tier_rows):
        metrics[f"hierarchy.rows_tier{index}_share"] = ratio(rows, sum(tier_rows))

    probe_rows = root.get("cache.probe_batch", none).work
    fill_rows = root.get("cache.fill_batch", none).work
    metrics["cache.probe_s"] = self_s(root, "cache.probe_batch", "cache.contains_batch")
    metrics["cache.fill_s"] = self_s(root, "cache.fill_batch")
    metrics["cache.probe_rows"] = probe_rows
    metrics["cache.fill_rows"] = fill_rows
    metrics["cache.hit_rate"] = ratio(c("cache.hits", 0), c("cache.hits", 0) + c("cache.misses", 0))
    metrics["cache.evictions"] = c("cache.evictions", 0)
    metrics["cache.us_per_probe_row"] = 1e6 * ratio(metrics["cache.probe_s"], probe_rows)
    metrics["cache.us_per_fill_row"] = 1e6 * ratio(metrics["cache.fill_s"], fill_rows)

    ios = c("io.ios_submitted", 0)
    metrics["storage.access_self_s"] = self_s(root, "storage.access_batch", "storage.access_rows")
    metrics["storage.io_submit_s"] = self_s(root, "storage.io_submit_batch", "storage.io_submit_rows")
    metrics["storage.gather_s"] = self_s(root, "storage.gather")
    metrics["storage.ios"] = ios
    metrics["storage.us_per_io"] = 1e6 * ratio(layer_s("storage"), ios)
    metrics["storage.throttled_share"] = ratio(c("io.throttled_submissions", 0), ios)
    metrics["storage.read_amplification"] = ratio(
        c("io.bytes_transferred", 0), c("io.bytes_requested", 0)
    )

    points = facts.get("points", 0)
    metrics["runtime.self_s"] = layer_s("runtime")
    metrics["runtime.points"] = points
    metrics["runtime.points_per_s"] = ratio(points, root_wall_s) if points else 0.0
    metrics["runtime.store_put_s"] = self_s(root, "runtime.store_put")
    metrics["runtime.reuse_hit_rate"] = (
        1.0 - ratio(root.get("api.backend_build", none).calls, points) if points else 0.0
    )
    metrics["runtime.failed_points"] = facts.get("failed_points", 0)
    metrics["runtime.retries"] = facts.get("retries", 0)
    metrics["runtime.overhead_ms_per_point"] = 1e3 * ratio(layer_s("runtime"), points)

    for layer in SHARE_LAYERS:
        metrics[f"{layer}.share"] = ratio(layer_s(layer), root_wall_s)
    metrics["bench.trace_overhead"] = ratio(facts["traced_wall_s"], facts["untraced_wall_s"]) - 1.0
    metrics["bench.missing_hooks"] = facts["missing_hooks"]
    metrics["bench.pass_spread"] = facts["pass_spread"]
    return metrics
