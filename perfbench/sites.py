"""The traced binding sites of each layer, and the per-layer metrics.

Span names are ``<layer>.<what>``; the layer is the part before the dot.
Every time metric is *self* time
(:func:`perfbench.spans.self_times`) summed over the traced pass and
divided by the number of ops, so it reads as seconds per op; counts are
per op too.  ``perfbench/REFERENCE.md`` lists what each one should move.
"""

from __future__ import annotations

import statistics

from perfbench.spans import Site, Span, self_times, unattributed


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _scf_iterations(args, kwargs, result):
    return {"iterations": len(result.history)}


def _kmeans_iterations(args, kwargs, result):
    return {"iterations": int(result.n_iter)}


def _request_key(args, kwargs):
    return id(args[0] if args else kwargs["request"])


def _request_info(args, kwargs, result):
    return {"request": _request_key(args, kwargs)}


_FFT_METHODS = ("fftn", "ifftn", "rfftn", "irfftn")


def sites() -> list[Site]:
    """Every binding site the traced pass wraps."""
    from repro.backend.fft_engine import default_fft_engine

    engine = type(default_fft_engine())
    return [
        # api
        Site("api.execute_request", "repro.api.request", "execute_request"),
        Site(
            "api.execute_request", "repro.serve.server", "execute_request",
            info=_request_info, op_from=_request_key,
        ),
        Site("api.cache_key", "repro.api.request", "CalculationRequest.cache_key"),
        # dft
        Site("dft.run_scf", "repro.dft.scf", "run_scf", info=_scf_iterations),
        Site("dft.run_scf", "repro.batch.engine", "_run_scf_core", info=_scf_iterations),
        Site("dft.h_apply", "repro.dft.hamiltonian", "KohnShamHamiltonian.apply_columns"),
        Site("dft.precondition", "repro.dft.hamiltonian", "KohnShamHamiltonian.preconditioner"),
        Site("dft.mix", "repro.dft.mixing", "AndersonMixer.mix"),
        Site("dft.mix", "repro.dft.mixing", "LinearMixer.mix"),
        # eigen: each binding of lobpcg on its own
        Site("eigen.scf_lobpcg", "repro.dft.scf", "lobpcg", info=_iterations),
        Site("eigen.casida_lobpcg", "repro.core.driver", "lobpcg", info=_iterations),
        # core
        Site("core.isdf_decompose", "repro.core.driver", "isdf_decompose"),
        Site(
            "core.kmeans", "repro.core.isdf", "select_points_kmeans",
            info=_kmeans_iterations,
        ),
        Site("core.pair_products", "repro.core.kmeans", "pair_weights"),
        Site("core.pair_products", "repro.core.casida", "pair_products"),
        Site("core.isdf_fit", "repro.core.isdf", "fit_interpolation_vectors"),
        Site("core.kernel_apply", "repro.core.kernel", "HxcKernel.apply"),
        Site("core.casida_apply", "repro.core.implicit", "ImplicitCasidaOperator.apply"),
        Site(
            "core.casida_precondition", "repro.core.implicit",
            "ImplicitCasidaOperator.preconditioner",
        ),
        # pw: the methods of whichever engine is the process default
        *(
            Site("pw.fft", engine.__module__, f"{engine.__name__}.{method}")
            for method in _FFT_METHODS
        ),
        # serve
        Site("serve.store_get", "repro.serve.store", "ResultStore.get"),
        Site("serve.store_put", "repro.serve.store", "ResultStore.put"),
        Site("serve.nearest", "repro.serve.store", "ResultStore.nearest_ground_state"),
        # parallel
        Site("parallel.spmd_run", "repro.parallel.executor", "spmd_run"),
    ]


#: Per-layer metric name -> unit, in report order.
PER_LAYER = {
    "api.execute_request_s": "s",
    "api.cache_key_s": "s",
    "dft.run_scf_s": "s",
    "dft.bands_s": "s",
    "dft.polish_s": "s",
    "dft.h_apply_s": "s",
    "dft.h_apply_calls": "count",
    "dft.mix_s": "s",
    "dft.scf_iterations": "count",
    "eigen.lobpcg_self_s": "s",
    "eigen.iterations.bands": "count",
    "eigen.iterations.polish": "count",
    "eigen.iterations.casida": "count",
    "pw.fft_s": "s",
    "pw.fft_calls": "count",
    "pw.plan_cache_hit_ratio": "ratio",
    "core.isdf_decompose_s": "s",
    "core.kmeans_s": "s",
    "core.kmeans_iterations": "count",
    "core.pair_products_s": "s",
    "core.isdf_fit_s": "s",
    "core.kernel_apply_s": "s",
    "core.casida_apply_s": "s",
    "core.casida_apply_calls": "count",
    "serve.queue_wait_s": "s",
    "serve.store_get_s": "s",
    "serve.store_put_s": "s",
    "serve.nearest_s": "s",
    "serve.hit_ratio": "ratio",
    "serve.subrequest_hit_ratio": "ratio",
    "serve.warm_ratio": "ratio",
    "serve.dedup_ratio": "ratio",
    "serve.hit_latency_s": "s",
    "latency_p50_s.cold": "s",
    "latency_p50_s.warm": "s",
    "batch.warm_frame_ratio": "ratio",
    "batch.isdf_reuse_ratio": "ratio",
    "batch.scf_iterations_per_frame": "count",
    "batch.casida_iterations_per_frame": "count",
    "batch.frame_scf_s": "s",
    "batch.frame_tddft_s": "s",
    "parallel.spmd_run_s": "s",
    "parallel.rank_imbalance": "ratio",
    "parallel.overhead_s": "s",
    "resilience.fallback_events": "count",
    "unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


def span_metrics(spans, op_windows: dict[int, tuple[float, float]]) -> tuple[dict, dict]:
    """Per-layer metrics derived from the spans, plus self time per layer.

    ``op_windows`` maps each traced op to its ``(start, end)`` wall window.
    Returns ``(metrics, layer_self_s)``; both are per op.
    """
    n_ops = max(1, len(op_windows))
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    iters: dict[str, int] = {}
    for span, self_s in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1

    # The last SCF lobpcg under each run_scf is the polish; the rest are the
    # per-iteration band solves.
    last_under: dict[int, Span] = {}
    for span in spans:
        if span.name == "eigen.scf_lobpcg" and span.parent is not None:
            last_under[id(span.parent)] = span
    polish = {id(span) for span in last_under.values()}
    phase_s = {"bands": 0.0, "polish": 0.0}
    for span, self_s in zip(spans, own):
        n_it = int(span.info.get("iterations", 0))
        if span.name == "eigen.scf_lobpcg":
            key = "polish" if id(span) in polish else "bands"
            iters[key] = iters.get(key, 0) + n_it
            phase_s[key] += self_s
        elif span.name == "eigen.casida_lobpcg":
            iters["casida"] = iters.get("casida", 0) + n_it
        elif span.name == "dft.run_scf":
            iters["scf"] = iters.get("scf", 0) + n_it
        elif span.name == "core.kmeans":
            iters["kmeans"] = iters.get("kmeans", 0) + n_it

    def per_op(value):
        return value / n_ops

    metrics = {
        "api.execute_request_s": per_op(total.get("api.execute_request", 0.0)),
        "api.cache_key_s": per_op(total.get("api.cache_key", 0.0)),
        "dft.run_scf_s": per_op(total.get("dft.run_scf", 0.0)),
        "dft.bands_s": per_op(phase_s["bands"]),
        "dft.polish_s": per_op(phase_s["polish"]),
        "dft.h_apply_s": per_op(total.get("dft.h_apply", 0.0)),
        "dft.h_apply_calls": per_op(calls.get("dft.h_apply", 0)),
        "dft.mix_s": per_op(total.get("dft.mix", 0.0)),
        "dft.scf_iterations": per_op(iters.get("scf", 0)),
        "eigen.lobpcg_self_s": per_op(
            total.get("eigen.scf_lobpcg", 0.0) + total.get("eigen.casida_lobpcg", 0.0)
        ),
        "eigen.iterations.bands": per_op(iters.get("bands", 0)),
        "eigen.iterations.polish": per_op(iters.get("polish", 0)),
        "eigen.iterations.casida": per_op(iters.get("casida", 0)),
        "pw.fft_s": per_op(total.get("pw.fft", 0.0)),
        "pw.fft_calls": per_op(calls.get("pw.fft", 0)),
        "core.isdf_decompose_s": per_op(total.get("core.isdf_decompose", 0.0)),
        "core.kmeans_s": per_op(total.get("core.kmeans", 0.0)),
        "core.kmeans_iterations": per_op(iters.get("kmeans", 0)),
        "core.pair_products_s": per_op(total.get("core.pair_products", 0.0)),
        "core.isdf_fit_s": per_op(total.get("core.isdf_fit", 0.0)),
        "core.kernel_apply_s": per_op(total.get("core.kernel_apply", 0.0)),
        "core.casida_apply_s": per_op(total.get("core.casida_apply", 0.0)),
        "core.casida_apply_calls": per_op(calls.get("core.casida_apply", 0)),
        "serve.store_get_s": per_op(total.get("serve.store_get", 0.0)),
        "serve.store_put_s": per_op(total.get("serve.store_put", 0.0)),
        "serve.nearest_s": per_op(total.get("serve.nearest", 0.0)),
        "parallel.spmd_run_s": per_op(total.get("parallel.spmd_run", 0.0)),
        "unattributed_s": per_op(sum(unattributed(spans, op_windows).values())),
    }
    layers: dict[str, float] = {}
    for span, self_s in zip(spans, own):
        layer = span.name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    layers = {name: per_op(value) for name, value in sorted(layers.items())}
    layers["unattributed"] = metrics["unattributed_s"]
    return metrics, layers


def queue_waits(spans, submitted: dict[int, float]) -> list[float]:
    """Submit-returned -> worker-entered-``execute_request`` waits.

    ``submitted`` maps the id of each submitted request object to the
    ``perf_counter`` time its ``submit`` call returned.
    """
    waits = []
    for span in spans:
        key = span.info.get("request")
        if span.name == "api.execute_request" and key in submitted:
            waits.append(max(0.0, span.start - submitted[key]))
    return waits


def spmd_spans(spans) -> list[float]:
    """Inclusive durations of the ``parallel.spmd_run`` spans, in order."""
    return [s.duration for s in spans if s.name == "parallel.spmd_run"]


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
