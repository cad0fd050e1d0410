"""repro — reproduction of "Dataset Discovery via Line Charts" (ICDE 2025).

The package is organised as one subpackage per subsystem:

* :mod:`repro.nn` — NumPy deep-learning engine (autograd, transformers, Adam);
* :mod:`repro.data` — tables, synthetic Plotly-like corpus, aggregation;
* :mod:`repro.charts` — line-chart rasteriser, tick labels and per-line masks;
* :mod:`repro.vision` — visual element extraction from the rasteriser's masks;
* :mod:`repro.relevance` — ground-truth relevance (DTW + bipartite matching);
* :mod:`repro.fcm` — the FCM model, its DA extension, training and scoring;
* :mod:`repro.baselines` — CML, Qetch*, DE-LN, Opt-LN and the FCM ablations;
* :mod:`repro.index` — interval-tree / LSH / hybrid query processing;
* :mod:`repro.serving` — incremental, sharded, persistent index serving;
* :mod:`repro.bench` — benchmark construction, metrics and per-table runners.

Quickstart::

    from repro.bench import build_benchmark, smoke_scale, train_fcm_methods

    scale = smoke_scale()
    benchmark = build_benchmark(scale.benchmark)
    fcm = train_fcm_methods(benchmark, scale)["FCM"]
    top = fcm.rank(benchmark.queries[0].chart, k=5)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
