"""The repository's benchmark: four workloads timed from outside ``src/``.

``python -m bench run --workload NAME --seed S`` runs one workload (or
``all``) in fresh processes and prints its end-to-end metrics;
``--trace 1`` adds a traced run for the per-layer metrics, and
``python -m bench compare`` judges two commits' results. See
``bench/README.md`` and ``BENCHMARK.json``.
"""
