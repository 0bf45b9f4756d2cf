"""The repository benchmark: campaign workloads from plan to durable store.

Run with ``python -m benchmarks.perf`` from the repository root; see
``benchmarks/perf/README.md``.
"""
