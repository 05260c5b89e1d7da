"""Benchmark package marker: makes ``python -m benchmarks.dtxbench`` importable."""
