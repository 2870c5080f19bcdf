"""Benchmark for attnlab: see perfbench/run.py and BENCHMARK.json."""
