"""Benchmark suites regenerating the paper's tables and figures."""
