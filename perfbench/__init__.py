"""Benchmark of the repro simulator: workloads, tracing and output checks.

Run it with ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
