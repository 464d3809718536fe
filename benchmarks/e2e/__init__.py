"""Whole-plane benchmark: sample-in -> effector-called, six workloads.

Stand-alone (not pytest-benchmark): ``python3 benchmarks/e2e/run.py``.
See README.md in this directory for the workload and metric glossary.
"""
