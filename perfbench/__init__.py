"""Seeded end-to-end and per-layer benchmark for the evcharge CLI.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
