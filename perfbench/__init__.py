"""The repository's benchmark: three workloads over the low-communication
convolution, end-to-end metrics, and a traced per-layer breakdown.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
