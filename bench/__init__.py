"""The study benchmark: four fixed studies measured end to end and by layer.

Run ``python -m bench run`` from the repository root; see
``bench/README.md`` for the workloads, metrics and how to compare two
commits.
"""
