"""Parallelization of SpMV: row partitioning, thread and process executors."""
