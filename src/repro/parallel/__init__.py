"""Parallelization of SpMV: row partitioning, thread and process executors."""

from repro.parallel.partition import RowPartition, balance_by_nnz, row_partition
from repro.parallel.backends import BACKENDS, STORAGES, make_executor
from repro.parallel.executor import ParallelSpMV
from repro.parallel.process_executor import ProcessParallelSpMV

__all__ = [
    "RowPartition",
    "balance_by_nnz",
    "row_partition",
    "ParallelSpMV",
    "ProcessParallelSpMV",
    "BACKENDS",
    "STORAGES",
    "make_executor",
]
