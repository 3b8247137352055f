"""Sharded storage for encoded matrices (in-memory, shm, out-of-core).

See :mod:`repro.storage.shard` for the store, :mod:`repro.storage.
provider` for the buffer backends, :mod:`repro.storage.stream` for
checkpointed out-of-core SpMV.
"""
