"""Machine model: topology, caches, bandwidth domains, cost model, engine.

This package is the substitution for the paper's 2x Clovertown testbed
(see DESIGN.md section 3): it predicts SpMV execution time for a given
(matrix, format, thread placement) from the format's exact byte layout,
a calibrated per-format instruction cost model, and a fluid
bandwidth-contention solver over the machine's bandwidth domains.
"""
