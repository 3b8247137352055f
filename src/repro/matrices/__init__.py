"""Matrix workloads: synthetic generators, the paper's catalog, I/O, stats."""
