"""SpMV kernels, in tiers, plus a registry keyed by (format, tier)."""
