"""Segmented NumPy primitives underlying the vectorized kernels."""
