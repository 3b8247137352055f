"""Compression substrates: delta/unit encoding (CSR-DU) and value indexing (CSR-VI)."""
