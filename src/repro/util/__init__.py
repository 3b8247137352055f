"""Low-level utilities shared by the rest of the library."""
