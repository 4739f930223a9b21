"""Benchmark of the TUS reproduction: see README.md."""
