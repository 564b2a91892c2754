"""Benchmark of the seqmeas package; see perfbench/README.md."""
