"""Benchmark of the lucenenet_ray engine: seeded workloads, checks, traces."""
