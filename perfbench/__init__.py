"""The repository benchmark: four workloads over the T2FSNN engine and its
serving stack, measured end to end and, in a separate traced run, layer by
layer.  ``BENCHMARK.json`` at the repository root declares the workloads
and metrics; ``perfbench/run.py`` runs one workload (see its docstring).
"""
