"""Wall-clock ledger benchmark for the harness, the serving tier and the sweep engine.

Everything here measures ``repro`` *from outside*, by timing calls into
its public functions; nothing under ``src/`` knows this package exists.
``BENCHMARK.json`` at the repository root is the contract (workloads,
metric names, units, bounds); ``run.py`` runs one workload in one
process and prints the contract's result line; ``python -m
benchmarks.perf run|compare`` drives the whole set and compares two
recorded sets.  See ``README.md`` in this directory.
"""
