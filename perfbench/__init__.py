"""Request-level benchmark for the ``repro`` package.

Run from the repository root::

    python3 perfbench/run.py --workload si8-tddft-cold --seed 1 --seconds 20 --trace 0

See ``perfbench/REFERENCE.md`` for the workloads and every metric.
"""
