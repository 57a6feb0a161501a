"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run it from the repository root with ``python3 perfbench/run.py --help``;
``perfbench/README.md`` names every workload and metric.  Importing this
package or any of its modules starts nothing and touches no file.
"""
