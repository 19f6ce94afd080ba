"""Fleet benchmark: end-to-end throughput plus a traced per-layer breakdown.

Run ``python3 perfbench/run.py --workload day --seed 0 --seconds 10
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
