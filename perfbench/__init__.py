"""The repository benchmark: four workloads over the public engine API.

Entry point: ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
