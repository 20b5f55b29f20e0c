"""The repository benchmark: four workloads, measured end to end and per layer.

Run it with ``python3 perf/run.py``; see ``perf/README.md``. The package
measures the program only from outside, through its public entry points.
"""
