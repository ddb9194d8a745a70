"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root.
``perfbench/spec.py`` describes every workload and metric; the layer
wrappers live in ``perfbench/layers.py`` and time the program from the
outside, so nothing under ``src/`` knows it is being measured.
"""
