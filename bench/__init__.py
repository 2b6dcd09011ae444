"""Benchmark for the ``gwcalc`` command.

Run from the repository root::

    python3 -m bench --workload solve --seed 1 --seconds 30 --trace 0

``--trace 0`` times fresh ``gwcalc`` processes end to end; ``--trace 1``
calls the command in-process with spans around each layer's public
functions.  See ``bench/README.md`` for the workloads and metrics.
"""
