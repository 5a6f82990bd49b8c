"""Experiment harness: regenerates every table of the paper's evaluation.

``python -m repro table N`` (or the ``npb`` console script) prints the
reproduction of the paper's Table N, in simulated mode (the machine models
of :mod:`repro.machines`, default) or measured mode (real runs of the
NumPy/Python implementations on the local host, ``--measured``).
"""

from repro.harness.report import (Table, bench_record_table, compare_table,
                                  format_table, region_profile_table)
from repro.harness.stats import TimingSummary, summarize, time_callable
from repro.harness.tables import TABLES, generate_table

__all__ = ["Table", "format_table", "region_profile_table",
           "bench_record_table", "compare_table", "TimingSummary",
           "summarize", "time_callable", "TABLES", "generate_table"]
