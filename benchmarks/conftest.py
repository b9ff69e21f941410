"""Shared configuration of the paper-reproduction benches.

Every bench is a plain pytest test that regenerates one table, figure or
ablation of the paper, prints its rendered table (the rows a reader compares
against the paper; run with ``-s`` to see them) and asserts the paper's
claims about it. They are heavy (each trains several models), so they are
collected only when named explicitly:

    PYTHONPATH=src python -m pytest benchmarks/bench_fig7.py -q -s

``BENCH_FLOWS_PER_CLASS`` (default 120) sets the dataset scale and
``BENCH_SEED`` (default 0) the seed. Serving performance is measured by
``perf/``, not here.
"""

import os

import pytest

# Dataset scale for the benches: large enough for stable orderings, small
# enough that the whole suite finishes in minutes.
FLOWS_PER_CLASS = int(os.environ.get("BENCH_FLOWS_PER_CLASS", "120"))
SEED = int(os.environ.get("BENCH_SEED", "0"))


@pytest.fixture(scope="session")
def bench_scale():
    return {"flows_per_class": FLOWS_PER_CLASS, "seed": SEED}
