"""Shared benchmark helpers.

Figure benchmarks run whole experiment sweeps, so each is executed once per
session by default (``rounds=1``) — the numbers of interest are the
*simulated* metrics printed in the tables, not the harness wall time. Set
``REPRO_FULL=1`` for paper-density sweeps.

``REPRO_BENCH_ROUNDS`` opts into real wall-clock statistics: it raises the
pytest-benchmark round count so ad-hoc investigations that *do* care about
wall time get variance instead of a single sample, without slowing the
figure sweeps for everyone else.
"""

from __future__ import annotations

import os


def bench_rounds(default: int = 1) -> int:
    """Rounds per benchmark: ``REPRO_BENCH_ROUNDS``, floored at ``default``
    (a non-integer value counts as unset)."""
    try:
        rounds = int(os.environ.get("REPRO_BENCH_ROUNDS", "0"))
    except ValueError:
        rounds = 0
    return max(default, rounds)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` under pytest-benchmark and return its result.

    Exactly once unless ``REPRO_BENCH_ROUNDS`` asks for more rounds.
    """
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=bench_rounds(), iterations=1
    )
