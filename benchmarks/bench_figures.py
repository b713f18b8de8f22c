"""Figs. 3–10 — every figure of the paper's evaluation (Section III).

``all_figures`` builds one run per scenario (a 300-epoch random-query
comparison, a 400-epoch flash-crowd comparison, a 500-epoch RFH failure
run) and each figure reads the runs it needs.  Each figure's test
prints the values the paper reports and asserts the figure's shape
checks: the paper's claims, listed in its harness's docstring in
:mod:`repro.experiments.figures` and in EXPERIMENTS.md.
"""

import pytest

from repro.experiments.figures import FIGURES, all_figures
from repro.experiments.report import render_report

from conftest import run_once


@pytest.fixture(scope="module")
def figures(paper_config):
    return all_figures(paper_config)


def test_all_figures(benchmark, paper_config, figures):
    """Times one regeneration, which must repeat the fixture's report."""
    timed = run_once(benchmark, all_figures, paper_config)
    assert render_report(timed) == render_report(figures)


def report(result) -> None:
    """Print a figure result the way the paper tabulates it."""
    print(f"\n=== {result.figure} ===")
    for name, value in result.notes.items():
        print(f"  {name}: {value:.3f}")
    for name, ok in result.checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")


@pytest.mark.parametrize("name", FIGURES)
def test_figure(benchmark, figures, name):
    # Requesting ``benchmark`` keeps the shape checks under
    # ``--benchmark-only``; the runs are shared, so it times the report.
    result = figures[name]
    run_once(benchmark, report, result)
    failed = result.failed_checks()
    assert not failed, f"{name} shape checks failed: {failed}"
