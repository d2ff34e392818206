"""Benchmark harness: trial runners, reporting, the bench registry."""

from .runners import (
    run_family_trials,
    run_scheme_trials,
    run_trials,
    summarize_trials,
)
from .reporting import (
    format_table,
    load_results,
    markdown_table,
    print_table,
    save_markdown,
    save_results,
)

__all__ = [
    "run_trials",
    "run_family_trials",
    "run_scheme_trials",
    "summarize_trials",
    "format_table",
    "markdown_table",
    "print_table",
    "save_results",
    "save_markdown",
    "load_results",
]
