"""Experiment harness: one module per table/figure of the paper.

Every experiment module exposes the same surface:

* ``run(...) -> list[Row]`` — regenerate the experiment's data (rows are
  frozen dataclasses),
* ``format_table(rows) -> str`` — the paper-style table/series printout,
* ``PAPER_REFERENCE`` — the anchor values reported in the paper, used by
  the paper-claims tests and the EXPERIMENTS.md generator.

Use :mod:`repro.experiments.registry` to enumerate them and
``python -m repro.experiments.runner`` (or the ``repro-hbm`` console
script) to run them from the command line.
"""

from importlib import import_module
from typing import Any

__all__ = ["EXPERIMENTS", "ExperimentSpec", "get_experiment"]


def __getattr__(name: str) -> Any:
    # The registry imports every experiment module; load it on first use
    # (PEP 562), so importing one experiment loads only what it needs.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(".registry", __name__), name)
    globals()[name] = value
    return value
