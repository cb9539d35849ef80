"""Analysis tooling: cost models, growth checks and reporting.

``complexity``
    The closed-form I/O cost models of the paper's Table 1, with its
    parameters (N, m, B, P, T, MEM).
``fitting``
    Growth indicators of measured cost curves — how the Table-1 bench
    validates asymptotic shapes.
``triangle``
    ASCII rendering of the RUM triangle with placed access methods
    (Figures 1 and 3).
``tables``
    Fixed-width report tables shared by benchmarks and examples.
"""

from repro.analysis.complexity import Table1Model, TABLE1_MODELS
from repro.analysis.fitting import growth_ratio
from repro.analysis.tables import format_table
from repro.analysis.triangle import render_triangle

__all__ = [
    "TABLE1_MODELS",
    "Table1Model",
    "format_table",
    "growth_ratio",
    "render_triangle",
]
