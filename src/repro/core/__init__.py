"""Core abstractions: the access-method interface and RUM accounting.

``interfaces``
    The :class:`AccessMethod` abstract base class every structure in
    :mod:`repro.methods` implements.
``rum``
    The paper's Section-2 overhead definitions: read / write / space
    amplification, measured against device counters.
``space``
    Geometry of the RUM design space: projection of an (RO, UO, MO)
    profile onto the paper's triangle (Figures 1 and 3).
``registry``
    Name -> factory registry over every implemented access method.
``wizard``
    The Section-5 "access method wizard": rank methods for a workload.
``tuner``
    The Section-5 tunable access method and its dynamic auto-tuner.
"""

from repro.core.interfaces import AccessMethod, Capabilities, MethodStats
from repro.core.registry import available_methods, create_method, register_method
from repro.core.rum import RUMAccumulator, RUMProfile, measure_workload
from repro.core.space import (
    CORNER_READ,
    CORNER_SPACE,
    CORNER_WRITE,
    RUMPoint,
    project,
)

__all__ = [
    "AccessMethod",
    "Capabilities",
    "CORNER_READ",
    "CORNER_SPACE",
    "CORNER_WRITE",
    "MethodStats",
    "RUMAccumulator",
    "RUMPoint",
    "RUMProfile",
    "available_methods",
    "create_method",
    "measure_workload",
    "project",
    "register_method",
]
