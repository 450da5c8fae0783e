"""The kernel's one storage: a Python ``int`` bitset per adjacency row.

Every vertex set in the kernel is a bitmask held as a Python ``int``, whose
``&``/``|``/``bit_count`` run at C speed for any width.  These two functions
only name that storage for environment stamps in benchmark reports.
"""

from __future__ import annotations


def available_backends() -> tuple[str, ...]:
    """The kernel storages this interpreter can compile: only ``int``."""
    return ("int",)


def resolve_backend() -> str:
    """The storage a ``graph.compile()`` uses: always ``int``."""
    return "int"
