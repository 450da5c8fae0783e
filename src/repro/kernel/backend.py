"""Kernel backend selection: big-int ``int``, word-array ``words``, ``numpy``.

The kernel stores every vertex set as a bitmask.  *Mask values* are Python
``int`` objects in every backend — they are the universal currency every
consumer (search, bounds, reductions, views) already speaks, and big-int
``&``/``bit_count`` are C-speed.  What a backend chooses is the *storage and
bulk-operation substrate* behind the snapshot:

``int``
    The PR 2 representation: one arbitrary-precision ``int`` per adjacency
    row, built bit by bit.  Kept verbatim as the parity oracle.
``words``
    Fixed-width uint64 word arrays: all adjacency rows and per-attribute
    masks live in **one contiguous buffer** (``n + d`` rows of
    ``ceil(n/64)`` words each).  Rows are materialised into ints lazily and
    cached, so per-branch search arithmetic is identical to ``int`` — but
    compiling is O(m) byte-sets instead of O(m·words) big-int ORs, and the
    snapshot pickles as one ``bytes`` blob plus two flat CSR arrays.
    Stdlib-pure.
``numpy``
    The ``words`` layout with the buffer additionally wrapped as a 2-D
    ``uint64`` ndarray: bulk reductions (component BFS row unions,
    per-attribute-value popcounts) run vectorised.  Optional — auto-detected
    at import, never required.

Selection precedence: an explicit ``backend=`` argument beats the
``REPRO_KERNEL_BACKEND`` environment variable, which beats the auto default
(``numpy`` when importable, else ``words``).  Unknown names and a ``numpy``
request without numpy installed fail loudly — a silently substituted backend
would make benchmark numbers lie.
"""

from __future__ import annotations

import os

from repro.exceptions import InvalidParameterError

#: Environment variable overriding the auto-detected default backend.
ENV_VAR = "REPRO_KERNEL_BACKEND"

BACKEND_INT = "int"
BACKEND_WORDS = "words"
BACKEND_NUMPY = "numpy"

_ALL = (BACKEND_INT, BACKEND_WORDS, BACKEND_NUMPY)

_numpy_module = None
_numpy_checked = False


def numpy_module():
    """The imported ``numpy`` module, or ``None`` when unavailable.

    The probe runs once per process; a broken or absent numpy degrades to
    the stdlib ``words`` backend instead of failing the import of the
    kernel package.
    """
    global _numpy_module, _numpy_checked
    if not _numpy_checked:
        _numpy_checked = True
        try:
            import numpy

            # The vectorised popcount landed in numpy 2.0; older numpys
            # would force per-word Python fallbacks that defeat the point.
            if hasattr(numpy, "bitwise_count"):
                _numpy_module = numpy
        except Exception:  # pragma: no cover - import-environment dependent
            _numpy_module = None
    return _numpy_module


def numpy_available() -> bool:
    """True when the ``numpy`` backend can actually run here."""
    return numpy_module() is not None


def available_backends() -> tuple[str, ...]:
    """The backends this interpreter can compile, in preference order."""
    if numpy_available():
        return (BACKEND_INT, BACKEND_WORDS, BACKEND_NUMPY)
    return (BACKEND_INT, BACKEND_WORDS)


def _validate(name: str, source: str) -> str:
    if name not in _ALL:
        raise InvalidParameterError(
            f"unknown kernel backend {name!r} from {source}; "
            f"expected one of {', '.join(_ALL)}"
        )
    if name == BACKEND_NUMPY and not numpy_available():
        raise InvalidParameterError(
            f"kernel backend 'numpy' requested via {source} but numpy is "
            "not importable; install the 'fast' extra "
            "(pip install repro[fast]) or use 'words'"
        )
    return name


def default_backend() -> str:
    """The backend a bare ``graph.compile()`` uses right now.

    ``REPRO_KERNEL_BACKEND`` wins when set (strictly validated, like
    ``REPRO_FAULT_PLAN``); otherwise ``numpy`` when importable, else
    ``words``.
    """
    env = os.environ.get(ENV_VAR)
    if env:
        return _validate(env.strip(), f"{ENV_VAR}={env!r}")
    return BACKEND_NUMPY if numpy_available() else BACKEND_WORDS


def resolve_backend(name: str | None = None) -> str:
    """Resolve an optional explicit backend name against env + auto default."""
    if name is None:
        return default_backend()
    return _validate(name, "an explicit backend argument")
