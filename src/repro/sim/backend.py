"""Simulation backend selection: the scalar engine vs the vectorized kernels.

Two backends can score a predictor spec over a packed trace:

* ``scalar`` — the authoritative pure-Python engine
  (:func:`repro.sim.engine.simulate`), always
  available, the reference for every correctness claim in the repo.
* ``vector`` — the columnar kernels in :mod:`repro.sim.kernels`, which
  score whole predictor families with NumPy batch operations.  NumPy is an
  *optional* dependency: the kernels are only offered when it imports.

``auto`` (the default everywhere) resolves to ``vector`` when NumPy is
installed and to ``scalar`` otherwise, so the fast path is picked up
automatically without changing any result — the kernels are bit-exact
against the scalar engine for every spec the registry can parse.

The process-wide default can be forced with the ``REPRO_BACKEND``
environment variable (same three values); the CLI's ``--backend`` flag
overrides per invocation.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.errors import ConfigError

#: accepted ``--backend`` / ``REPRO_BACKEND`` values.
BACKEND_CHOICES = ("auto", "scalar", "vector")

_NUMPY: Any = None
_NUMPY_CHECKED = False


def numpy_or_none() -> Any:
    """The :mod:`numpy` module if importable, else ``None`` (cached)."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        _NUMPY_CHECKED = True
        try:
            import numpy  # noqa: PLC0415 - optional dependency probe

            _NUMPY = numpy
        except ImportError:
            _NUMPY = None
    return _NUMPY


def has_numpy() -> bool:
    """Whether the optional NumPy dependency is available."""
    return numpy_or_none() is not None


def validate_env_backend() -> Optional[str]:
    """Fail fast on an invalid ``REPRO_BACKEND`` value.

    Returns the normalised value (or ``None`` when unset/empty); raises
    :class:`~repro.errors.ConfigError` naming :data:`BACKEND_CHOICES` for
    anything else.  The CLI calls this at startup so a typo'd environment
    cannot silently fall back to ``auto`` or surface mid-sweep.
    """
    raw = os.environ.get("REPRO_BACKEND")
    if raw is None:
        return None
    value = raw.strip().lower()
    if not value:
        return None
    if value not in BACKEND_CHOICES:
        raise ConfigError(
            f"invalid REPRO_BACKEND value {raw!r}; expected one of {BACKEND_CHOICES}"
        )
    return value


def default_backend() -> str:
    """The process default: ``REPRO_BACKEND`` when set, else ``auto``.

    An invalid ``REPRO_BACKEND`` raises :class:`~repro.errors.ConfigError`
    (see :func:`validate_env_backend`) rather than silently degrading.
    """
    return validate_env_backend() or "auto"


def resolve_backend(choice: Optional[str] = None) -> str:
    """Resolve a backend request to a concrete ``scalar`` / ``vector``.

    ``None`` means "use the process default" (:func:`default_backend`).
    ``auto`` picks ``vector`` exactly when NumPy is importable.  An explicit
    ``vector`` without NumPy raises :class:`~repro.errors.ConfigError` —
    the user asked for something the environment cannot provide — whereas
    ``auto`` silently degrades.
    """
    if choice is None:
        choice = default_backend()
    choice = choice.strip().lower()
    if choice not in BACKEND_CHOICES:
        raise ConfigError(
            f"unknown backend {choice!r}; expected one of {BACKEND_CHOICES}"
        )
    if choice == "auto":
        return "vector" if has_numpy() else "scalar"
    if choice == "vector" and not has_numpy():
        raise ConfigError(
            "backend 'vector' requires NumPy, which is not installed"
            " (use 'auto' to fall back to the scalar engine automatically)"
        )
    return choice
