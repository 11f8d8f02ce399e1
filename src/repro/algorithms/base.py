"""Algorithm base class and registry."""

from __future__ import annotations

import abc
import inspect
from typing import ClassVar, Iterator

from repro.exceptions import AlgorithmError
from repro.transform.dataset import TransformedDataset
from repro.transform.point import Point

__all__ = ["SkylineAlgorithm", "register", "get_algorithm", "available_algorithms"]

_REGISTRY: dict[str, type["SkylineAlgorithm"]] = {}


def register(cls: type["SkylineAlgorithm"]) -> type["SkylineAlgorithm"]:
    """Class decorator adding an algorithm to the registry by its name."""
    if not getattr(cls, "name", None):
        raise AlgorithmError(f"{cls.__name__} has no name")
    key = cls.name.lower()
    if key in _REGISTRY:
        raise AlgorithmError(f"algorithm {key!r} registered twice")
    _REGISTRY[key] = cls
    return cls


def get_algorithm(name: str, **options) -> "SkylineAlgorithm":
    """Instantiate a registered algorithm by name (case-insensitive).

    Raises :class:`~repro.exceptions.AlgorithmError` for an unknown name
    and for ``options`` the algorithm's constructor does not accept.
    """
    cls = _REGISTRY.get(name.lower()) if isinstance(name, str) else None
    if cls is None:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; available: {sorted(_REGISTRY)}"
        )
    try:
        inspect.signature(cls).bind(**options)
    except TypeError as err:
        raise AlgorithmError(f"invalid options for algorithm {name!r}: {err}") from None
    return cls(**options)


def available_algorithms() -> tuple[str, ...]:
    """Registered algorithm names."""
    return tuple(sorted(_REGISTRY))


class SkylineAlgorithm(abc.ABC):
    """Base class: a skyline evaluator over a transformed dataset.

    Subclasses implement :meth:`run` as a generator that yields each
    **definite** skyline point exactly once.  A progressive algorithm
    yields points as soon as they are certain; a blocking one yields the
    whole skyline only after finishing its computation.  The harness
    measures progressiveness purely from the generator's emission
    pattern, so the distinction needs no extra machinery.
    """

    #: Registry key, e.g. ``"sdc+"``.
    name: ClassVar[str] = ""
    #: Whether answers stream out before the computation finishes.
    progressive: ClassVar[bool] = False
    #: Whether the algorithm needs R-tree indexes.
    uses_index: ClassVar[bool] = False

    @abc.abstractmethod
    def run(self, dataset: TransformedDataset) -> Iterator[Point]:
        """Yield the skyline of ``dataset`` (each point exactly once)."""

    def skyline(self, dataset: TransformedDataset) -> list[Point]:
        """Materialise the full skyline (convenience wrapper)."""
        return list(self.run(dataset))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
