"""Benchmark registry: name -> spec builder."""

from __future__ import annotations

from typing import Any, Callable

from repro.core.spec import ApplicationSpec
from repro.errors import InputError

APP_BUILDERS: dict[str, Callable[..., ApplicationSpec]] = {}


def register(name: str) -> Callable:
    def decorator(builder: Callable[..., ApplicationSpec]) -> Callable:
        APP_BUILDERS[name] = builder
        return builder
    return decorator


def app_builder(name: str) -> Callable[..., ApplicationSpec]:
    """The builder of a registered benchmark (InputError if unknown)."""
    _ensure_registered()
    try:
        return APP_BUILDERS[name]
    except KeyError:
        raise InputError(
            f"unknown benchmark {name!r}; known: {sorted(APP_BUILDERS)}"
        ) from None


def build_app(name: str, *args: Any, **kwargs: Any) -> ApplicationSpec:
    """Instantiate a registered benchmark by its paper name."""
    return app_builder(name)(*args, **kwargs)


def _ensure_registered() -> None:
    """Import the app modules so their builders register (lazy, idempotent)."""
    from repro.apps import (  # noqa: F401
        bfs, cc, coor_sssp, dmr, mst, sparselu, sssp,
    )

    if "SPEC-BFS" not in APP_BUILDERS:
        APP_BUILDERS["SPEC-BFS"] = bfs.spec_bfs
        APP_BUILDERS["COOR-BFS"] = bfs.coor_bfs
        APP_BUILDERS["SPEC-SSSP"] = sssp.spec_sssp
        APP_BUILDERS["SPEC-MST"] = mst.spec_mst
        APP_BUILDERS["SPEC-DMR"] = dmr.spec_dmr
        APP_BUILDERS["COOR-LU"] = sparselu.coor_lu
        # Extension benchmarks (not in the paper's six).
        APP_BUILDERS["SPEC-CC"] = cc.spec_cc
        APP_BUILDERS["COOR-SSSP"] = coor_sssp.coor_sssp
