"""Saving and loading model parameters as ``.npz`` archives.

A checkpoint holds one flat array per parameter dtype (member name: the
dtype's name, e.g. ``float64``) — every parameter of that dtype raveled and
concatenated in ``named_parameters()`` order — plus the JSON header member
``__checkpoint__``: ``{"metadata": {...}, "parameters": [[name, dtype,
shape], ...]}``.  Reading one is a couple of archive members, not one per
parameter.

The parameters' dtype is recorded in the metadata under the reserved
``dtype`` key, and loading is **load-and-cast**: values are cast to the
receiving module's own parameter dtype, so a float64 checkpoint restores
cleanly into a float32 module (and vice versa).

Files written by older builds (one archive member per parameter, metadata
under ``__metadata__``) are rejected with a ``ValueError`` saying so; there
is no second reader — re-save them from the build that wrote them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from .module import Module

PathLike = Union[str, Path]

#: Reserved metadata key recording the parameters' dtype at save time.
DTYPE_METADATA_KEY = "dtype"

#: Archive member holding the JSON header (metadata + parameter layout).
HEADER_MEMBER = "__checkpoint__"


def _archive_path(path: PathLike) -> Path:
    """``path`` as ``np.savez`` writes it (``.npz`` appended when missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def save_state_dict(
    module: Module,
    path: PathLike,
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Save a module's parameters (and optional JSON metadata) to ``path``.

    The archive stores one flat array per parameter dtype and a
    ``__checkpoint__`` JSON header naming each parameter's dtype and shape,
    in order (see the module docstring).  The parameters' dtype is always
    recorded under the reserved ``"dtype"`` metadata key (caller-supplied
    metadata must not use it).
    """
    meta: Dict[str, object] = dict(metadata or {})
    if DTYPE_METADATA_KEY in meta:
        raise ValueError(
            f"metadata key {DTYPE_METADATA_KEY!r} is reserved for the "
            "checkpoint's parameter dtype"
        )
    module_dtype = module.dtype
    if module_dtype is not None:
        meta[DTYPE_METADATA_KEY] = np.dtype(module_dtype).name
    layout: List[list] = []
    parts: Dict[str, List[np.ndarray]] = {}
    for name, param in module.named_parameters():
        dtype = param.data.dtype.name
        layout.append([name, dtype, list(param.data.shape)])
        parts.setdefault(dtype, []).append(param.data.ravel())
    arrays = {dtype: np.concatenate(flats) for dtype, flats in parts.items()}
    arrays[HEADER_MEMBER] = np.frombuffer(
        json.dumps({"metadata": meta, "parameters": layout}, sort_keys=True).encode(
            "utf-8"
        ),
        dtype=np.uint8,
    )
    path = _archive_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def load_state_dict(
    module: Module,
    path: PathLike,
    strict: bool = True,
) -> Dict[str, object]:
    """Load parameters saved by :func:`save_state_dict` into ``module``.

    Values are cast to the module's own parameter dtype (load-and-cast); the
    checkpoint's recorded dtype is available in the returned metadata under
    ``"dtype"``.  ``strict`` is :meth:`Module.load_state_dict`'s: missing or
    unexpected names raise ``KeyError``, shape mismatches ``ValueError``.
    Returns the metadata dictionary stored alongside the parameters (empty
    if none was stored).  A file in the older per-parameter layout, or one
    whose flat arrays disagree with its header, raises ``ValueError``.
    """
    path = Path(path)
    if not path.exists():
        path = _archive_path(path)
    with np.load(path) as archive:
        if HEADER_MEMBER not in archive.files:
            raise ValueError(
                f"checkpoint {path.name} has no {HEADER_MEMBER!r} header: it is "
                f"in the older one-member-per-parameter layout, which this build "
                f"does not read — re-save it with save_state_dict (from the "
                f"build that wrote it), or retrain"
            )
        header = json.loads(bytes(archive[HEADER_MEMBER]).decode("utf-8"))
        layout = header["parameters"]
        flats = {dtype: archive[dtype] for dtype in {entry[1] for entry in layout}}
    starts: List[int] = []
    ends = dict.fromkeys(flats, 0)
    for _, dtype, shape in layout:
        starts.append(ends[dtype])
        ends[dtype] += math.prod(shape)
    for dtype, flat in flats.items():
        if flat.shape != (ends[dtype],):
            raise ValueError(
                f"checkpoint {path.name} is corrupt: its {dtype} array holds "
                f"{flat.size} values, the header lays out {ends[dtype]}"
            )
    state = {
        name: flats[dtype][start : start + math.prod(shape)].reshape(shape)
        for (name, dtype, shape), start in zip(layout, starts)
    }
    module.load_state_dict(state, strict=strict)
    return header["metadata"]
