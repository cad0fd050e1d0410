#!/usr/bin/env python
"""Generate ``docs/API.md`` from the live public surface of the package.

The reference covers the serving layer, the benchmark harness and the
query-time scorer — the modules an *operator* of the search service touches
(see ``docs/SERVING_OPS.md``).  Docstrings are the single source of truth:
this script imports the modules and renders what ``inspect`` sees, so the
generated file can never drift from the code silently — CI regenerates it
and fails on a diff (``--check``).

Usage::

    PYTHONPATH=src python tools/gen_api_docs.py           # rewrite docs/API.md
    PYTHONPATH=src python tools/gen_api_docs.py --check   # exit 1 when stale

Determinism: module members are emitted in ``__all__`` order (falling back
to alphabetical), class members alphabetically; no timestamps or
environment-dependent text are written.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: The documented public surface, in presentation order.
TARGET_MODULES = (
    "repro.serving",
    "repro.serving.service",
    "repro.serving.workers",
    "repro.serving.persistence",
    "repro.nn.serialization",
    "repro.serving.sharding",
    "repro.serving.http",
    "repro.serving.http.server",
    "repro.serving.http.protocol",
    "repro.fcm.scorer",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.obs.log",
    "repro.obs.profiling",
    "repro.bench",
)

#: Modules whose entry is a short index (their members are re-exports
#: documented under the defining module, or far too many to inline).
SUMMARY_ONLY = {"repro.serving", "repro.serving.http", "repro.obs", "repro.bench"}

OUTPUT = REPO_ROOT / "docs" / "API.md"

HEADER = """\
# API reference

<!-- Auto-generated by tools/gen_api_docs.py - do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_api_docs.py -->

The public surface of the serving layer (`repro.serving`), the model
checkpoint format it restarts with (`repro.nn.serialization`), its HTTP
front-end (`repro.serving.http`), the query-time scorer
(`repro.fcm.scorer`), the observability subsystem (`repro.obs`) and the
benchmark harness (`repro.bench`), rendered from the live docstrings.
Operator-facing guidance lives in [SERVING_OPS.md](SERVING_OPS.md); the
layer diagram in [ARCHITECTURE.md](ARCHITECTURE.md).
"""


def _docstring(obj) -> str:
    doc = inspect.getdoc(obj)
    return doc.strip() if doc else "*(undocumented)*"


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _public_module_names(module) -> List[str]:
    names = getattr(module, "__all__", None)
    if names is not None:
        return list(names)
    members = []
    for name, obj in inspect.getmembers(module):
        if name.startswith("_"):
            continue
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and getattr(
            obj, "__module__", None
        ) == module.__name__:
            members.append(name)
    return sorted(members)


def _class_members(cls) -> Iterable[Tuple[str, str, object]]:
    """(kind, name, obj) for the public API defined *on this class*."""
    for name, obj in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(obj, (staticmethod, classmethod)):
            yield "method", name, obj.__func__
        elif inspect.isfunction(obj):
            yield "method", name, obj
        elif isinstance(obj, property):
            yield "property", name, obj


def _render_class(name: str, cls, lines: List[str]) -> None:
    lines.append(f"### class `{name}`")
    lines.append("")
    if dataclasses.is_dataclass(cls):
        fields = ", ".join(f.name for f in dataclasses.fields(cls))
        lines.append(f"*Dataclass* — fields: `{fields}`.")
        lines.append("")
    else:
        lines.append(f"```python\n{name}{_signature(cls)}\n```")
        lines.append("")
    lines.append(_docstring(cls))
    lines.append("")
    for kind, member_name, obj in _class_members(cls):
        if kind == "property":
            lines.append(f"#### `{name}.{member_name}` *(property)*")
            lines.append("")
            lines.append(_docstring(obj))
        else:
            lines.append(f"#### `{name}.{member_name}{_signature(obj)}`")
            lines.append("")
            lines.append(_docstring(obj))
        lines.append("")


def _render_function(qualname: str, func, lines: List[str]) -> None:
    lines.append(f"### `{qualname}{_signature(func)}`")
    lines.append("")
    lines.append(_docstring(func))
    lines.append("")


def _render_module(module_name: str, lines: List[str]) -> None:
    module = importlib.import_module(module_name)
    lines.append(f"## `{module_name}`")
    lines.append("")
    lines.append(_docstring(module))
    lines.append("")
    names = _public_module_names(module)
    if module_name in SUMMARY_ONLY:
        lines.append("Public names (see the defining modules below):")
        lines.append("")
        for name in names:
            obj = getattr(module, name)
            defined_in = getattr(obj, "__module__", module_name)
            kind = "class" if inspect.isclass(obj) else (
                "function" if callable(obj) else "constant"
            )
            lines.append(f"- `{name}` — {kind} from `{defined_in}`")
        lines.append("")
        return
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        # Document each object under its defining module only.
        if getattr(obj, "__module__", module_name) != module_name:
            continue
        if inspect.isclass(obj):
            _render_class(name, obj, lines)
        elif inspect.isfunction(obj):
            _render_function(name, obj, lines)
        else:
            lines.append(f"### `{name}`")
            lines.append("")
            lines.append(f"Constant: `{name} = {obj!r}`")
            lines.append("")


def generate() -> str:
    lines: List[str] = [HEADER]
    for module_name in TARGET_MODULES:
        _render_module(module_name, lines)
    text = "\n".join(lines)
    while "\n\n\n" in text:
        text = text.replace("\n\n\n", "\n\n")
    return text.rstrip() + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when docs/API.md is stale instead of rewriting it",
    )
    args = parser.parse_args()
    text = generate()
    if args.check:
        current = OUTPUT.read_text() if OUTPUT.exists() else ""
        if current != text:
            sys.stderr.write(
                "docs/API.md is stale - regenerate with "
                "`PYTHONPATH=src python tools/gen_api_docs.py`\n"
            )
            return 1
        print("docs/API.md is up to date")
        return 0
    OUTPUT.write_text(text)
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
