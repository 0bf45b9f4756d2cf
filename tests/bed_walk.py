"""A canonical walk over a testbed's object graph.

Restore-completeness tests compare a bed rolled back by a
:class:`~repro.core.checkpoint.TestbedCheckpoint` against a freshly
booted one.  Comparing two object graphs needs a canonical form, which
:func:`walk` provides as a flat list of ``(path, value)`` pairs, so a
failing comparison names the exact attribute that leaked:

* machine frames are represented by their digest (words and attached
  blobs, :func:`~repro.xen.snapshot.machine_digest`);
* the frame table's dirty-tracking bookkeeping (``_generation``,
  ``_dirty``) is skipped: it records which records were handed out
  since a checkpoint, not what the bed is;
* probe buses and callables (functions, bound methods, classes) are
  represented by their name: they are wiring, not state;
* an object reached a second time is represented by the path it was
  first reached through, so aliasing and cycles are part of the form;
* containers keep their order: dict and list order is observable
  state (iteration decides event and log order).

Nothing under ``src/`` calls this: it is the tests' oracle, not a
runtime check.
"""

from __future__ import annotations

import enum
import types
from collections import deque
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.probes.bus import ProbeBus
from repro.xen.frames import FrameTable
from repro.xen.machine import Machine
from repro.xen.snapshot import machine_digest

_ATOMS = (type(None), bool, int, float, complex, str, bytes)
_CALLABLES = (
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
    types.BuiltinMethodType,
    type,
)
#: The frame table's dirty-tracking fields: checkpoint bookkeeping, not bed state.
_BOOKKEEPING = frozenset({"_generation", "_dirty"})


def _callable_name(obj: Any) -> str:
    func = getattr(obj, "__func__", obj)
    return f"{getattr(func, '__module__', '?')}.{func.__qualname__}"


def _fields(obj: Any) -> List[Tuple[str, Any]]:
    """An object's attributes, ``__dict__`` and ``__slots__`` alike."""
    fields = list(getattr(obj, "__dict__", {}).items())
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                fields.append((name, getattr(obj, name)))
    return fields


def walk(root: Any) -> List[Tuple[str, Any]]:
    """The canonical ``(path, value)`` form of everything ``root`` reaches."""
    out: List[Tuple[str, Any]] = []
    seen: Dict[int, str] = {}

    def visit(obj: Any, path: str) -> None:
        if isinstance(obj, _ATOMS):
            out.append((path, obj))
            return
        if isinstance(obj, enum.Enum):
            out.append((path, f"{type(obj).__name__}.{obj.name}"))
            return
        if isinstance(obj, _CALLABLES):
            out.append((path, f"<callable {_callable_name(obj)}>"))
            return
        if isinstance(obj, ProbeBus):
            out.append((path, "<probe-bus>"))
            return
        if isinstance(obj, (tuple, frozenset)):
            # Immutable: identity is not state, so never a back-reference.
            out.append((path, f"<{type(obj).__name__} len={len(obj)}>"))
            items = sorted(obj, key=repr) if isinstance(obj, frozenset) else obj
            for index, item in enumerate(items):
                visit(item, f"{path}[{index}]")
            return
        first = seen.get(id(obj))
        if first is not None:
            out.append((path, f"<ref {first}>"))
            return
        seen[id(obj)] = path
        if isinstance(obj, Machine):
            out.append((f"{path}.<digest>", machine_digest(obj)))
            for name, value in _fields(obj):
                if name not in {"_frames", "_blobs"}:
                    visit(value, f"{path}.{name}")
            return
        if isinstance(obj, np.ndarray):
            out.append((path, f"<ndarray {obj.dtype} {obj.tobytes().hex()}>"))
            return
        if isinstance(obj, dict):
            out.append((path, f"<{type(obj).__name__} len={len(obj)}>"))
            for key, value in obj.items():
                visit(value, f"{path}[{key!r}]")
            return
        if isinstance(obj, (list, deque)):
            maxlen = getattr(obj, "maxlen", None)
            out.append((path, f"<{type(obj).__name__} len={len(obj)} max={maxlen}>"))
            for index, item in enumerate(obj):
                visit(item, f"{path}[{index}]")
            return
        if isinstance(obj, set):
            out.append((path, f"<set len={len(obj)}>"))
            for index, item in enumerate(sorted(obj, key=repr)):
                visit(item, f"{path}{{{index}}}")
            return
        out.append((path, f"<{type(obj).__module__}.{type(obj).__qualname__}>"))
        for name, value in _fields(obj):
            if not (isinstance(obj, FrameTable) and name in _BOOKKEEPING):
                visit(value, f"{path}.{name}")

    visit(root, "bed")
    return out


def differences(got: List[Tuple[str, Any]], want: List[Tuple[str, Any]]) -> List[str]:
    """The paths at which two walks disagree, in walk order."""
    got_map, want_map = dict(got), dict(want)
    lines = []
    for path in dict.fromkeys([p for p, _ in want] + [p for p, _ in got]):
        if got_map.get(path, "<missing>") != want_map.get(path, "<missing>"):
            lines.append(
                f"{path}: {got_map.get(path, '<missing>')!r} "
                f"!= fresh {want_map.get(path, '<missing>')!r}"
            )
    if not lines and got != want:
        lines.append("same paths and values, different order")
    return lines
