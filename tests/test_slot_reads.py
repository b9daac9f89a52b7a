"""Guard against write-only state on the VM's hot-path records.

Every ``__slots__`` entry of the monitor, section, section-site and
thread classes must be *read* somewhere under ``src/repro``: as an
attribute load (``x.name`` in a load context; ``x.name += 1`` and
``x.name = v`` are stores) or as ``getattr``/``attrgetter`` with that
name as a literal.  A slot that is only ever written costs a store on the
hot path and shows nothing.

Like ``perfbench/layers.py``'s self-check, :func:`unread_slots` also
reports a listed class that maps to nothing (its module or its
``__slots__`` tuple is gone), so the guard cannot pass by going blind.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: guarded class -> its module, relative to ``src/repro``
GUARDED = {
    "Monitor": "vm/monitors.py",
    "Section": "core/sections.py",
    "SectionSite": "core/sections.py",
    "VMThread": "vm/threads.py",
}

_READERS = ("getattr", "attrgetter")


def _read_names(tree: ast.AST) -> set[str]:
    """Attribute names a module reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Call):
            fn = node.func
            called = fn.id if isinstance(fn, ast.Name) else getattr(
                fn, "attr", None
            )
            if called in _READERS:
                names.update(
                    arg.value for arg in node.args
                    if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                )
    return names


def _slots(tree: ast.AST, class_name: str) -> list[str] | None:
    """The string entries of ``class_name.__slots__``, or None."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == class_name):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets)
                and isinstance(stmt.value, (ast.Tuple, ast.List))
            ):
                return [elt.value for elt in stmt.value.elts
                        if isinstance(elt, ast.Constant)]
    return None


def unread_slots(src_root: Path, guarded: dict[str, str] = GUARDED
                 ) -> list[str]:
    """``Class.slot`` for every guarded slot nothing under
    ``src_root/repro`` reads, plus a line for each guarded class that
    maps to no ``__slots__``."""
    root = src_root / "repro"
    read: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        read |= _read_names(ast.parse(path.read_text(), str(path)))
    problems = []
    for class_name, module in guarded.items():
        path = root / module
        tree = ast.parse(path.read_text()) if path.is_file() else None
        slots = _slots(tree, class_name) if tree else None
        if slots is None:
            problems.append(f"{class_name}: no __slots__ in {module}")
            continue
        problems.extend(
            f"{class_name}.{slot}" for slot in slots if slot not in read
        )
    return problems


def test_every_guarded_slot_is_read():
    assert unread_slots(SRC) == []


def test_guard_fails_on_names_that_map_to_nothing():
    assert unread_slots(SRC, {"Monitor": "vm/nowhere.py",
                              "Nothing": "vm/monitors.py"}) == [
        "Monitor: no __slots__ in vm/nowhere.py",
        "Nothing: no __slots__ in vm/monitors.py",
    ]


def test_guard_sees_a_write_only_slot(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "class C:\n"
        "    __slots__ = ('kept', 'counted', 'probed')\n"
        "    def f(self):\n"
        "        self.counted += 1\n"
        "        return self.kept, getattr(self, 'probed')\n"
        "class D:\n"
        "    __slots__ = ('dead',)\n"
        "    def __init__(self):\n"
        "        self.dead = 0\n"
    )
    assert unread_slots(tmp_path, {"C": "m.py", "D": "m.py"}) == [
        "C.counted", "D.dead",
    ]
