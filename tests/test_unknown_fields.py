"""Field and static accesses that name a missing field.

Neither interpreter resolves a field's definition per access: GETFIELD
and PUTFIELD go straight to ``VMObject.get/put``, GETSTATIC and
PUTSTATIC to the statics table.  A missing field therefore raises the
heap's ``LinkError`` on both tiers and in both modes, and the predecode
tier spends no inline-cache cell on field or static sites: a loop of
them fuses into generated code that names no ``C`` cell.
"""

from __future__ import annotations

import pytest

from conftest import build_class, make_vm
from repro.errors import LinkError
from repro.vm.assembler import Asm


def _missing_get_field(a: Asm) -> None:
    a.getstatic("U", "obj").getfield("nope").pop()


def _missing_put_field(a: Asm) -> None:
    a.getstatic("U", "obj").const(1).putfield("nope")


def _missing_get_static(a: Asm) -> None:
    a.getstatic("U", "nope").pop()


def _missing_put_static(a: Asm) -> None:
    a.const(1).putstatic("U", "nope")


ACCESSES = {
    "getfield": (_missing_get_field, "U has no instance field 'nope'"),
    "putfield": (_missing_put_field, "U has no instance field 'nope'"),
    "getstatic": (_missing_get_static, "no static field U.nope"),
    "putstatic": (_missing_put_static, "no static field U.nope"),
}


def _run(access: str, mode: str, interp: str):
    """Run a loop whose body reads ``U.n``, bumps it and makes the
    missing access, under a lock (so rollback mode adds barriers).
    Returns the VM and the exception ``vm.run()`` raised."""
    emit, _ = ACCESSES[access]
    a = Asm("main", argc=0)
    a.getstatic("U", "obj")
    with a.sync():
        i = a.local()
        a.for_range(i, lambda: a.const(3), lambda: (
            a.getstatic("U", "n").const(1).add().putstatic("U", "n"),
            emit(a),
        ))
    a.ret()
    vm = make_vm(mode, interp=interp)
    vm.load(build_class("U", ["obj:ref", "n:int"], [a]))
    vm.set_static("U", "obj", vm.new_object("U"))
    vm.spawn("U", "main", name="main")
    with pytest.raises(Exception) as info:
        vm.run()
    return vm, info.value


@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
@pytest.mark.parametrize("access", sorted(ACCESSES))
def test_missing_field_raises_the_heaps_link_error(access, mode):
    """Same error on both tiers, raised after the same barrier work: the
    loop's logged store to ``U.n`` precedes the failing access."""
    raised = {}
    for interp in ("reference", "fast"):
        vm, exc = _run(access, mode, interp)
        raised[interp] = (type(exc), str(exc), vm.metrics()["support"])
    assert raised["fast"] == raised["reference"]
    assert raised["fast"][:2] == (LinkError, ACCESSES[access][1])


@pytest.mark.parametrize("mode", ("unmodified", "rollback"))
@pytest.mark.parametrize("access", sorted(ACCESSES))
def test_fused_field_and_static_sites_take_no_cache_cell(access, mode):
    vm, _ = _run(access, mode, "fast")
    method = vm.classes["U"].method("main")
    image = vm.image
    template = image.templates.get(image.index[id(method)])
    assert template is not None, "main never reached the predecode tier"
    assert any(sb is not None for sb in template.superblocks)
    parts = template.blocks + template.superblocks
    module = "\n".join(p.source for p in parts if p is not None)
    assert "C[" not in module
