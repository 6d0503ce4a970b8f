"""Every function the traced benchmark run wraps must still exist.

``benchmarks/e2e/e2e_trace.py`` names its targets by module and qualified
name and patches them only inside the traced run, so a renamed or moved
function would break that run and nothing else. This reads the list from
the file (without importing the tracer) and resolves every entry the way
its ``install`` does: a method must be defined on the named class itself,
not inherited, because the tracer swaps it in the class ``__dict__``.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "e2e_trace.py"


def _targets() -> list[tuple]:
    for node in ast.parse(TRACE.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TARGETS"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS tuple in {TRACE}")


TARGETS = _targets()


def test_targets_listed():
    assert len(TARGETS) > 40
    assert len({(m, q) for m, q, *_ in TARGETS}) == len(TARGETS)


@pytest.mark.parametrize("module,qualname,layer,kind", TARGETS,
                         ids=[f"{m}.{q}" for m, q, *_ in TARGETS])
def test_target_resolves(module, qualname, layer, kind):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = vars(owner).get(attr) if path else getattr(owner, attr, None)
    assert fn is not None, f"{module}.{qualname} is gone"
    assert callable(fn)
