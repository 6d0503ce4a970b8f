"""Protocol code talks to its substrate through the public surface only.

The same protocol classes run on the simulator, the sharded simulator and
the live runtime (``Simulator`` / ``LiveEnv``, docs/runtime.md). Engine
internals — fusion state, lookahead, shard windows — and a branch on
which substrate is underneath belong to the substrate (``sim.compute``
prices and fuses quanta there), never to ``core/``, the baselines, the
overlays or ``sim/process.py``, the process base they all inherit. This
test walks their AST and fails on any ``….sim._name``
read (attribute or ``getattr``) and any ``sim.live``.
"""

import ast
import pathlib

import repro

PROTOCOL_PACKAGES = ("core", "baselines", "overlay")
#: the base every protocol process inherits its timers and sends from
PROTOCOL_MODULES = ("sim/process.py",)


def _is_sim(node: ast.AST) -> bool:
    """``sim`` or ``<anything>.sim``."""
    return ((isinstance(node, ast.Name) and node.id == "sim")
            or (isinstance(node, ast.Attribute) and node.attr == "sim"))


def _forbidden(name: str) -> bool:
    return name.startswith("_") or name == "live"


def substrate_leaks(source: str, filename: str = "<src>") -> list[str]:
    """``file:line: expr`` for every forbidden substrate read in ``source``."""
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if (isinstance(node, ast.Attribute) and _is_sim(node.value)
                and _forbidden(node.attr)):
            out.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) >= 2 and _is_sim(node.args[0])
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)
              and _forbidden(node.args[1].value)):
            out.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
    return sorted(out)


def test_detector_flags_each_form():
    bad = ("self.sim._fuse_active", "sim._min_net_delay", "self.sim.live",
           "getattr(self.sim, '_window_end', None)")
    for expr in bad:
        assert substrate_leaks(expr), expr
    ok = ("self.sim.now", "self.sim.compute(self)", "sim.queue.push",
          "self._sim_private", "other._fuse_active")
    for expr in ok:
        assert not substrate_leaks(expr), expr


def test_protocol_code_reads_no_substrate_internals():
    root = pathlib.Path(repro.__file__).parent
    leaks = []
    files = 0
    paths = [path for pkg in PROTOCOL_PACKAGES
             for path in sorted((root / pkg).rglob("*.py"))]
    paths += [root / name for name in PROTOCOL_MODULES]
    for path in paths:
        files += 1
        leaks += substrate_leaks(path.read_text(),
                                 str(path.relative_to(root)))
    assert files > 10
    assert not leaks, "\n".join(leaks)
