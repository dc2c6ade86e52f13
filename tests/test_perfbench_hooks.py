"""The benchmark tracer's hook targets still exist in the package.

``perfbench/tracing.py`` wraps package functions by name, and a target
that no longer resolves turns its per-layer metrics absent. A change that
removes a hooked name must list it here, which states that its metric
goes absent. The module is read and executed, never imported from disk,
so nothing is written under ``perfbench/``.
"""
import os
import sys
import types

# hook targets that no longer resolve, each one's metric reported absent
EXPECTED_ABSENT: set[str] = set()


def load_tracing(monkeypatch):
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "tracing.py")
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = path
    # dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source, path, "exec"), module.__dict__)
    return module


def test_every_hook_target_resolves_except_the_listed_ones(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = {hook.target for hook in tracing.HOOKS}
    absent = set()
    for target in targets:
        try:
            tracing.resolve(target)
        except (ImportError, AttributeError):
            absent.add(target)
    assert absent == EXPECTED_ABSENT
    assert EXPECTED_ABSENT <= targets  # a listed name is still hooked
