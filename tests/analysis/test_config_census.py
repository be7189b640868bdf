"""Every config field has a caller that sets it.

``SessionConfig`` holds "everything that varies between experiment runs";
a field nobody outside the wiring ever passes does not vary, and belongs
next to its one reader as a constant.  This walks the repository for the
calls that build a config — ``SessionConfig(...)``, ``MultiClientConfig(...)``,
``dataclasses.replace(...)`` and, file by file, any helper that forwards
``**kwargs`` into one of those (``scenarios._run``) — so the config surface
cannot regrow silently: adding a field without a caller fails here.  A
keyword of the same name on any other call (``lors.place(replicas=...)``)
does not count.

The ray caster's option bundle, ``RenderSettings``, is held to the stricter
rule of the parameter census: a field counts as set only by a call in
``src``, ``perf`` or ``benchmarks`` — one that only tests or examples turn
is a constant of ``raycast.py`` they monkeypatch.
"""

import ast
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

import repro
from repro.render import RenderSettings
from repro.streaming import MultiClientConfig, SessionConfig

REPO = Path(repro.__file__).resolve().parents[2]
CALLER_TREES = ("src", "benchmarks", "perf", "examples", "tests")
#: the trees whose calls set a renderer option
PROGRAM_TREES = ("src", "benchmarks", "perf")
#: where the fields are declared and wired, which is not a use
OWN_WIRING = {"session.py", "multiclient.py", "raycast.py"}
#: ``replace`` under the names the repository imports it as
BUILDERS = {"SessionConfig", "MultiClientConfig", "RenderSettings",
            "replace", "dc_replace"}


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(node):
    return (n for n in ast.walk(node) if isinstance(n, ast.Call))


def config_keywords(module):
    """Keyword names one module passes to a config-building call."""
    builders = set(BUILDERS)
    for func in ast.walk(module):
        if isinstance(func, ast.FunctionDef) and any(
                _callee(call) in BUILDERS
                and any(kw.arg is None for kw in call.keywords)
                for call in _calls(func)):
            builders.add(func.name)
    return {kw.arg for call in _calls(module) if _callee(call) in builders
            for kw in call.keywords if kw.arg is not None}


def _passed(trees):
    """Every keyword name some caller in ``trees`` passes to a config."""
    seen = set()
    for tree in trees:
        for path in sorted((REPO / tree).rglob("*.py")):
            if tree == "src" and path.name in OWN_WIRING:
                continue
            seen |= config_keywords(ast.parse(path.read_text()))
    return seen


@pytest.fixture(scope="module")
def passed():
    return _passed(CALLER_TREES)


def _unset(config_class, passed):
    return sorted(f.name for f in fields(config_class)
                  if f.name not in passed)


def test_every_config_field_is_set_by_some_caller(passed):
    assert _unset(SessionConfig, passed) == []
    assert _unset(MultiClientConfig, passed) == []


def test_every_renderer_option_is_set_outside_tests():
    assert _unset(RenderSettings, _passed(PROGRAM_TREES)) == []


def test_a_field_without_a_caller_is_reported(passed):
    @dataclass
    class Grown(SessionConfig):
        knob_that_no_caller_sets_anywhere: float = 1.0

    assert _unset(Grown, passed) == [
        "knob_that_no_caller_sets_anywhere"]


def test_a_same_named_keyword_on_another_call_does_not_count():
    module = ast.parse(
        "lors.place('f', data, depots, replicas=2)\n"
        "def helper(**kw):\n"
        "    return SessionConfig(case=1, **kw)\n"
        "helper(stripe_width=2)\n"
    )
    assert config_keywords(module) == {"case", "stripe_width"}
