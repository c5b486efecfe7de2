"""The analysis step of ``tools/reachability.py``: given the code objects a
drive entered, it lists exactly the functions that were not entered."""

import importlib.util
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"

SOURCE = textwrap.dedent(
    '''
    import functools


    def called():
        def inner_called():
            return 1

        def inner_skipped():
            return 2

        return inner_called()


    def skipped():
        return 0


    class Thing:
        def method(self):
            return 3

        @property
        def prop(self):
            return 4

        @staticmethod
        @functools.lru_cache(maxsize=None)
        def decorated_skipped():
            return 5
    '''
)


def load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


def test_lists_exactly_the_functions_not_entered(tmp_path):
    tool = load_tool()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    path = package / "mod.py"
    path.write_text(SOURCE)

    namespace = {}
    exec(compile(SOURCE, str(path), "exec"), namespace)
    entered = set()

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == str(path):
            entered.add(frame.f_code)

    sys.setprofile(tracer)
    try:
        namespace["called"]()
        thing = namespace["Thing"]()
        thing.method()
        thing.prop
    finally:
        sys.setprofile(None)

    functions = tool.find_functions(tmp_path)
    assert {f.qualname for f in functions} == {
        "called",
        "called.<locals>.inner_called",
        "called.<locals>.inner_skipped",
        "skipped",
        "Thing.method",
        "Thing.prop",
        "Thing.decorated_skipped",
    }
    assert {f.module for f in functions} == {"pkg.mod"}

    missed = tool.never_entered(functions, entered)
    assert [f.qualname for f in missed] == [
        "called.<locals>.inner_skipped",
        "skipped",
        "Thing.decorated_skipped",
    ]
    assert tool.line_total(missed) == 2 + 2 + 2


def test_nested_lines_are_counted_once(tmp_path):
    tool = load_tool()
    (tmp_path / "mod.py").write_text(SOURCE)
    functions = tool.find_functions(tmp_path)
    outer = [f for f in functions if f.qualname == "called"]
    everything_in_called = [f for f in functions if f.qualname.startswith("called")]
    assert tool.line_total(everything_in_called) == tool.line_total(outer) == 8
