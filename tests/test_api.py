import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import viscodg

ROOT = Path(__file__).resolve().parent.parent

# the two public entry points whose positional signatures the benchmark
# calls; each checks that its space is the system's own
_SPACE_AND_SYSTEM = {"viscodg.stepper.run", "viscodg.errors.error_norms"}


def _functions():
    """Every function and method defined in a module of the package, by qualified name."""
    for info in pkgutil.iter_modules(viscodg.__path__):
        module = importlib.import_module(f"viscodg.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{obj.__qualname__}", obj
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    func = getattr(member, "__func__", member)  # classmethod, staticmethod
                    if inspect.isfunction(func):
                        yield f"{module.__name__}.{func.__qualname__}", func


def test_only_run_and_error_norms_take_a_space_beside_a_system():
    # an assembled system owns its space: every other consumer reads it from
    # there, so a space and a system passed side by side cannot disagree
    functions = dict(_functions())
    assert len(functions) > 50
    both = {
        name
        for name, func in functions.items()
        if {"space", "system"} <= set(inspect.signature(func).parameters)
    }
    assert both == _SPACE_AND_SYSTEM


def test_every_public_function_has_a_caller_outside_the_tests():
    # a public name that only the tests use belongs in the tests: every one
    # must appear as a word in the package or the benchmark beyond its def
    sources = [*(ROOT / "src" / "viscodg").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    text = "\n".join(p.read_text() for p in sources if p.name != "test_perfbench.py")
    unused = []
    for name, _ in _functions():
        short = name.rsplit(".", 1)[1]
        if short.startswith("_"):
            continue
        rest = re.sub(rf"\bdef {short}\b", "", text)
        if not re.search(rf"\b{short}\b", rest):
            unused.append(name)
    assert unused == []
