"""Spans around the library's public functions, recorded from outside it.

Every public module-level function of the package is wrapped, and the
wrapper is installed at every name that is bound to the function: the
defining module, the package namespace, and each module that imported
it with ``from ... import``. Patching only the defining module would
miss most calls, because ``cli``, ``reflect`` and ``distance`` call
through their own bindings.

A span's self time is its duration minus the durations of the wrapped
calls made inside it. A generator function (``search_strong_dts``) gets
one span per resumption, and its yields are counted as ``families``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from time import perf_counter_ns


class Tracer:
    """Per-function call counts, self time and yields, keyed ``module.function``."""

    def __init__(self, package):
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.families: dict[str, int] = {}
        self._stack: list[int] = []  # child time accumulated by each open span
        self._patched: list[tuple[object, str, object]] = []

    def functions(self) -> dict[str, object]:
        """The public functions, keyed by short module name and function name."""
        found = {}
        for module in self.modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    found[f"{short}.{name}"] = obj
        return found

    def install(self) -> None:
        wrappers = {}
        for key, fn in self.functions().items():
            self.calls[key] = 0
            self.self_ns[key] = 0
            wrappers[id(fn)] = self._wrap(key, fn)
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def reset(self) -> None:
        for key in self.calls:
            self.calls[key] = 0
            self.self_ns[key] = 0
        for key in self.families:
            self.families[key] = 0

    def snapshot(self) -> dict[str, int]:
        """Call and yield counts so far; subtract two to count one command."""
        counts = dict(self.calls)
        counts.update({f"{k}.families": v for k, v in self.families.items()})
        return counts

    def _wrap(self, key: str, fn):
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns

        def close(start: int) -> None:
            elapsed = perf_counter_ns() - start
            self_ns[key] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed

        if inspect.isgeneratorfunction(fn):
            families = self.families
            families.setdefault(key, 0)

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                calls[key] += 1
                stack.append(0)
                start = perf_counter_ns()
                try:
                    inner = fn(*args, **kwargs)
                finally:
                    close(start)
                while True:
                    stack.append(0)
                    start = perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(start)
                    families[key] += 1
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # close() inlined: this runs tens of thousands of times per command
            calls[key] += 1
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self_ns[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper
