"""In-memory span tracer installed around a package's functions from outside.

A `Tracer` wraps a fixed list of target functions.  Each wrapper is bound in
*every* module of the package that binds the original function object, so a
module that did `from .balls import certify_compare` calls the wrapper just
like `balls` itself does.  Methods are wrapped on their class.  Spans are kept
in memory (name, start, end, parent, run id, attributes) and written out as
JSON by `dump`; `uninstall` restores every binding it replaced.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time


class Tracer:
    """Spans around calls to `targets`, a list of (module, qualname, annotate).

    `qualname` is a module-level function name or `Class.method`.
    `annotate(args, kwargs, result)` returns a small dict of attributes for the
    span, or None; it runs after the span's end time is taken.
    """

    def __init__(self, package: str, targets, run_id: str = "0"):
        self.package = package
        self.targets = list(targets)
        self.run_id = run_id
        self.spans: list = []  # [name, start_ns, end_ns, parent_index, run_id, attrs]
        self._stack: list[int] = []
        self._replaced: list = []  # (namespace, attribute, original)

    # -- installation --------------------------------------------------------

    def _package_modules(self) -> list:
        root = importlib.import_module(self.package)
        for info in pkgutil.walk_packages(root.__path__, self.package + "."):
            importlib.import_module(info.name)
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None
                and (name == self.package or name.startswith(self.package + "."))]

    def install(self) -> int:
        """Wrap every target in every binding; returns the bindings replaced."""
        if self._replaced:
            raise RuntimeError("tracer already installed")
        modules = self._package_modules()
        for module_name, qualname, annotate in self.targets:
            module = sys.modules[module_name]
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._bind(owner, attr, original, self._wrap(qualname, module_name, original, annotate))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(qualname, module_name, original, annotate)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, name, original, wrapper)
        return len(self._replaced)

    def _bind(self, namespace, attr, original, wrapper) -> None:
        setattr(namespace, attr, wrapper)
        self._replaced.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._replaced):
            setattr(namespace, attr, original)
        self._replaced.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording -----------------------------------------------------------

    def _wrap(self, qualname, module_name, fn, annotate):
        name = f"{module_name.rpartition('.')[2]}.{qualname}"
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def load_spans(path: str) -> list:
    with open(path) as fh:
        return json.load(fh)["spans"]


def self_and_total(spans) -> tuple[list[int], list[int]]:
    """Per-span (self_ns, total_ns).

    Self time is the span's duration minus the part its child spans cover.
    Spans come from one thread, so children of one parent never overlap and
    their covered length is the sum of their durations.
    """
    total = [span[2] - span[1] for span in spans]
    covered = [0] * len(spans)
    for i, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            covered[parent] += total[i]
    return [t - c for t, c in zip(total, covered)], total
