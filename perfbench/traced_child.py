"""Run the youngops CLI once with a span around each public function.

Usage (from the repository root, with src on PYTHONPATH):

    python3 perfbench/traced_child.py SPANS_PATH REP_ID -- verify --n 4 ...

stdout and stderr are the CLI's own, so they can be compared with an
untraced run byte for byte.  The spans are written to SPANS_PATH when
the CLI returns.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import types
from typing import Callable

import youngops.cli
from spans import SpanRecorder
from youngops.sn_algebra import AlgebraElement
from youngops.tensor_rep import TensorOperator

LAYERS = ("tableaux", "polynomial", "sn_algebra", "tensor_rep", "verify", "cli")

# Dunder methods traced as public operations.  The others (__init__,
# __hash__, __len__, __bool__, __repr__, ...) are bookkeeping, called
# from inside dict lookups and constructors.
OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                       "__neg__", "__mul__", "__rmul__", "__matmul__",
                       "__truediv__", "__eq__", "__call__"})


def term_pairs(a, b) -> int:
    """Σ|a|·|b| of one algebra product; a scalar factor counts as one term."""
    return len(a.terms) * (len(b.terms) if isinstance(b, AlgebraElement) else 1)


def madds(a, b) -> int:
    """Multiply-adds of one dense dim×dim matrix product, computed as dim³."""
    return a.dim ** 3 if isinstance(b, TensorOperator) else 0


def _counters(recorder: SpanRecorder) -> dict[str, Callable[..., int]]:
    def tableau_id(t, *args):
        return recorder.key_id(t.rows)

    return {
        "sn_algebra.AlgebraElement.__mul__": term_pairs,
        "tensor_rep.TensorOperator.__matmul__": madds,
        "sn_algebra.hermitian_young": tableau_id,
    }


def _public_functions(module: types.ModuleType):
    """(owner, attribute, function) for each public function defined in
    `module` and each public method or operator of its public classes.
    Generators, properties, class- and static methods are left alone."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield module, name, obj
        elif inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if (inspect.isfunction(value)
                        and not inspect.isgeneratorfunction(value)
                        and (attr in OPERATORS or not attr.startswith("_"))):
                    yield obj, attr, value


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap the public functions of every layer; returns the undo.

    A function is replaced on its defining module or class and also
    wherever another youngops module re-binds the same object (the
    `from .x import f` names in youngops.verify, youngops.cli and
    youngops itself), so that cross-module and recursive calls, such as
    hermitian_young calling itself, pass through the wrapper.
    """
    counters = _counters(recorder)
    modules = [importlib.import_module(f"youngops.{layer}") for layer in LAYERS]
    replaced: dict[Callable, Callable] = {}
    undo: list[tuple[object, str, Callable]] = []
    for layer, module in zip(LAYERS, modules):
        for owner, attr, fn in list(_public_functions(module)):
            name = (f"{layer}.{attr}" if owner is module
                    else f"{layer}.{owner.__name__}.{attr}")
            wrapped = recorder.wrap(name, fn, counters.get(name))
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, fn))
            if owner is module:
                replaced[fn] = wrapped
    package = [m for key, m in sys.modules.items()
               if key == "youngops" or key.startswith("youngops.")]
    for module in package:
        for attr, value in list(vars(module).items()):
            wrapped = replaced.get(value) if inspect.isfunction(value) else None
            if wrapped is not None:
                setattr(module, attr, wrapped)
                undo.append((module, attr, value))

    def uninstall() -> None:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return uninstall


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_child.py SPANS_PATH REP_ID -- CLI_ARGS...",
              file=sys.stderr)
        return 2
    spans_path, rep, cli_args = argv[0], int(argv[1]), argv[3:]
    recorder = SpanRecorder(rep)
    install(recorder)
    try:
        return youngops.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
