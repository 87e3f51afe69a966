"""Guard against dead knobs: every field of every parameter dataclass must
be read somewhere in the package. A field nothing reads is a setting that
silently does nothing; delete it (or wire it) instead."""

import ast
import dataclasses
import inspect
from pathlib import Path

import repro
from repro.models import params as params_module

SRC = Path(repro.__file__).parent


def attributes_read() -> set:
    """Every ``x.<name>`` attribute name used in ``repro`` outside
    ``params.py``."""
    names = set()
    for path in SRC.rglob("*.py"):
        if path.resolve() == Path(params_module.__file__).resolve():
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute))
    return names


def param_fields():
    for name, cls in inspect.getmembers(params_module, inspect.isclass):
        if cls.__module__ == params_module.__name__ \
                and dataclasses.is_dataclass(cls):
            for f in dataclasses.fields(cls):
                yield f"{name}.{f.name}", f.name


def test_every_params_field_is_read():
    read = attributes_read()
    dead = [qual for qual, name in param_fields() if name not in read]
    assert dead == []
