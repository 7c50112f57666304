"""The constants the README quotes as "`NAME` = value" match the code."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import g2frames

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER = r"\d+(?:,\d{3})*(?:\.\d+)?(?:e[-+]?\d+)?"
# an optional module prefix, the name, and its value (a number or "pi - number")
QUOTED = re.compile(rf"`((?:\w+\.)*)([A-Z][A-Z0-9_]*)` = (pi - {NUMBER}|{NUMBER})")


def _value(text):
    text = text.replace(",", "")
    return math.pi - float(text[len("pi - "):]) if text.startswith("pi - ") else float(text)


def _module_constants():
    out = {}
    for info in pkgutil.walk_packages(g2frames.__path__, "g2frames."):
        for name, value in vars(importlib.import_module(info.name)).items():
            if name.isupper() and isinstance(value, (int, float)):
                out.setdefault(name, {})[info.name] = value
    return out


def test_readme_constants_match_the_code():
    quoted = QUOTED.findall(README.read_text(encoding="utf-8"))
    names = {name for _, name, _ in quoted}
    assert {"PROBE_CHUNK", "MAX_TERMS", "RIEMANN_CHUNK", "EDGE_MARGIN", "CHART_BOUND", "MAX_PROBES"} <= names
    consts = _module_constants()
    for prefix, name, text in quoted:
        defined = {
            module: value
            for module, value in consts.get(name, {}).items()
            if module.endswith("." + prefix.rstrip(".")) or not prefix
        }
        assert defined, f"README quotes `{prefix}{name}`, which no module defines"
        for module, value in defined.items():
            assert value == _value(text), f"README says `{name}` = {text}; {module}.{name} = {value!r}"
