"""The README's API list is the package's public surface: it names exactly
``meanbounds.__all__``, each under the module that defines it, and the README
calls no function that has left the package."""

import importlib
import re
from pathlib import Path

import meanbounds

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# one-term functions now read as attributes of chain_terms(f, a, b, v)
REMOVED = ("endpoint_average", "midpoint_estimate", "trapezoid_estimate", "convexity_gap",
           "sharp_lower", "sharp_upper", "maxweight_lower", "maxweight_upper")


def api_rows():
    """{module name: [names]} from the table of the README's Public API section."""
    section = README.split("### Public API", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(meanbounds\.\w+)` \| (.+) \|$", section, re.MULTILINE)
    return {module: re.findall(r"`(\w+)`", names) for module, names in rows}


def test_api_list_is_all():
    listed = [name for names in api_rows().values() for name in names]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(meanbounds.__all__)


def test_api_list_names_the_defining_module():
    for module, names in api_rows().items():
        mod = importlib.import_module(module)
        for name in names:
            assert getattr(mod, name) is getattr(meanbounds, name), (module, name)


def test_readme_calls_no_removed_function():
    for name in REMOVED:
        assert not hasattr(meanbounds, name)
        # a removed name may appear only as an attribute, written with its dot, or as a
        # quoted report name ("convexity_gap", the name of gap_sandwich_check's report)
        assert not re.search(rf"(?<![.\w\"]){name}\b", README), name
