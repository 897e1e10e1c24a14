"""Example scripts: importable, with a main() entry point.

Here we verify they parse, import against the current API, and expose
the expected entry point.  Executing all of them end to end takes about
half a minute, so CI's smoke job runs them with ``make examples``: an
API move inside a ``main()`` fails there, not here.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


def test_expected_examples_present():
    names = {path.stem for path in EXAMPLES}
    assert {
        "quickstart", "timeline", "interconnect_explorer",
        "multiprogrammed", "tlb_storm", "extensions_tour",
    } <= names


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # import-time errors fail here
    assert callable(getattr(module, "main", None))
