"""Every example script must import cleanly against the package.

Each example guards its ``main()`` behind ``__main__``, so running it
under another name executes only its imports and definitions: a
deleted or renamed name an example depends on fails here.
"""

import os
import runpy

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "examples")


@pytest.mark.parametrize(
    "script", sorted(f for f in os.listdir(EXAMPLES) if f.endswith(".py"))
)
def test_example_imports(script):
    namespace = runpy.run_path(os.path.join(EXAMPLES, script), run_name="example")
    assert callable(namespace["main"])
