import os

import pytest

import globalspin
from globalspin.synth import problem_from_text

PRESET_DIR = os.path.join(os.path.dirname(globalspin.__file__), "presets")


@pytest.fixture(scope="session")
def bundled():
    """Loader of a bundled problem by name: its preset file, read through
    problem_from_text as the command line reads it."""
    def load(name):
        with open(os.path.join(PRESET_DIR, name + ".txt")) as fh:
            return problem_from_text(fh.read())
    return load
