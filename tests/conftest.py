import pytest

from globalspin.grammar import preset_path
from globalspin.synth import problem_from_text


@pytest.fixture(scope="session")
def bundled():
    """Loader of a bundled problem by name: its preset file, read through
    problem_from_text as the command line reads it."""
    def load(name):
        with open(preset_path(name)) as fh:
            return problem_from_text(fh.read())
    return load
