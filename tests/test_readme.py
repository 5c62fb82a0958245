"""The Library example of README.md, run as a doctest."""

import doctest


def test_readme_library_example():
    result = doctest.testfile("../README.md")
    assert result.attempted > 0
    assert result.failed == 0
