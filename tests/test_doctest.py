import doctest

import fracpolylog


def test_package_docstring_examples_run():
    result = doctest.testmod(fracpolylog)
    assert result.attempted >= 1
    assert result.failed == 0
