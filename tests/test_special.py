"""The ufunc loader: scipy.special's own objects, its module table intact.

Each test runs in a fresh interpreter, since the pytest process has long
imported scipy.special by the time these run.
"""

import pytest


def check(fresh_python, code: str):
    proc = fresh_python("if True:\n" + code)
    assert proc.returncode == 0, proc.stderr


def test_later_scipy_special_import_shares_the_ufuncs(fresh_python):
    check(fresh_python, """
        import sys
        import lisnoma
        from lisnoma import _special
        assert "scipy.special" not in sys.modules
        import scipy.special
        for name in _special.NAMES:
            theirs = getattr(scipy.special, name)
            assert getattr(_special, name) is theirs, name
        # the package bound its submodule, so its error state works
        assert scipy.special._special_ufuncs.k0 is _special.k0
        with scipy.special.errstate(all="raise"):
            try:
                _special.k0(0.0)
            except scipy.special.SpecialFunctionError:
                pass
            else:
                raise AssertionError("k0(0) raised nothing")
    """)


@pytest.mark.parametrize("first", ["", "import scipy.special"])
def test_loader_leaves_the_module_table_as_it_found_it(fresh_python, first):
    check(fresh_python, f"""
        import sys
        {first}
        import scipy
        before = dict(sys.modules)
        from lisnoma import _special
        for name, module in before.items():
            assert sys.modules.get(name) is module, name
        loaded = "scipy.special._special_ufuncs" in sys.modules
        assert loaded == {bool(first)}
        imported = dict(sys.modules)
        got = _special._ufuncs(scipy.__path__)
        assert sys.modules == imported
        for name, ufunc in zip(_special.NAMES, got):
            assert ufunc is getattr(_special, name), name
    """)


def test_loader_without_the_extension_takes_scipy_special(fresh_python):
    check(fresh_python, """
        import os, tempfile
        from lisnoma import _special
        with tempfile.TemporaryDirectory() as root:
            os.mkdir(os.path.join(root, "special"))
            got = _special._ufuncs([root])
        import scipy.special
        for name, ufunc in zip(_special.NAMES, got):
            assert ufunc is getattr(scipy.special, name), name
    """)


def test_missing_scipy_raises_import_error(fresh_python):
    # the loader finds scipy without importing it; with no scipy to find,
    # importing lisnoma still fails as an import does
    check(fresh_python, """
        import sys
        sys.modules["scipy"] = None
        try:
            import lisnoma
        except ModuleNotFoundError as exc:
            assert exc.name == "scipy", exc.name
        else:
            raise AssertionError("import lisnoma without scipy succeeded")
    """)
