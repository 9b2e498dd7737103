import pkgutil

import pytest

import omega_pricer

MODULES = sorted(m.name for m in pkgutil.iter_modules(omega_pricer.__path__))


def test_modules_found():
    assert {"cli", "discount", "levy", "mc", "pricer", "scale"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    """Every name in a module's __all__ exists, so `import *` succeeds."""
    namespace = {}
    exec(f"from omega_pricer.{module} import *", namespace)
    mod = __import__(f"omega_pricer.{module}", fromlist=["__all__"])
    assert set(getattr(mod, "__all__", ())) <= set(namespace)
