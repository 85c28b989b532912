import importlib

MODULES = ("cli", "kernels", "linear_stability", "micro_sim", "patch_waves", "quadrature",
           "surface_evolution")


def test_every_exported_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"dropsed.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], f"dropsed.{name}.__all__ lists undefined names {missing}"
        namespace = {}
        exec(f"from dropsed.{name} import *", namespace)
        assert set(module.__all__) <= namespace.keys()
