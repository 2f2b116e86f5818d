import sys

import pytest

# Its recount's asserts must run under python -O too, as a test module's do.
pytest.register_assert_rewrite("report_rows")


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap a trace_repair function at every module that binds it.

    Returns the list that collects each call's positional arguments.
    """

    def install(module_name: str, function: str) -> list[tuple]:
        original = getattr(sys.modules[f"trace_repair.{module_name}"], function)
        calls: list[tuple] = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "trace_repair" or name.startswith("trace_repair."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    return install
