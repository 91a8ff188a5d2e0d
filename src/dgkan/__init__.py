"""Domain-group KAN detector heads with drift-compensated data-free replay,
plus the synthetic domain-incremental benchmark harness and experiment CLI.
"""

__version__ = "0.1.0"

from . import continual, fskdcp, kanheads, losses, numcore, synthbench

__all__ = ["cli", "continual", "fskdcp", "kanheads", "losses", "numcore", "synthbench",
           "__version__"]


def __getattr__(name):
    # ``cli`` is imported on first use: ``python -m dgkan.cli`` warns when
    # the package has already imported the module it is about to run
    if name == "cli":
        import importlib
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
