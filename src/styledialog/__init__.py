"""Spoken-dialog pipeline simulator, prosodic style toolkit, and
evaluation metrics.

The package root exports only `__version__`; import the submodules
(`styledialog.acoustics`, `styledialog.scheduler`, ...) for the rest, so
that `import styledialog` loads neither NumPy nor any submodule."""

__version__ = "0.1.0"
