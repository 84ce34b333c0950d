"""One cold start: a fresh interpreter imports the ``repro`` package as
its CLI does, builds the first pass of a workload (specs or grid,
journals, fingerprints) and prints ``ready``.  ``run.py`` times it from
spawn to that line.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Every module of the checkout is compiled from source, whatever
``__pycache__`` folders it holds; the standard library and NumPy load
from their installed bytecode as usual.
"""

import sys

sys.dont_write_bytecode = True

import importlib.machinery  # noqa: E402
import pathlib  # noqa: E402


class SourceOnlyLoader(importlib.machinery.SourceFileLoader):
    """Refuses to read bytecode, so the import compiles the source."""

    def get_data(self, path):
        if path.endswith(".pyc"):
            raise OSError("bytecode is not read on a cold start")
        return super().get_data(path)


def compile_from_source(root: pathlib.Path) -> None:
    """Import every module under ``root`` with :class:`SourceOnlyLoader`."""
    inside = str(root)
    suffixes = importlib.machinery.SOURCE_SUFFIXES

    def hook(path):
        if not str(path).startswith(inside):
            raise ImportError("outside the checkout")
        return importlib.machinery.FileFinder(path, (SourceOnlyLoader, suffixes))

    sys.path_hooks.insert(0, hook)
    sys.path_importer_cache.clear()


def main(argv) -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root), str(root / "src")]
    compile_from_source(root)
    import repro.cli  # noqa: F401  (the whole package, as `python -m repro`)
    from perfbench.workloads import WORKLOADS

    name, seed, workdir = argv[1], int(argv[2]), pathlib.Path(argv[3])
    WORKLOADS[name].prepare(seed, workdir)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
