"""numpy for the array modules, executed on its first attribute lookup."""

import importlib.util
import sys


def lazy_numpy():
    """The numpy module; unless it is already imported, its code runs on the first `np.<attr>`.

    `import wallspan` then leaves numpy unexecuted, and so do `invariants` and
    `f2cohomology`, which use no arrays.  A missing numpy still raises here.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        return importlib.import_module("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module  # numpy's relative imports look up their parent here
    spec.loader.exec_module(module)
    return module
