"""A fresh import of sepmult leaves nothing of the previous one alive.

Annotations such as ``Optional[Witness]``, evaluated when a class is built,
would put the class into typing's alias cache, which outlives the module;
the modules that annotate with their own classes therefore keep their
annotations unevaluated."""

import os
import subprocess
import sys

import sepmult

REIMPORT = """
import gc, importlib, sys

for _ in range(5):
    for key in [k for k in sys.modules if k == "sepmult" or k.startswith("sepmult.")]:
        del sys.modules[key]
    importlib.import_module("sepmult.cli")
gc.collect()
stale = sorted({"%s.%s" % (c.__module__, c.__qualname__) for c in gc.get_objects()
                if isinstance(c, type) and c.__module__.startswith("sepmult")
                and getattr(sys.modules.get(c.__module__), c.__qualname__, None)
                is not c})
print(",".join(stale))
"""


def test_reimports_keep_no_class_of_an_earlier_import_alive():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sepmult.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", REIMPORT], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == ""
