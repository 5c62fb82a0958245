"""What `import cuspcm` and each CLI command load.

The package surface is lazy: `import cuspcm` loads no submodule, and a
name loads the submodule that defines it on first use.  The CLI loads
`sequences` and `cohomology` up front and every other library module only
for the commands that use it, so a one-shot `cohom` pays for no oracle,
quiver or T_pq code.  No command loads `dataclasses` or `inspect`, the
largest stdlib import the value classes once cost.  Each CLI case runs in
a fresh interpreter, entered through `cuspcm.cli:main` as the console
script enters it.
"""

import importlib
import json
import subprocess
import sys

import pytest

import cuspcm
from cuspcm.cli import COMMANDS

SUBMODULES = ("sequences", "cohomology", "oracle", "cusp", "tpq", "quiver")


def loaded_after(code: str, *args: str, stdin: str = "",
                 roots: tuple[str, ...] = ("cuspcm",)) -> set[str]:
    """The modules under `roots` loaded when `code` has run, successfully, in
    a fresh interpreter."""
    probe = (
        "import json, sys\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "finally:\n"
        f"    names = sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})\n"
        "    sys.stderr.write('\\nLOADED ' + json.dumps(names) + '\\n')\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, *args], input=stdin,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.rsplit("LOADED ", 1)[1]))


# ------------------------------------------------------- package surface


def test_import_cuspcm_loads_no_submodule():
    assert loaded_after("import cuspcm") == {"cuspcm"}


def test_a_name_loads_only_its_submodule_and_what_that_imports():
    assert loaded_after("from cuspcm import cohom_dims") == {
        "cuspcm", "cuspcm.sequences", "cuspcm.cohomology",
    }


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_exported_name_is_its_submodules_object(module):
    mod = importlib.import_module(f"cuspcm.{module}")
    for name in mod.__all__:
        assert getattr(cuspcm, name) is getattr(mod, name), name


@pytest.mark.parametrize("module", SUBMODULES)
def test_a_submodules_all_is_its_entry_in_the_table(module):
    assert importlib.import_module(f"cuspcm.{module}").__all__ is cuspcm._EXPORTS[module]


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_exported_name_is_defined_in_its_submodule(module):
    # A misfiled name would load the wrong submodule on first use.
    for name in cuspcm._EXPORTS[module]:
        value = getattr(cuspcm, name)
        for obj in getattr(value, "__args__", (value,)):  # TpqModuleLabel is a union
            assert obj.__module__ == f"cuspcm.{module}", name


def test_all_is_the_submodules_exports_and_the_version():
    names = {n for m in SUBMODULES for n in importlib.import_module(f"cuspcm.{m}").__all__}
    assert sorted(cuspcm.__all__) == sorted(names | {"__version__"})
    assert len(cuspcm.__all__) == len(set(cuspcm.__all__))


def test_dir_covers_all():
    assert set(cuspcm.__all__) <= set(dir(cuspcm))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from cuspcm import *", namespace)
    for name in cuspcm.__all__:
        assert namespace[name] is getattr(cuspcm, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        cuspcm.frobnicate
    assert not hasattr(cuspcm, "_checked")
    with pytest.raises(ImportError):
        exec("from cuspcm import frobnicate", {})


def test_a_submodule_is_an_attribute_of_the_package():
    assert cuspcm.oracle is importlib.import_module("cuspcm.oracle")


# ------------------------------------------------------ modules per command


BASE = {"cuspcm", "cuspcm.cli", "cuspcm.sequences", "cuspcm.cohomology"}
CUSP = BASE | {"cuspcm.cusp"}
TPQ = CUSP | {"cuspcm.tpq"}
ORACLE = BASE | {"cuspcm.oracle"}
QUIVER = TPQ | {"cuspcm.quiver"}  # quiver imports cusp and tpq itself

# (argv, stdin, the modules loaded at exit)
CASES = {
    "canon": (["canon", "--s", "2", "--seq", "3,4,1,2"], "", BASE),
    "cohom": (["cohom", "--s", "1", "--seq", "1", "--m", "1", "--lambda", "2"], "", BASE),
    "cohom-batch": (["cohom", "--s", "1", "--batch"],
                    '{"seq":[1],"m":1,"lambda":2}\n', BASE),
    "classify": (["classify", "--s", "1", "--b", "1", "--seq", "1", "--m", "1",
                  "--lambda", "1"], "", CUSP),
    "enumerate": (["enumerate", "--s", "1", "--b", "1", "--rank", "2"], "", CUSP),
    "growth": (["growth", "--s", "1", "--b", "1", "--r-max", "3"], "", CUSP),
    "tpq-geometry": (["tpq-geometry", "--p", "3", "--q", "8"], "", TPQ),
    "tpq-sigma": (["tpq-sigma", "--p", "3", "--q", "8", "--seq", "2,0,1,0"], "", TPQ),
    "tpq-descend": (["tpq-descend", "--p", "3", "--q", "8", "--batch"],
                    '{"seq":[1,0],"m":1,"lambda":-1}\n{"free":true}\n', TPQ),
    "verify": (["verify", "--seq", "1", "--m", "1", "--lambda", "2"], "", ORACLE),
    "verify-grid": (["verify", "--grid", "rs_max=1"], "", ORACLE),
    "quiver": (["quiver", "--s", "1", "--b", "1", "--max-base-rank", "1", "--depth", "2"],
               "", QUIVER),
    "quiver-json": (["quiver", "--s", "1", "--b", "1", "--max-base-rank", "1",
                     "--depth", "2", "--format", "json"], "", QUIVER),
    "tpq-quiver": (["tpq-quiver", "--p", "3", "--q", "8", "--depth", "2", "--seq", "1,0",
                    "--lambda", "1"], "", QUIVER),
    "version": (["--version"], "", BASE),
}


def test_every_command_has_a_case():
    assert {argv[0] for argv, _, _ in CASES.values()} >= {c.name for c in COMMANDS}


@pytest.mark.parametrize("case", CASES)
def test_a_command_loads_only_the_modules_it_uses(case):
    argv, stdin, expected = CASES[case]
    code = "from cuspcm.cli import main\nraise SystemExit(main(sys.argv[1:]))"
    roots = ("cuspcm", "dataclasses", "inspect")
    assert loaded_after(code, *argv, stdin=stdin, roots=roots) == expected
