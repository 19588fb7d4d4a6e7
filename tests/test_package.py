"""The package's public names, each named once and loaded on first use.

``import assocmem`` loads ``core`` alone; any other module loads the first
time one of its names, or the module itself, is asked for, and each CLI
command loads only the module its runner imports. Every test runs in a
fresh interpreter, since a module once imported stays imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"

# the public surface, by defining module
PUBLIC = {
    "_version": ["__version__"],
    "core": [
        "BIPOLAR_DTYPE", "DimensionMismatch", "MemorySet", "ParameterError", "ValidationError",
        "as_bipolar", "normalize_start", "sgn", "validate_memory_set", "validate_proximity",
        "validate_weights",
    ],
    "hebbian": [
        "RecallResult", "energy", "is_stored", "recall_async", "recall_sync", "recall_sync_iterated", "train",
    ],
    "generator": [
        "RetrievalReport", "SpreadOrder", "SpreadStep", "SpreadTrace", "decompose", "order_from_proximity",
        "retrieve_report", "spread_full",
    ],
    "analysis": [
        "AttractorCensus", "CapacityReport", "CapacityRow", "ComplementAsymmetryReport", "ComplementFailure",
        "capacity_experiment", "classify", "complement_asymmetry_probe", "enumerate_fixed_points",
    ],
    "quantum": [
        "CollapseSelection", "ReorganizationTable", "as_amplitudes", "collapse_as_selection", "collapse_sample",
        "enumerate_reorganizations", "reorg_count",
    ],
    "formats": ["ParseError", "load_weights", "parse_memories", "parse_proximity"],
}

# each command on the golden corpus's small files, with the one library module it runs
COMMAND_MODULES = {
    "train": (["train", "--memories", "worked_memories.txt"], "hebbian"),
    "recall": (["recall", "--weights", "worked_weights.json", "--state=-1,1,-1,-1"], "hebbian"),
    "recall --async": (
        ["recall", "--weights", "worked_weights.json", "--state=-1,1,-1,-1", "--async", "--schedule", "cyclic"],
        "hebbian",
    ),
    "spread": (
        ["spread", "--weights", "line_weights.json", "--proximity", "line_proximity.txt", "--start", "3:+1"],
        "generator",
    ),
    "fixed-points": (
        ["fixed-points", "--weights", "worked_weights.json", "--memories", "worked_memories.txt"], "analysis",
    ),
    "capacity": (["capacity", "--n", "12", "--m-list", "1,2", "--trials", "50", "--seed", "7"], "analysis"),
    "collapse": (["collapse", "--amps=-0.6,0.8", "--samples", "20", "--seed", "3"], "quantum"),
    "--version": (["--version"], None),
}

LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'assocmem')"


def fresh(code: str, *args: str, cwd=None):
    """Run ``code`` after ``import json, sys, assocmem`` in a fresh interpreter; its last line as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, assocmem\n" + code, *args],
        capture_output=True, text=True, env=env, timeout=60, cwd=cwd,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_only_version_and_core():
    assert fresh(f"print(json.dumps({LOADED}))") == ["assocmem", "assocmem._version", "assocmem.core"]


def test_analysis_leaves_numpy_random_unloaded():
    # the fixed-points command loads analysis; only a capacity sweep draws
    assert fresh("import assocmem.analysis\nprint(json.dumps('numpy.random' in sys.modules))") is False


def test_all_lists_the_public_surface():
    want = sorted(name for names in PUBLIC.values() for name in names)
    assert fresh("print(json.dumps(sorted(assocmem.__all__)))") == want


def test_each_name_loads_only_its_module_and_is_its_object():
    # module by module: the names of one load that module alone, and each is the module's own object
    code = f"""
table = {PUBLIC!r}
seen, out = set({LOADED}), []
for module, names in table.items():
    same = [getattr(assocmem, name) is getattr(sys.modules["assocmem." + module], name) for name in names]
    now = set({LOADED})
    out.append([module, sorted(now - seen), all(same)])
    seen = now
print(json.dumps(out))
"""
    want = [[m, [] if m in ("_version", "core") else [f"assocmem.{m}"], True] for m in PUBLIC]
    assert fresh(code) == want


def test_dir_and_star_import_cover_all():
    code = """
names = {}
exec("from assocmem import *", names)
missing = set(assocmem.__all__) - set(dir(assocmem)), set(assocmem.__all__) - set(names)
print(json.dumps([sorted(m) for m in missing]))
"""
    assert fresh(code) == [[], []]


def test_a_submodule_resolves_before_anything_imports_it():
    code = "before = 'assocmem.formats' in sys.modules\n" \
           "print(json.dumps([before, assocmem.formats is sys.modules['assocmem.formats']]))"
    assert fresh(code) == [False, True]


def test_an_unknown_attribute_is_named():
    code = """
try:
    assocmem.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert fresh(code) == "module 'assocmem' has no attribute 'no_such_name'"


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_command_loads_only_its_module(command, tmp_path):
    argv, module = COMMAND_MODULES[command]
    if command != "--version":
        argv = [*argv, "--out", str(tmp_path / "out.json")]
    code = f"""
from assocmem.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, {LOADED}]))
"""
    base = ["assocmem", "assocmem._version", "assocmem.cli", "assocmem.core", "assocmem.formats"]
    want = sorted(base + ([f"assocmem.{module}"] if module else []))
    assert fresh(code, *argv, cwd=GOLDEN) == [0, want]


def test_version_is_stated_once():
    # pyproject.toml reads the version every report embeds from the package itself
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"] and project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "assocmem._version.__version__"}
    version = fresh("print(json.dumps(sys.modules['assocmem._version'].__version__))")
    assert version == fresh("print(json.dumps(assocmem.__version__))") and version.count(".") == 2
