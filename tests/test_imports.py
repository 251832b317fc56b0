"""What importing spheremin loads: the package and the min commands of
the CLI run without numpy, and the Monte Carlo names, which need it,
live only in the submodule spheremin.transfer."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import spheremin
from spheremin import cli
from spheremin.transfer import builtin_functions

SRC = os.path.dirname(os.path.dirname(spheremin.__file__))

QUADRATURE_COMMANDS = [
    ["emin", "--n", "10"],
    ["nmin", "--n-range", "1:100:x10", "--format", "csv"],
    ["expected-min", "--dist", "exponential:2", "--n", "7", "--format", "json"],
    ["asymptotic", "--dist", "half-normal", "--n", "1000"],
    ["sweep", "--command", "emin", "--n-range", "1:50:1", "--format", "csv"],
]
TRANSFER_NAMES = [
    "Estimate",
    "HomogeneousFunction",
    "TransferReport",
    "builtin_function",
    "builtin_functions",
    "sphere_mean_direct",
    "sphere_mean_from_gaussian",
    "transfer_identity_check",
]
MONTE_CARLO_COMMANDS = [
    ["sphere-mean", "--n-range", "2:4:1", "--samples", "500", "--format", "csv"],
    ["verify", "--seed", "1", "--samples", "2000"],
]

# Runs each argv of argv[1] (a JSON list) through cli.main in one fresh
# interpreter and prints, as JSON, the exit codes, the stdout of each and
# whether numpy was imported; with argv[2] == "block", numpy cannot be
# imported at all.
RUN_COMMANDS = """
import contextlib, io, json, sys
if sys.argv[2] == "block":
    sys.modules["numpy"] = None
import spheremin, spheremin.cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = spheremin.cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps({"results": results, "numpy": "numpy" in sys.modules}))
"""


def _fresh(code: str, *args: str) -> str:
    """Run code in a fresh interpreter that imports spheremin from SRC."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_fresh(commands, mode="allow"):
    return json.loads(_fresh(RUN_COMMANDS, json.dumps(commands), mode))


def _run_here(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [code, out.getvalue()]


class TestQuadratureWithoutNumpy:
    def test_min_commands_do_not_import_numpy(self):
        report = _run_fresh(QUADRATURE_COMMANDS)
        assert [code for code, _ in report["results"]] == [0] * len(QUADRATURE_COMMANDS)
        assert report["numpy"] is False

    def test_min_commands_run_with_numpy_blocked(self):
        report = _run_fresh(QUADRATURE_COMMANDS, "block")
        assert report["results"] == [_run_here(argv) for argv in QUADRATURE_COMMANDS]

    def test_library_routes_do_not_import_numpy(self):
        code = ("import sys, spheremin as sm; "
                "sm.emin(10); sm.nmin(100); "
                "sm.expected_min(sm.heavy_tail(2.0), 3); sm.asymptotic_min(sm.uniform01(), 5); "
                "sm.expected_min(sm.exponential(1.0), 4, 1e-10); sm.gamma_ratio(5, 2); "
                "print('numpy' in sys.modules)")
        assert _fresh(code).strip() == "False"

    def test_monte_carlo_commands_import_numpy(self):
        report = _run_fresh(MONTE_CARLO_COMMANDS)
        assert report["results"] == [_run_here(argv) for argv in MONTE_CARLO_COMMANDS]
        assert report["numpy"] is True


class TestLazyNames:
    """There are none: `import spheremin` binds every name of __all__, and
    the Monte Carlo names are reached only through the submodule transfer."""

    def test_every_name_of_all_resolves(self):
        code = ("import json, spheremin; "
                "print(json.dumps([n for n in spheremin.__all__ if n not in vars(spheremin)]))")
        assert json.loads(_fresh(code)) == []
        assert not set(TRANSFER_NAMES) & set(spheremin.__all__)

    def test_star_import_binds_all(self):
        code = ("import json; ns = {}; exec('from spheremin import *', ns); "
                "import spheremin; "
                "print(json.dumps(sorted(set(spheremin.__all__) - set(ns))))")
        assert json.loads(_fresh(code)) == []

    @pytest.mark.parametrize("statement", [
        "import spheremin",
        "from spheremin import *",
        "import pydoc, spheremin; pydoc.render_doc(spheremin)",
    ], ids=["import", "star", "pydoc"])
    def test_package_leaves_numpy_unloaded(self, statement):
        assert _fresh(f"import sys; {statement}; print('numpy' in sys.modules)").strip() == "False"

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            spheremin.no_such_name  # noqa: B018

    def test_transfer_names_come_from_the_submodule(self):
        from spheremin import transfer
        for name in TRANSFER_NAMES:
            assert getattr(transfer, name) is not None
            assert not hasattr(spheremin, name)

    def test_fn_choices_are_the_builtin_names(self):
        assert list(cli._FN_NAMES) == [f.name for f in builtin_functions()]
