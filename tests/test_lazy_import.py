"""The solver loads only when a command computes, numpy only when a Monte-Carlo
path runs, and typing, dataclasses and inspect never do.

Each check runs in a fresh interpreter, because this test process has
already imported numpy.
"""

import importlib
import subprocess
import sys

import pytest

import thzris


def last_line(env, code: str, *flags: str) -> str:
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["capacity", "--dump-config"],
        ["sweep", "--param", "M", "--values", "1,16"],
    ],
    ids=["import", "dump-config", "analytic-sweep"],
)
def test_analytic_paths_leave_numpy_unloaded(src_env, argv):
    run = "" if argv is None else f"from thzris.cli import main; assert main({argv!r}) == 0; "
    assert last_line(src_env, f"import sys, thzris; {run}print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize(
    "argv, loaded",
    [(None, False), (["capacity", "--dump-config"], False), (["capacity"], True)],
    ids=["import", "dump-config", "capacity"],
)
def test_solver_loads_only_when_a_command_computes(src_env, argv, loaded):
    solver = ["thzris.capacity", "thzris.numerics", "thzris.cascade"]
    run = "" if argv is None else f"from thzris.cli import main; assert main({argv!r}) == 0; "
    code = f"import sys, thzris; {run}print([name in sys.modules for name in {solver!r}])"
    assert last_line(src_env, code, "-S") == str([loaded] * 3)


@pytest.mark.parametrize("command", ["mc", "validate"])
def test_one_trial_is_a_config_error_before_numpy_loads(src_env, command):
    # numpy cannot be imported in this child, so only the config parser can answer.
    code = ("import sys; sys.modules['numpy'] = None; from thzris.cli import main; "
            f"sys.exit(main([{command!r}, '--trials', '1']))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "thzris: config error: invalid mc settings: trials must be >= 2, got 1 (key 'mc')\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        (["mc", "--trials", "2"], False),
        (["validate", "--trials", "2"], False),
        (["sweep", "--param", "M", "--values", "1,16", "--with-mc", "--trials", "2"], False),
        (["sweep", "--param", "M", "--values", "1,16", "--with-mc", "--trials", "2"], True),
    ],
    ids=["mc", "validate", "sweep-with-mc", "sweep-with-mc-out"],
)
def test_monte_carlo_without_numpy_is_one_line(src_env, tmp_path, argv, out):
    # The command stops at its first Monte-Carlo point: no CSV, no error rows,
    # and an existing --out file keeps its bytes.
    target = tmp_path / "kept.csv"
    target.write_text("kept\n")
    if out:
        argv = [*argv, "--out", str(target)]
    code = f"import sys; sys.modules['numpy'] = None; from thzris.cli import main; sys.exit(main({argv!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("thzris: ") and "numpy" in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize("module", ["typing", "dataclasses", "inspect", "pathlib"])
def test_cli_import_leaves_module_unloaded(src_env, module):
    # -S skips site, which can load typing and pathlib itself.  dataclasses, with the
    # inspect it imports, is slow to import; the package's records do without it.
    # pathlib loads urllib.parse and ipaddress; the package handles paths with os.path.
    code = f"import sys, thzris.cli; print({module!r} in sys.modules)"
    assert last_line(src_env, code, "-S") == "False"


def test_montecarlo_names_resolve_on_demand(src_env):
    code = (
        "import sys, thzris; before = 'numpy' in sys.modules; "
        "from thzris import McEstimate, estimate_ergodic_rate; "
        "assert estimate_ergodic_rate is thzris.montecarlo.estimate_ergodic_rate; "
        "assert McEstimate is thzris.montecarlo.McEstimate; "
        "print(before, 'numpy' in sys.modules)"
    )
    assert last_line(src_env, code) == "False True"


@pytest.mark.parametrize("name", sorted(thzris._LAZY))
def test_lazy_name_is_its_modules_attribute(name):
    module = importlib.import_module(f"thzris.{thzris._LAZY[name]}")
    assert getattr(thzris, name) is (module if name == thzris._LAZY[name] else getattr(module, name))


def test_lazy_submodules_are_modules(src_env):
    # In a fresh interpreter, so that the first access goes through the package's __getattr__.
    code = ("import sys, types, thzris; names = ['capacity', 'numerics', 'cascade', 'montecarlo']; "
            "print(all(isinstance(getattr(thzris, n), types.ModuleType) "
            "and getattr(thzris, n) is sys.modules['thzris.' + n] for n in names))")
    assert last_line(src_env, code) == "True"


def test_dir_lists_every_public_name():
    assert sorted(set(thzris.__all__) - set(dir(thzris))) == []


def test_every_public_name_resolves():
    missing = [name for name in thzris.__all__ if not hasattr(thzris, name)]
    assert missing == []
    assert thzris.McConfig is thzris.montecarlo.McConfig


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        thzris.no_such_name
    with pytest.raises(ImportError):
        from thzris import sample_snr  # noqa: F401
