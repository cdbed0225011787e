"""The experiment scripts still import what they use from the package, and
every committed experiment config parses."""

import glob
import importlib.util
import os
import subprocess
import sys

import pytest

from degm.cli import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))


@pytest.mark.parametrize("script", ["run_forgetting_demo.py"])
def test_script_help(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_calibration_script_imports():
    # it has no --help: run as a program it starts the calibration at once
    spec = importlib.util.spec_from_file_location(
        "calibrate_acceptance", os.path.join(SCRIPTS, "calibrate_acceptance.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.ac10)


def test_configs_are_found():
    assert {"bounds_demo.json", "order_study.json"} <= {os.path.basename(p) for p in CONFIGS}


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_config_parses(path):
    with open(path) as fh:
        parse_config(fh.read())
