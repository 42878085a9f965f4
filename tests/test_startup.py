"""What a CLI process pays for before its command runs.

Every ncrat command is a fresh process, and where no bytecode cache is
written (as perfbench runs the CLI), each module it imports is compiled
anew.  ``import ncrat`` therefore loads only the layers a verdict runs
through, the ones perfbench's tracer wraps, and their kernel; the Gram
problem, the series word walk and the numpy samplers load on first use,
and the CLI builds the argument parser of the one command it runs.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest

import ncrat
from ncrat.cli import COMMANDS, build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Modules that `import ncrat.cli` must not load: code that only some
# commands run, and the standard library it would pull in.
NOT_AT_STARTUP = ("ncrat.gram", "ncrat.series", "ncrat.float_samplers", "fractions", "decimal",
                  "numpy", "dataclasses", "inspect")


def _modules_added_by(statement):
    """The modules that ``statement`` adds to sys.modules in a fresh interpreter."""
    snippet = ("import json, sys\n"
               "before = set(sys.modules)\n"
               f"{statement}\n"
               "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _traced_modules():
    """The modules named by TIMED and SAMPLERS of perfbench/layertrace.py."""
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(ROOT, "perfbench", "layertrace.py"))
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return ({module for _, module, _ in layertrace.TIMED}
            | {module for module, _ in layertrace.SAMPLERS})


class TestImports:
    def test_import_ncrat_cli_loads_no_command_only_code(self):
        added = _modules_added_by("import ncrat.cli")
        assert "ncrat.cli" in added
        assert added & set(NOT_AT_STARTUP) == set()

    def test_import_ncrat_loads_every_traced_layer(self):
        # the tracer wraps only what is loaded when `import ncrat` returns
        traced = _traced_modules()
        assert {"ncrat.ratexpr", "ncrat.ideals", "ncrat.realization", "ncrat.sampler",
                "ncrat.positivity"} <= traced
        assert traced - _modules_added_by("import ncrat") == set()

    @pytest.mark.parametrize("name", sorted(ncrat._LAZY))
    def test_lazy_name_is_a_package_attribute(self, name):
        module = importlib.import_module(f"ncrat.{ncrat._LAZY[name]}")
        assert getattr(ncrat, name) is getattr(module, name)
        assert name in dir(ncrat)

    def test_lazy_modules_are_package_attributes(self):
        assert ncrat.series is importlib.import_module("ncrat.series")
        assert ncrat.gram.import_gram is ncrat.import_gram

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
            ncrat.nosuch  # noqa: B018


def _parse(run, argv):
    """Exit code, stdout and stderr of an argument parse that ends the process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            run(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def _full_parser(argv):
    build_parser().parse_args(argv)


def _has_required_option(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    parser = sub.choices[command]
    return (any(a.required for a in parser._actions)
            or any(g.required for g in parser._mutually_exclusive_groups))


HELP_AND_USAGE = [[], ["--help"], ["nosuch"], ["-h", "member"]]
for _command in COMMANDS:
    HELP_AND_USAGE += [[_command, "--help"], [_command, "--bogus"]]
    if _has_required_option(_command):
        HELP_AND_USAGE.append([_command])


class TestOneSubparser:
    def test_commands_are_the_full_parsers(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert tuple(sub.choices) == COMMANDS

    @pytest.mark.parametrize("argv", HELP_AND_USAGE, ids=lambda argv: " ".join(argv) or "no-args")
    def test_same_bytes_as_the_full_parser(self, argv):
        # main builds one subcommand's parser when the command comes first
        assert _parse(main, argv) == _parse(_full_parser, argv)

    def test_one_command_builds_one_subparser(self):
        sub = next(a for a in build_parser("member")._actions if a.dest == "command")
        assert list(sub.choices) == ["member"]
