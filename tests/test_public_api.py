"""The exported public surfaces must match the committed manifest.

Covers every tracked module (``repro.api``, ``repro.serve``): exports,
dataclass field defaults, function signatures, and public method
signatures on classes (the job-server client surface).
"""

import importlib.util
import json
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "check_public_api.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_public_api", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestManifest:
    def test_surface_matches_committed_manifest(self, tool):
        drift = tool.check()
        assert drift == [], "\n".join(drift)

    def test_manifest_covers_all_exports(self, tool):
        from repro import api, serve

        with open(tool.MANIFEST_PATH) as fh:
            manifest = json.load(fh)
        assert sorted(manifest) == sorted(tool.TRACKED_MODULES)
        assert sorted(manifest["repro.api"]) == sorted(api.__all__)
        assert sorted(manifest["repro.serve"]) == sorted(serve.__all__)


class TestDescribe:
    def test_dataclasses_record_field_defaults(self, tool):
        surface = tool.describe_api()
        scf = surface["SCFConfig"]
        assert scf["kind"] == "dataclass"
        assert scf["fields"]["ecut"] == "10.0"
        assert scf["fields"]["mixer"] == "'anderson'"

    def test_functions_record_signatures(self, tool):
        surface = tool.describe_api()
        assert surface["execute_request"]["kind"] == "function"
        assert "ground_state" in surface["execute_request"]["signature"]

    def test_request_methods_are_covered(self, tool):
        surface = tool.describe_api()
        request = surface["CalculationRequest"]
        assert request["kind"] == "dataclass"
        assert "compute" in request["methods"]
        assert "cache_key" in request["methods"]
        assert "tenant" in request["methods"]["submit"]

    def test_serve_client_surface_is_covered(self, tool):
        surface = tool.describe_api("repro.serve")
        client = surface["ServeClient"]
        assert client["kind"] == "class"
        for method in ("submit", "status", "result", "cancel", "events"):
            assert method in client["methods"], method
        assert "priority" in client["methods"]["submit"]
        server = surface["CalculationServer"]
        for method in ("submit", "handle", "cancel", "stats", "shutdown"):
            assert method in server["methods"], method

    def test_diff_reports_removed_and_changed(self, tool):
        expected = {"a": {"kind": "class"}, "b": {"kind": "function", "signature": "()"}}
        actual = {"b": {"kind": "function", "signature": "(x)"}, "c": {"kind": "class"}}
        drift = tool.diff_surfaces(expected, actual)
        assert any("removed export: a" in line for line in drift)
        assert any("new unblessed export: c" in line for line in drift)
        assert any(line.startswith("changed: b") for line in drift)

    def test_main_ok_exit_code(self, tool, capsys):
        assert tool.main([]) == 0
        assert "matches" in capsys.readouterr().out

    def test_main_detects_drift(self, tool, capsys, tmp_path, monkeypatch):
        stale = tmp_path / "manifest.json"
        stale.write_text(
            json.dumps({"repro.api": {"Ghost": {"kind": "class"}}, "repro.serve": {}})
        )
        monkeypatch.setattr(tool, "MANIFEST_PATH", str(stale))
        assert tool.main([]) == 1
        out = capsys.readouterr().out
        assert "drift" in out
        assert "Ghost" in out
