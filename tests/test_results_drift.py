"""``tools/results_drift.py`` masks the host's wall clock and nothing else.

The check itself (a paper-scale regenerate against ``results/``) runs in
CI's experiments job; here the masks are tried on copies of the
committed files with one number changed at a time.
"""

import importlib.util
import json
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "results_drift", ROOT / "tools" / "results_drift.py")
drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(drift)


@pytest.fixture
def copy(tmp_path):
    out = tmp_path / "regenerated"
    shutil.copytree(ROOT / "results", out)
    return out


def _edit(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert text.count(old) >= 1, (path.name, old)
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_committed_results_equal_themselves(copy):
    assert drift.differences(str(ROOT / "results"), str(copy)) == []


@pytest.mark.parametrize("name", ["t11.txt", "s5.txt", "s6.txt"])
def test_host_column_is_masked_and_its_neighbours_are_not(copy, name):
    path = copy / name
    lines = path.read_text(encoding="utf-8").split("\n")
    # The first row under the dashes; its last five characters lie in the
    # host column (a host value, or the padding of S6's trace rows).
    row = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
    lines[row] = lines[row][:-5] + "9.876"
    path.write_text("\n".join(lines), encoding="utf-8")
    assert drift.differences(str(ROOT / "results"), str(copy)) == []
    # The column left of the host seconds is simulated: it must count.
    cells = lines[row].split()
    lines[row] = lines[row].replace(f" {cells[-2]} ", f" {cells[-2]}1", 1)
    path.write_text("\n".join(lines), encoding="utf-8")
    assert drift.differences(str(ROOT / "results"), str(copy)) == [
        f"{name}: differs"]


def test_json_drops_host_seconds_only(copy):
    path = copy / "s5.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["data"]["series"][0]["host_seconds"] += 1.0
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    assert drift.differences(str(ROOT / "results"), str(copy)) == []
    doc["data"]["series"][0]["p99"] *= 2
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    assert drift.differences(str(ROOT / "results"), str(copy)) == [
        "s5.json: differs"]


def test_reordered_keys_and_missing_files_count(copy):
    path = copy / "t5.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["data"] = dict(reversed(list(doc["data"].items())))
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    (copy / "a1.txt").unlink()
    assert drift.differences(str(ROOT / "results"), str(copy)) == [
        f"a1.txt: missing from {copy}", "t5.json: differs"]
