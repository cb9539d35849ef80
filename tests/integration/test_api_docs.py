"""The committed API reference must match the code it documents."""

from __future__ import annotations

import os
import sys

import pytest

API_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "docs", "API.md")
TOOLS_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "tools")


def _generator():
    sys.path.insert(0, TOOLS_PATH)
    try:
        import gen_api_docs
    finally:
        sys.path.remove(TOOLS_PATH)
    return gen_api_docs


def test_api_reference_is_current():
    gen_api_docs = _generator()
    with open(API_PATH) as handle:
        committed = handle.read()
    assert committed == gen_api_docs.render(), (
        "docs/API.md is stale; regenerate with `python tools/gen_api_docs.py`"
    )


def test_failed_render_leaves_the_target_unchanged(tmp_path, monkeypatch):
    gen_api_docs = _generator()
    target = tmp_path / "API.md"
    target.write_text("previous reference\n")

    def failing_render():
        raise ModuleNotFoundError("No module named 'repro'")

    monkeypatch.setattr(gen_api_docs, "render", failing_render)
    with pytest.raises(ModuleNotFoundError):
        gen_api_docs.main(str(target))
    assert target.read_text() == "previous reference\n"
