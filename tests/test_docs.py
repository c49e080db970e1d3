"""Documentation integrity: referenced files exist, docs mention the
artifacts they claim to cover."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
        "docs/CALIBRATION.md", "docs/TUTORIAL.md"]


def _read(name):
    return (ROOT / name).read_text()


class TestDocFiles:
    @pytest.mark.parametrize("name", DOCS)
    def test_exists_and_nonempty(self, name):
        text = _read(name)
        assert len(text) > 500

    def test_readme_links_resolve(self):
        text = _read("README.md")
        for link in re.findall(r"\]\(([^)#]+)\)", text):
            if link.startswith("http"):
                continue
            assert (ROOT / link).exists(), f"broken link: {link}"

    def test_design_module_map_paths_exist(self):
        """Every ``.py``/``.json`` path in a backtick span of the docs
        exists under ``src/repro/``, ``src/`` or the repository root."""
        for name in DOCS:
            for span in re.findall(r"`([^`\n]+)`", _read(name)):
                for path in re.findall(r"[\w./-]+\.(?:py|json)\b", span):
                    candidates = [ROOT / "src" / "repro" / path,
                                  ROOT / "src" / path, ROOT / path]
                    assert any(c.exists() for c in candidates), \
                        f"{name}: missing {path}"

    def test_experiments_covers_all_artifacts(self):
        text = _read("EXPERIMENTS.md")
        for artifact in ("Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6",
                         "Fig. 7", "Table II", "Table III", "Table IV",
                         "Table V"):
            assert artifact in text, f"EXPERIMENTS.md missing {artifact}"

    def test_examples_listed_in_readme_exist(self):
        text = _read("README.md")
        for script in re.findall(r"examples/([a-z_]+\.py)", text):
            assert (ROOT / "examples" / script).exists()

    def test_design_notes_paper_match(self):
        """DESIGN.md records the paper-text identity check."""
        text = _read("DESIGN.md")
        assert "matches the target paper" in text
