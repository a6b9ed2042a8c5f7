import math

import pytest

from conftest import GOLDEN_DIR
from golden_fixtures import ALL_INPUTS, RETRIEVED

from transmigrate import prompts
from transmigrate.errors import AssemblyError, BudgetError
from transmigrate.prompts import (
    MANDATORY_HEADINGS,
    NO_CONTEXT_SENTINEL,
    load_template,
    output_requirements_for,
    render_prompt,
    size_units,
    truncate_context,
)


def render_level(level, **extra):
    inputs = dict(ALL_INPUTS[level])
    inputs.update(extra)
    return render_prompt(level, inputs, retrieved=RETRIEVED)


class TestGoldenRendering:
    @pytest.mark.parametrize("level", ["method", "class", "component", "project", "repair"])
    def test_rendering_matches_golden_file(self, level):
        envelope = render_level(level)
        golden = (GOLDEN_DIR / f"prompt_{level}.txt").read_text(encoding="utf-8")
        assert envelope.rendered_text == golden

    @pytest.mark.parametrize("level", ["method", "class", "component", "project"])
    def test_mandatory_headings_present(self, level):
        envelope = render_level(level)
        for heading in MANDATORY_HEADINGS[level]:
            assert heading in envelope.rendered_text, heading

    def test_method_prompt_carries_expected_heading_literals(self):
        text = render_level("method").rendered_text
        assert "Method Name:" in text
        assert "Abstract Syntax Tree:" in text
        assert "// TODO: Platform-specific adaptation required" in text

    def test_class_prompt_carries_translated_methods_heading(self):
        assert "Translated Methods:" in render_level("class").rendered_text


class TestRendering:
    def test_no_retrieved_chunks_renders_sentinel(self):
        envelope = render_prompt("method", dict(ALL_INPUTS["method"]), retrieved=[])
        assert NO_CONTEXT_SENTINEL in envelope.rendered_text

    def test_missing_mandatory_slot_names_it(self):
        inputs = dict(ALL_INPUTS["method"])
        del inputs["method_code"]
        with pytest.raises(AssemblyError, match="method_code"):
            render_prompt("method", inputs)

    def test_retrieved_chunks_in_score_order_with_source_headers(self):
        envelope = render_level("class")
        text = envelope.rendered_text
        assert text.index("Source: README.md") < text.index("Source: docs/usage.md")

    def test_every_slot_value_is_rendered(self):
        envelope = render_level("class")
        for slot, value in envelope.slots.items():
            assert value in envelope.rendered_text, slot

    def test_size_estimate_is_quarter_characters(self):
        envelope = render_level("method")
        assert envelope.size_estimate == math.ceil(len(envelope.rendered_text) / 4)
        assert size_units("abcd") == 1
        assert size_units("abcde") == 2

    def test_templates_validate_on_load(self, tmp_path, monkeypatch, request):
        # A template edited in place: a slot no caller fills is named when
        # the template renders, a missing heading when it loads.
        headings = "\n".join(MANDATORY_HEADINGS["method"])
        (tmp_path / "method.txt").write_text(f"{headings}\nHi {{method_name}} {{unknown_slot}}")
        (tmp_path / "class.txt").write_text("Hi {class_name}")
        monkeypatch.setattr(prompts, "_TEMPLATES_DIR", tmp_path)
        load_template.cache_clear()  # else the shipped templates read earlier are served
        request.addfinalizer(load_template.cache_clear)  # nor this method template later
        for _ in range(2):
            with pytest.raises(AssemblyError, match="unknown_slot"):
                render_level("method")
            with pytest.raises(AssemblyError, match="missing heading"):
                load_template("class")

    def test_template_read_once_per_process(self):
        with pytest.raises(AssemblyError, match="unknown prompt level"):
            load_template("module")
        assert load_template("method") is load_template("method")
        assert load_template("class").level == "class"

    def test_braces_in_code_survive_rendering(self):
        inputs = dict(ALL_INPUTS["method"])
        inputs["method_code"] = "void m() { int x = {1}; } // {ast} stays literal"
        envelope = render_prompt("method", inputs)
        assert "{ast} stays literal" in envelope.rendered_text


class TestTruncation:
    def big_envelope(self):
        inputs = dict(ALL_INPUTS["method"])
        inputs["method_code"] = "c" * 2000
        inputs["ast"] = "a" * 4000
        return render_prompt("method", inputs, retrieved=RETRIEVED)

    def test_within_budget_unchanged(self):
        envelope = render_level("method")
        assert truncate_context(envelope, budget=10_000) is envelope

    def test_spec_slot_dropped_first_code_intact(self):
        envelope = self.big_envelope()
        truncated = truncate_context(envelope, budget=envelope.size_estimate - 1)
        assert truncated.dropped == ["specification"]
        assert "c" * 2000 in truncated.rendered_text
        assert "a" * 4000 in truncated.rendered_text

    def test_drop_order_spec_then_ast(self):
        envelope = self.big_envelope()
        # Between the sizes after one drop and after two drops: forces both.
        truncated = truncate_context(envelope, budget=1000)
        assert truncated.dropped == ["specification", "ast"]
        assert "c" * 2000 in truncated.rendered_text

    def test_dependency_dropped_last_at_class_level(self):
        inputs = dict(ALL_INPUTS["class"])
        inputs["ast"] = "a" * 2000
        inputs["dependency"] = "d" * 2000
        envelope = render_prompt("class", inputs, retrieved=RETRIEVED)
        truncated = truncate_context(envelope, budget=400)
        assert truncated.dropped == ["specification", "ast", "dependency"]

    def test_budget_below_untruncatable_content_fails(self):
        envelope = self.big_envelope()
        with pytest.raises(BudgetError):
            truncate_context(envelope, budget=100)

    def test_prior_translations_never_dropped(self):
        inputs = dict(ALL_INPUTS["class"])
        inputs["translated_methods"] = "t" * 3000
        inputs["ast"] = "a" * 2000
        envelope = render_prompt("class", inputs, retrieved=RETRIEVED)
        truncated = truncate_context(envelope, budget=envelope.size_estimate - 200)
        assert "t" * 3000 in truncated.rendered_text
        assert "translated_methods" not in truncated.dropped


class TestRepairSupport:
    def test_output_requirements_extracted_verbatim(self):
        section = output_requirements_for("method")
        assert section.startswith("Output Requirement:")
        assert "preserving the logic and behavior" in section

    def test_repair_prompt_embeds_diagnostics_and_prior_code(self):
        envelope = render_prompt(
            "repair",
            {
                "diagnostics": "A.swift:2:9: error: keyword 'init' cannot be used as an identifier",
                "prior_code": "class A { let init = 0 }",
                "output_requirements": output_requirements_for("class"),
            },
        )
        assert "Reported Issues:" in envelope.rendered_text
        assert "Current Code:" in envelope.rendered_text
        assert "let init = 0" in envelope.rendered_text
        assert "Output Requirement:" in envelope.rendered_text
