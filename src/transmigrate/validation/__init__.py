"""Translated-code validation: checks, diagnostics, external tools, refinement."""
