"""Reporting helpers: ASCII tables and trace diffs."""

from repro.analysis.tables import format_table, format_kv

__all__ = ["format_table", "format_kv"]
