"""Measurement helpers, table/figure renderers, and run telemetry."""
