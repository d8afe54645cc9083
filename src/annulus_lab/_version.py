"""Toolkit version, recorded in every report and saved model."""

__version__ = "0.1.0"
