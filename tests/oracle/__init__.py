"""Test package (needed so duplicate test basenames import cleanly)."""
