"""Trainable character-level Uzbek Cyrillic/Latin transliteration toolkit."""

__version__ = "0.1.0"
