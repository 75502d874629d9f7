"""Adversarially robust binary classification with a reject option."""
