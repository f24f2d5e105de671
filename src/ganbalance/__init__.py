"""GAN-based minority oversampling for imbalanced tabular binary classification.

Trains a small GAN on the minority class of a labeled table, merges generated
rows into the training set until the classes are balanced, and compares
downstream classifiers against random oversampling and raw training.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
