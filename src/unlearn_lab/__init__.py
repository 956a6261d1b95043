"""Deterministic laboratory for fine-tuning-based machine unlearning.

Linear side: minimum-norm training, anchored fine-tuning, retraining from
scratch, pretrained-model editing, and closed-form loss predictions that
the measured pipeline is verified against.  Classifier side: a toy
softmax model with discriminatively regularized unlearning objectives.
The ``unlearn-lab`` CLI drives both as reproducible, CSV-emitting
experiments.
"""

__version__ = "0.1.0"
