"""Autodiff core: ``tensor`` (ops and backward), ``layers`` (GRU/BiGRU, dense,
batch norm, embedding), ``optim`` (Adam and ``fit``, the epoch loop both models
train with) and ``checkpoint`` (the named-tensor file and the model state)."""
