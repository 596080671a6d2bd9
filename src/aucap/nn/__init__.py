"""Autodiff core: ``tensor`` (ops and backward), ``layers`` (GRU/BiGRU, dense,
batch norm, embedding), ``optim`` (Adam), ``checkpoint`` and ``gradcheck``."""
