"""Audio front end: ``wav`` (WAV ingestion and resampling), ``features``
(log-Mel extraction) and ``embeddings`` (precomputed VGGish/PANNs files)."""
