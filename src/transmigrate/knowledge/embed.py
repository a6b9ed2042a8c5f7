"""Text embedding providers.

The default provider is fully offline and deterministic: lowercase
alphanumeric tokens are hashed (md5, so independent of interpreter hash
randomization) into a fixed number of buckets and the count vector is
L2-normalized. Text with no alphanumeric token but some characters hashes
as one token, its whole lowercased text.

Each embedder memoises ``token -> bucket``, so md5 runs once per distinct
token; documents and queries drawn from one project share most of their
vocabulary. The memo lives as long as the embedder and holds one entry per
distinct token it has seen. The counts come from ``np.bincount`` over the
bucket numbers. They are exact small integers, so the vector is bitwise
the one a per-token ``counts[bucket] += 1.0`` loop gives.

A remote provider with the same contract can be swapped in through
configuration; its wire format is a JSON POST of ``{"input": <text>}``
answered by ``{"embedding": [numbers]}``.
"""

from __future__ import annotations

import hashlib
import json
import re
import urllib.error
import urllib.request
from dataclasses import dataclass

import numpy as np

from transmigrate.errors import RetryableBackendError

DEFAULT_DIMENSION = 256

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class EmbeddingVector:
    values: np.ndarray  # unit norm for non-empty input text

    @property
    def dimension(self) -> int:
        return int(self.values.shape[0])

    def dot(self, other: "EmbeddingVector") -> float:
        return float(np.dot(self.values, other.values))


def _bucket(token: str, dimension: int) -> int:
    digest = hashlib.md5(token.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % dimension


class _BucketMemo(dict):
    """``token -> bucket`` for one dimension; md5 runs on a miss only."""

    def __init__(self, dimension: int) -> None:
        super().__init__()
        self.dimension = dimension

    def __missing__(self, token: str) -> int:
        bucket = self[token] = _bucket(token, self.dimension)
        return bucket


class HashedTokenEmbedder:
    """Offline bag-of-tokens embedder; bitwise deterministic."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION) -> None:
        if dimension <= 0:
            raise ValueError("embedding dimension must be positive")
        self.dimension = dimension
        self.call_count = 0
        self._buckets = _BucketMemo(dimension)

    def embed(self, text: str) -> EmbeddingVector:
        self.call_count += 1
        tokens = _TOKEN_RE.findall(text.lower())
        if not tokens and text:
            # No alphanumeric content: hash the raw text so non-empty input
            # still gets a unit vector.
            tokens = [text.lower()]
        buckets = np.fromiter(map(self._buckets.__getitem__, tokens), dtype=np.intp, count=len(tokens))
        counts = np.bincount(buckets, minlength=self.dimension).astype(np.float64)
        norm = float(np.linalg.norm(counts))
        if norm == 0.0:
            return EmbeddingVector(counts)
        return EmbeddingVector(counts / norm)


class RemoteEmbedder:
    """HTTP embedding provider behind the same contract as the offline one.

    Responses are re-normalized so the unit-norm invariant holds regardless
    of the remote service's conventions.
    """

    def __init__(self, endpoint: str, dimension: int, timeout: float = 30.0) -> None:
        self.endpoint = endpoint
        self.dimension = dimension
        self.timeout = timeout
        self.call_count = 0

    def embed(self, text: str) -> EmbeddingVector:
        self.call_count += 1
        body = json.dumps({"input": text}).encode("utf-8")
        req = urllib.request.Request(
            self.endpoint, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise RetryableBackendError(f"embedding provider failed: {exc}") from exc
        values = np.asarray(payload["embedding"], dtype=np.float64)
        norm = float(np.linalg.norm(values))
        if norm > 0.0:
            values = values / norm
        return EmbeddingVector(values)
