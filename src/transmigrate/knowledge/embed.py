"""Text embedding providers.

The default provider is fully offline and deterministic: lowercase
alphanumeric tokens are hashed (md5, so independent of interpreter hash
randomization) into a fixed number of buckets and the count vector is
L2-normalized. Text with no alphanumeric token but some characters hashes
as one token, its whole lowercased text.

Each embedder has one entry point, ``embed(texts)``, which returns one
row per text, shape ``(len(texts), dimension)``. A text is tokenized on
its lowered UTF-8 bytes: a 256-byte table keeps ASCII ``a``-``z`` and
``0``-``9`` and turns every other byte into a space, and ``split`` cuts
the tokens. Every byte of a non-ASCII character is at least 0x80, so the
tokens are those of ``[a-z0-9]+`` on the lowered string, and md5 sees the
same bytes.

Each embedder memoises ``token bytes -> bucket``, so md5 runs once per
distinct token; documents and queries drawn from one project share most of
their vocabulary. The memo lives as long as the embedder and holds one
entry per distinct token it has seen. A block of texts makes one
``np.bincount`` over ``row * dimension + bucket``. The counts are exact
small integers and so are their squared sums (below 2**53), so each row,
and its norm, is bitwise what a per-token ``counts[bucket] += 1.0`` loop
and ``np.linalg.norm`` give.

A remote provider with the same contract can be swapped in through
configuration; its wire format is a JSON POST of ``{"input": <text>}``
answered by ``{"embedding": [numbers]}``, one request per text.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from transmigrate.errors import IntegrityError, RetryableBackendError

# Seconds a remote embedding request may take.
_REMOTE_TIMEOUT_S = 30.0

# Texts per bincount block: the block's count matrix is rows * dimension
# integers, 2 MB at the default dimension.
_BLOCK_ROWS = 1024

# Byte translation table: ASCII a-z and 0-9 stay, every other byte is a space.
_SEPARATORS = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 0x20 for b in range(256))


class _BucketMemo(dict):
    """``token bytes -> bucket`` for one dimension; md5 runs on a miss only."""

    def __init__(self, dimension: int) -> None:
        super().__init__()
        self.dimension = dimension

    def __missing__(self, token: bytes) -> int:
        bucket = self[token] = int(hashlib.md5(token).hexdigest()[:8], 16) % self.dimension
        return bucket


def _tokens(text: str) -> list[bytes]:
    """The ``[a-z0-9]+`` tokens of the lowered text as bytes, or the whole
    lowered text when it has characters but no such token."""
    lowered = text.lower().encode("utf-8", "surrogatepass")
    return lowered.translate(_SEPARATORS).split() or ([lowered] if lowered else [])


class HashedTokenEmbedder:
    """Offline bag-of-tokens embedder; bitwise deterministic."""

    def __init__(self, dimension: int) -> None:
        if dimension <= 0:
            raise ValueError("embedding dimension must be positive")
        self.dimension = dimension
        self._buckets = _BucketMemo(dimension)

    def embed(self, texts: list[str]) -> np.ndarray:
        """One row per text, shape ``(len(texts), dimension)``; a text with
        characters has a unit-norm row, the empty text a zero row."""
        dim = self.dimension
        out = np.empty((len(texts), dim))
        for start in range(0, len(texts), _BLOCK_ROWS):
            lengths: list[int] = []
            buckets: list[int] = []
            for text in texts[start : start + _BLOCK_ROWS]:
                tokens = _tokens(text)
                lengths.append(len(tokens))
                buckets.extend(map(self._buckets.__getitem__, tokens))
            rows = len(lengths)
            cells = np.repeat(np.arange(0, rows * dim, dim), lengths) + np.array(buckets, dtype=np.intp)
            counts = np.bincount(cells, minlength=rows * dim).reshape(rows, dim)
            norms = np.sqrt(np.square(counts).sum(axis=1))
            # A text with no token keeps its zero row; any other norm is >= 1.
            np.divide(counts, np.maximum(norms, 1.0)[:, None], out=out[start : start + rows])
        return out


class RemoteEmbedder:
    """HTTP embedding provider behind the same contract as the offline one.

    Responses are re-normalized so the unit-norm invariant holds regardless
    of the remote service's conventions.
    """

    def __init__(self, endpoint: str, dimension: int) -> None:
        self.endpoint = endpoint
        self.dimension = dimension

    def embed(self, texts: list[str]) -> np.ndarray:
        """One request per text, one re-normalized row per response; a
        response without an ``embedding`` list of finite numbers, or of
        another dimension than the configured one, is an IntegrityError."""
        # Imported here: urllib.request pulls in http.client, ssl and email,
        # which the offline embedder never needs.
        import urllib.request

        out = np.empty((len(texts), self.dimension))
        for row, text in enumerate(texts):
            body = json.dumps({"input": text}).encode("utf-8")
            req = urllib.request.Request(
                self.endpoint, data=body, headers={"Content-Type": "application/json"}
            )
            try:
                with urllib.request.urlopen(req, timeout=_REMOTE_TIMEOUT_S) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
            except (OSError, ValueError) as exc:  # urllib's URLError is an OSError
                raise RetryableBackendError(f"embedding provider failed: {exc}") from exc
            try:
                values = np.asarray(payload["embedding"], dtype=np.float64)
            except (LookupError, TypeError, ValueError) as exc:  # e.g. no "embedding" key, or a JSON list
                raise IntegrityError(
                    f"embedding provider {self.endpoint} answered without an \"embedding\" list of numbers: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            # json.loads reads the NaN and Infinity literals, and one such
            # cell would make every score it touches NaN or infinite.
            if not np.isfinite(values).all():
                raise IntegrityError(
                    f"embedding provider {self.endpoint} answered with a value that is not a finite number"
                )
            if values.shape != (self.dimension,):
                raise IntegrityError(
                    f"vector dimension {values.size} does not match index dimension {self.dimension}"
                )
            norm = float(np.linalg.norm(values))
            out[row] = values / norm if norm > 0.0 else values
        return out
