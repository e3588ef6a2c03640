"""The chat-completion HTTP client.

Retrieval talks to a client through ``send(messages)``, which returns the
reply text or raises :class:`TransportError`.  The CLI builds a
:class:`RemoteLlmClient` only when an endpoint is configured; without one it
passes no client and retrieval's deterministic oracles answer.  Every
request is greedy (temperature 0), capped at :data:`MAX_TOKENS`, and tried
up to :data:`MAX_RETRIES` times (:data:`TIMEOUT`, :data:`BACKOFF`).  The API
key comes from the ``TEMPKGQA_API_KEY`` environment variable only and is
only ever placed in request headers, never in dumps or logs.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Mapping, Protocol, Sequence

import requests

from .errors import TempkgqaError

logger = logging.getLogger(__name__)

API_KEY_ENV = "TEMPKGQA_API_KEY"
RETRYABLE_STATUSES = (429, 500, 502, 503, 504)
MAX_TOKENS = 256  # completion cap of every request; retrieval's replies are short
TIMEOUT = 30.0  # seconds a request may take
MAX_RETRIES = 3  # attempts per request, the first included
BACKOFF = 0.5  # seconds before the second attempt, doubled before each later one

Message = Mapping[str, str]


class TransportError(TempkgqaError, RuntimeError):
    """The client could not obtain a completion; carries diagnostics."""

    def __init__(self, message: str, status: int | None = None, attempts: int = 1) -> None:
        super().__init__(message)
        self.status = status
        self.attempts = attempts


class LlmClient(Protocol):
    def send(self, messages: Sequence[Message]) -> str: ...


class RemoteLlmClient:
    """Minimal chat-completions HTTP client with bounded retries.

    ``model`` is the model name sent in every request body.  Transient
    failures (connection errors, timeouts, 429/5xx) are retried with
    exponential backoff; anything else surfaces immediately as
    :class:`TransportError` with the status code attached, and so does a
    completion whose content is not a string.
    """

    def __init__(self, endpoint: str, model: str) -> None:
        self.endpoint = endpoint
        self.model = model
        self.api_key = os.environ.get(API_KEY_ENV)
        self.session = requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def send(self, messages: Sequence[Message]) -> str:
        body = {
            "model": self.model,
            "messages": [dict(m) for m in messages],
            "temperature": 0.0,
            "max_tokens": MAX_TOKENS,
        }
        last_error: str = "no attempt made"
        last_status: int | None = None
        for attempt in range(1, MAX_RETRIES + 1):
            try:
                response = self.session.post(
                    self.endpoint, json=body, headers=self._headers(), timeout=TIMEOUT
                )
            except requests.RequestException as exc:
                last_error = f"transport failure: {exc.__class__.__name__}"
                logger.debug("attempt %d failed: %s", attempt, exc)
            else:
                if response.status_code == 200:
                    try:
                        content = response.json()["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError):
                        content = None
                    if not isinstance(content, str):
                        raise TransportError(
                            "malformed completion payload", response.status_code, attempt
                        )
                    return content
                last_status = response.status_code
                last_error = f"status {response.status_code}"
                if response.status_code not in RETRYABLE_STATUSES:
                    raise TransportError(
                        f"request rejected with {last_error}", last_status, attempt
                    )
            if attempt < MAX_RETRIES:
                time.sleep(BACKOFF * (2 ** (attempt - 1)))
        raise TransportError(
            f"gave up after {MAX_RETRIES} attempts ({last_error})", last_status, MAX_RETRIES
        )
