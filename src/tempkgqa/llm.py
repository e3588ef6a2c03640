"""Chat-completion clients: a deterministic scripted mock and an HTTP client.

Retrieval talks to a client through ``send(messages, params)``.  The CLI
builds a :class:`RemoteLlmClient` only when an endpoint is configured;
without one it passes no client and retrieval runs its deterministic
oracles.  The mock scripts replies for tests.  API keys come from the
``TEMPKGQA_API_KEY`` environment variable and are only ever placed in
request headers, never in dumps or logs.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import requests

from .errors import TempkgqaError

logger = logging.getLogger(__name__)

API_KEY_ENV = "TEMPKGQA_API_KEY"
RETRYABLE_STATUSES = (429, 500, 502, 503, 504)

Message = Mapping[str, str]


class TransportError(TempkgqaError, RuntimeError):
    """The client could not obtain a completion; carries diagnostics."""

    def __init__(self, message: str, status: int | None = None, attempts: int = 1) -> None:
        super().__init__(message)
        self.status = status
        self.attempts = attempts


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.0
    max_tokens: int = 256


class LlmClient(Protocol):
    def send(self, messages: Sequence[Message], params: GenerationParams) -> str: ...


def message_key(messages: Sequence[Message]) -> str:
    """Stable digest of a message list, used to script the mock."""
    digest = hashlib.sha256()
    for message in messages:
        digest.update(message["role"].encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(message["content"].encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


@dataclass
class MockLlmClient:
    """Replays scripted replies keyed by :func:`message_key`.

    ``default`` answers any unscripted prompt; with no default an unscripted
    prompt raises, which keeps tests honest about what they exercise.
    Every call is recorded so tests can assert on traffic (or its absence).
    """

    script: dict[str, str] = field(default_factory=dict)
    default: str | None = None
    calls: list[tuple[str, GenerationParams]] = field(default_factory=list)

    def send(self, messages: Sequence[Message], params: GenerationParams) -> str:
        key = message_key(messages)
        self.calls.append((key, params))
        if key in self.script:
            return self.script[key]
        if self.default is not None:
            return self.default
        raise TransportError(f"mock has no scripted reply for {key[:12]}...")


class RemoteLlmClient:
    """Minimal chat-completions HTTP client with bounded retries.

    ``model`` is the model name sent in every request body.  Transient
    failures (connection errors, timeouts, 429/5xx) are retried with
    exponential backoff; anything else surfaces immediately as
    :class:`TransportError` with the status code attached.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        model: str = "local",
        api_key: str | None = None,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        session: requests.Session | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.session = session or requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def send(self, messages: Sequence[Message], params: GenerationParams) -> str:
        body = {
            "model": self.model,
            "messages": [dict(m) for m in messages],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        last_error: str = "no attempt made"
        last_status: int | None = None
        for attempt in range(1, self.max_retries + 1):
            try:
                response = self.session.post(
                    self.endpoint, json=body, headers=self._headers(), timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = f"transport failure: {exc.__class__.__name__}"
                logger.debug("attempt %d failed: %s", attempt, exc)
            else:
                if response.status_code == 200:
                    try:
                        payload = response.json()
                        return payload["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError):
                        raise TransportError(
                            "malformed completion payload", response.status_code, attempt
                        ) from None
                last_status = response.status_code
                last_error = f"status {response.status_code}"
                if response.status_code not in RETRYABLE_STATUSES:
                    raise TransportError(
                        f"request rejected with {last_error}", last_status, attempt
                    )
            if attempt < self.max_retries:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
        raise TransportError(
            f"gave up after {self.max_retries} attempts ({last_error})",
            last_status,
            self.max_retries,
        )
