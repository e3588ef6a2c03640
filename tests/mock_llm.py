"""A deterministic scripted chat-completion client for the tests.

It speaks the ``send(messages)`` protocol of :class:`tempkgqa.llm.LlmClient`
and replays replies keyed by :func:`message_key`, so retrieval's LLM paths
run without an endpoint.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from tempkgqa.llm import Message, TransportError


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
    Every call's key is recorded so tests can assert on traffic (or its
    absence).
    """

    script: dict[str, str] = field(default_factory=dict)
    default: str | None = None
    calls: list[str] = field(default_factory=list)

    def send(self, messages: Sequence[Message]) -> str:
        key = message_key(messages)
        self.calls.append(key)
        if key in self.script:
            return self.script[key]
        if self.default is not None:
            return self.default
        raise TransportError(f"mock has no scripted reply for {key[:12]}...")
