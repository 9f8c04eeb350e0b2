"""Minimal JSON-over-HTTP client used by the remote embedding and summary backends.

Endpoints and auth tokens come from configuration; secrets are expected via
environment variables at the CLI layer, never baked into config files.
"""

from __future__ import annotations

import json
import time

from lexrag.configs import RemoteConfig


class RemoteError(RuntimeError):
    pass


def post_json(cfg: RemoteConfig, payload: dict) -> dict:
    """POST a JSON payload, returning the decoded JSON response.

    Retries ``cfg.retries`` times on transport errors and 5xx responses with
    linear backoff; anything else raises RemoteError immediately.
    """
    # Imported here, not at module level: commands that load this module with
    # the embedding module never call it, and urllib.request pulls in
    # http.client, ssl and email, which only the remote backends need.
    import urllib.error
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if cfg.auth_token:
        headers["Authorization"] = f"Bearer {cfg.auth_token}"
    last_error: Exception | None = None
    for attempt in range(cfg.retries + 1):
        request = urllib.request.Request(cfg.endpoint, data=body, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=cfg.timeout_seconds) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code < 500:
                raise RemoteError(f"{cfg.endpoint}: HTTP {exc.code}") from exc
            last_error = exc
        except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as exc:
            last_error = exc
        if attempt < cfg.retries:
            time.sleep(cfg.backoff_seconds * (attempt + 1))
    raise RemoteError(f"{cfg.endpoint}: failed after {cfg.retries + 1} attempts: {last_error}")
