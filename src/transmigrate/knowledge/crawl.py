"""Breadth-first same-host crawler for project documentation sites.

Crawling is disabled by default in pipeline configuration; tests exercise
this module against a directory of saved pages (``file://`` URLs) or a
local HTTP server. Markup is stripped to text before chunking.
"""

from __future__ import annotations

import logging
from html.parser import HTMLParser
from urllib.parse import urldefrag, urljoin, urlsplit

from transmigrate.errors import CrawlError
from transmigrate.knowledge.chunks import DocumentChunk, chunk_text

logger = logging.getLogger(__name__)

_FETCH_TIMEOUT = 10.0


class _PageParser(HTMLParser):
    """Collects text content (script/style excluded) and href links."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.links: list[str] = []
        self.title = ""
        self._chunks: list[str] = []
        self._suppress = 0
        self._in_title = False

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._suppress += 1
        elif tag == "title":
            self._in_title = True
        elif tag == "a":
            for key, value in attrs:
                if key == "href" and value:
                    self.links.append(value)

    def handle_endtag(self, tag):
        if tag in ("script", "style") and self._suppress:
            self._suppress -= 1
        elif tag == "title":
            self._in_title = False

    def handle_data(self, data):
        if self._suppress:
            return
        if self._in_title:
            self.title += data
        if data.strip():
            self._chunks.append(data.strip())

    @property
    def text(self) -> str:
        return "\n".join(self._chunks)


def _fetch(url: str) -> str:
    # Imported here: urllib.request pulls in http.client, ssl and email,
    # which a run that crawls nothing never needs.
    import urllib.request

    with urllib.request.urlopen(url, timeout=_FETCH_TIMEOUT) as resp:
        raw = resp.read()
    return raw.decode("utf-8", errors="replace")


def crawl_site(start_url: str, max_depth: int, max_pages: int) -> list[DocumentChunk]:
    """Breadth-first crawl from ``start_url``, same host only.

    The start page is depth 0 and counts toward ``max_pages``. Pages that
    fail to fetch are skipped and logged; an unreachable start URL raises
    CrawlError.
    """
    start_url, _ = urldefrag(start_url)
    start_host = urlsplit(start_url).netloc
    queue: list[tuple[str, int]] = [(start_url, 0)]
    seen = {start_url}
    chunks: list[DocumentChunk] = []
    fetched = 0

    while queue and fetched < max_pages:
        url, depth = queue.pop(0)
        try:
            body = _fetch(url)
        except (OSError, ValueError) as exc:  # urllib's URLError and HTTPError are OSErrors
            if fetched == 0 and url == start_url:
                raise CrawlError(f"start url unreachable: {url} ({exc})") from exc
            logger.warning("skipping page %s: %s", url, exc)
            continue
        fetched += 1
        page = _PageParser()
        page.feed(body)
        metadata = {"url": url}
        if page.title.strip():
            metadata["title"] = page.title.strip()
        chunks.extend(chunk_text(url, "web_page", page.text, metadata))
        if depth >= max_depth:
            continue
        for link in page.links:
            absolute, _ = urldefrag(urljoin(url, link))
            if urlsplit(absolute).netloc != start_host:
                continue  # off-host links excluded
            if urlsplit(absolute).scheme not in ("http", "https", "file"):
                continue
            if absolute not in seen:
                seen.add(absolute)
                queue.append((absolute, depth + 1))
    return chunks
