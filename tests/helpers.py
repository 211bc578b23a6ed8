"""File writers that only the tests need: the package reads these formats
but never writes them."""

import json
from typing import Iterable

from rankkit.types import Document


def write_documents(docs: Iterable[Document], path: str) -> None:
    """A corpus file that ``rankkit.types.read_documents`` reads back as ``docs``."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            rec = {"id": d.id, "modality": d.modality}
            if d.text is not None:
                rec["text"] = d.text
            if d.image_ref is not None:
                rec["image_ref"] = d.image_ref
            fh.write(json.dumps(rec) + "\n")


def set_api_key(monkeypatch, key: str) -> None:
    """``$RERANK_API_KEY`` set to ``key`` for one test, in a copy of the
    environment: the process environment cannot hold a null byte."""
    import os

    monkeypatch.setattr(os, "environ", {**os.environ, "RERANK_API_KEY": key})
