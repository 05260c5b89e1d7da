"""Filesystem storage backend.

The paper's Fig. 2 shows DTX instances backed either by a DBMS or by a plain
file system; this backend is the latter. One ``<name>.xml`` file per
document inside a base directory. Document names are sanitized into file
names (fragment names like ``xmark#2`` are legal document names).
"""

from __future__ import annotations

import os
import re
from typing import Optional

from ..errors import StorageError
from ..xml.model import Document
from ..xml.parser import parse_document
from ..xml.serializer import XML_DECLARATION, serialize_document
from .base import StorageBackend

_SAFE = re.compile(r"[^A-Za-z0-9._-]")


class FileStore(StorageBackend):
    def __init__(self, base_dir: str):
        self.base_dir = base_dir
        os.makedirs(base_dir, exist_ok=True)
        self._names: dict[str, str] = {}  # doc name -> file path

    def _path(self, name: str) -> str:
        safe = _SAFE.sub("_", name)
        return os.path.join(self.base_dir, f"{safe}.xml")

    def store(self, doc: Document, text: Optional[str] = None) -> int:
        text = XML_DECLARATION + (serialize_document(doc) if text is None else text)
        path = self._path(doc.name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self._names[doc.name] = path
        return len(text.encode("utf-8"))

    def load(self, name: str) -> Document:
        path = self._names.get(name, self._path(name))
        if not os.path.exists(path):
            raise StorageError(f"document {name!r} not in file store {self.base_dir!r}")
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read(), name=name)

    def exists(self, name: str) -> bool:
        return os.path.exists(self._names.get(name, self._path(name)))

    def delete(self, name: str) -> None:
        path = self._names.pop(name, self._path(name))
        if not os.path.exists(path):
            raise StorageError(f"document {name!r} not in file store")
        os.remove(path)

    def list_documents(self) -> list[str]:
        known = {name for name, path in self._names.items() if os.path.exists(path)}
        # Also surface files written by other processes/sessions.
        for fn in os.listdir(self.base_dir):
            if fn.endswith(".xml"):
                stem = fn[:-4]
                if not any(_SAFE.sub("_", n) == stem for n in known):
                    known.add(stem)
        return sorted(known)

    def size_bytes(self, name: str) -> int:
        path = self._names.get(name, self._path(name))
        if not os.path.exists(path):
            raise StorageError(f"document {name!r} not in file store")
        return os.path.getsize(path)
