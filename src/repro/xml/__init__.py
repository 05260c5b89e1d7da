"""XML substrate: tree model, parser, serializer, builder.

This package is the storage-independent in-memory representation DTX works
on (paper §2: "XML data handling is conducted in the main memory").
"""

from .builder import E, doc
from .model import Document, Element
from .parser import parse_document, parse_fragment
from .serializer import serialize_document, serialize_element, serialized_size

__all__ = [
    "Document",
    "Element",
    "E",
    "doc",
    "parse_document",
    "parse_fragment",
    "serialize_document",
    "serialize_element",
    "serialized_size",
]
