"""No public function or class of ``aucap`` is reachable only from tests.

Each module-level public ``def`` and ``class`` under ``src/aucap`` must be
named by code in ``src/`` besides its own definition, or be mentioned in
``perfbench/``, which calls some names and wraps others by name from
strings (``perfbench/tracing.py``). In ``src/`` only NAME tokens count, so
a docstring or a comment that names a function does not reach it; in
``perfbench/`` the identifiers inside strings count too.
"""

import ast
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "aucap"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
STRING_TYPES = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def names(paths, in_strings: bool = False) -> Counter:
    """NAME tokens of the files, plus with ``in_strings`` the identifiers in their strings."""
    counts = Counter()
    for path in paths:
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME:
                    counts[tok.string] += 1
                elif in_strings and tok.type in STRING_TYPES:
                    counts.update(IDENTIFIER.findall(tok.string))
    return counts


def public_definitions(paths) -> list[tuple[str, str]]:
    """(module path, name) of every module-level public def and class."""
    out = []
    for path in paths:
        for node in ast.parse(path.read_bytes(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.append((str(path.relative_to(SRC.parent)), node.name))
    return out


def test_no_public_name_is_reached_only_from_tests():
    sources = sorted(SRC.rglob("*.py"))
    definitions = public_definitions(sources)
    defined = Counter(name for _, name in definitions)
    in_src = names(sources)
    in_bench = names(sorted((ROOT / "perfbench").rglob("*.py")), in_strings=True)
    unreached = [f"{path}: {name}" for path, name in definitions
                 if in_src[name] <= defined[name] and not in_bench[name]]
    assert unreached == []
