"""Count the code lines of each module of the package.

A code line is a line that is not blank, not a comment alone and not inside
a docstring (the string that opens a module, class or function). Usage, from
the repository root:

    python3 tools/code_lines.py [REF]

With a git ref, ``src/statecompat`` at REF is exported with ``git archive``
(as ``tools/ab_ops.py`` exports it), and each module's count at REF and the
change are printed beside the working tree's; a module that only one side
has counts 0 on the other.
"""

from __future__ import annotations

import argparse
import ast
import tempfile
from pathlib import Path

from ab_ops import export_base

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "statecompat"


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def module_counts(package: Path) -> dict[str, int]:
    """Code lines per module file name of ``package``, with ``"total"`` last."""
    counts = {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def label(name: str) -> str:
    return name if name == "total" else f"src/statecompat/{name}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", help="a git ref to compare the working tree with")
    args = parser.parse_args(argv)
    now = module_counts(PACKAGE)
    if args.ref is None:
        for name, count in now.items():
            print(f"{count:6d}  {label(name)}")
        return
    with tempfile.TemporaryDirectory() as tmp:
        export_base(args.ref, Path(tmp))
        base = module_counts(Path(tmp) / "statecompat_base")
    names = sorted((now.keys() | base.keys()) - {"total"}) + ["total"]
    print(f"{'ref':>6}  {'now':>6}  {'change':>6}  (ref {args.ref})")
    for name in names:
        before, after = base.get(name, 0), now.get(name, 0)
        print(f"{before:6d}  {after:6d}  {after - before:+6d}  {label(name)}")


if __name__ == "__main__":
    main()
