"""Print the package's size: per module of ``src/hyperstate`` and in total.

    python tools/package_size.py

A line counts when it is neither blank nor a comment alone; docstring lines
count.  This is the size measure ROADMAP.md uses.  The script only reports:
it sets no threshold and always exits 0.
"""

from __future__ import annotations

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperstate"


def counted_lines(path: Path) -> int:
    """Lines of ``path`` that are neither blank nor comment-only."""
    stripped = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def main() -> int:
    sizes = {path.name: counted_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, sizes))
    for name, lines in sizes.items():
        print(f"{name:<{width}}  {lines:>5}")
    print(f"{'total':<{width}}  {sum(sizes.values()):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
