"""Print the counted source lines of each module of src/bigraded and their
total.  A line counts unless it is blank or its first non-blank
character is '#', the rule of ``grep -cvE '^\\s*(#|$)'``; docstrings
count.

    python3 scripts/source_lines.py
"""

import re
from pathlib import Path

SKIPPED = re.compile(r"^\s*(#|$)")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bigraded"


def counted_lines(path: Path) -> int:
    lines = path.read_text(encoding="utf-8").split("\n")
    return sum(1 for line in lines if not SKIPPED.match(line))


def main():
    counts = {p.name: counted_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
