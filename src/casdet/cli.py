"""The ``casdet`` console script.

    casdet fixture PATH

checks a proposal fixture (see ``casdet.proposals.load_proposals``): it
prints the scene count, the proposal count and each rejected line, and
exits 1 if any line was rejected, and 2 if the file cannot be read as
UTF-8 text.
"""

from __future__ import annotations

import argparse
import sys

from .proposals import load_proposals


def _fixture(args: argparse.Namespace) -> int:
    try:
        by_scene, rejected = load_proposals(args.path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"casdet fixture: {exc}", file=sys.stderr)
        return 2
    print(f"scenes: {len(by_scene)}")
    print(f"proposals: {sum(len(props) for props in by_scene.values())}")
    for message in rejected:
        print(f"rejected {message}")
    return 1 if rejected else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="casdet", description="Command-line tools of the casdet detector.")
    commands = parser.add_subparsers(dest="command", required=True)
    fixture = commands.add_parser("fixture", help="check a proposal fixture file")
    fixture.add_argument("path", help="fixture file: one 'scene_id cx cy w h [score]' line per proposal")
    fixture.set_defaults(run=_fixture)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
