"""Set-up probe, run in a fresh interpreter by run.py to time set-up.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG.json [CONFIG.json ...]

Imports khull from SRC_DIR, loads and validates each config file, and
builds its body.
"""
import sys


def main(argv) -> None:
    sys.path.insert(0, argv[1])
    from khull.experiments import body_from_spec, load_config
    for path in argv[2:]:
        body_from_spec(load_config(path).body)


if __name__ == "__main__":
    main(sys.argv)
