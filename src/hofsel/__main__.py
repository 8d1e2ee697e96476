"""``python -m hofsel``: the same command line as the ``hofsel`` script."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="hofsel")
