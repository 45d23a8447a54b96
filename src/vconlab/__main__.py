"""``python -m vconlab``: the same command line as the ``vconlab`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
