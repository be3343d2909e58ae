"""`python -m muntzlab`: the muntzlab command line."""
from .cli import main

if __name__ == "__main__":
    main()
