"""The repo's benchmark: see ruler/README.md."""
