"""End-to-end benchmark of the RSP deployment (see bench/README.md)."""
