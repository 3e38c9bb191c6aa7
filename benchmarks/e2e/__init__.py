"""duet-e2e: the repo's end-to-end benchmark (see README.md here)."""
