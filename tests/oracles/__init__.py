"""Reference implementations the production paths are tested against."""
