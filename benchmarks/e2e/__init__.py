"""End-to-end benchmark of the NPB suite, its team runtime and its job service."""
