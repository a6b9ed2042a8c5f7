"""Source structure analysis: parsing, descriptor extraction, dependency graphs."""
