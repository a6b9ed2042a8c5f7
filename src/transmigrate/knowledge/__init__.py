"""Project knowledge base: document ingestion, embedding, exact retrieval."""
