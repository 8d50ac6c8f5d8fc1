"""Twin-field QKD link simulator and key-rate toolkit."""

__version__ = "0.1.0"
