"""Photo-based second-factor authentication engine.

A login is confirmed by photographing the PC browser with the phone:
the server reads the domain out of the photographed address bar and
compares it with its own name, which a live relay proxy cannot fake.

The package root exports nothing; import from the submodules.
"""

__version__ = "0.1.0"
