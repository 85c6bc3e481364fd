"""KG-build benchmark for opennre_ray (see ``run.py`` for the command line)."""
