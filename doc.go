// Package deepmc is a Go reproduction of "Understanding and Detecting
// Deep Memory Persistency Bugs in NVM Programs with DeepMC" (Reidys &
// Huang, PPoPP 2022).
//
// The library lives under internal/; the command-line tools are
// cmd/deepmc (the checker) and cmd/deepmc-bench (regenerates the paper's
// tables and figures and runs the CI gates).  See README.md for the
// architecture overview, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-versus-measured
// results.
package deepmc
