package core

import (
	"testing"

	"deepmc/internal/corpus"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// mustModule parses a corpus program, failing the test on error — the
// corpus sources are compiled-in constants, so failure is a test bug.
func mustModule(tb testing.TB, p *corpus.Program) *ir.Module {
	tb.Helper()
	m, err := p.Module()
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// analyzeSource parses PIR text and analyzes it; a parse failure comes
// back as the error, like any other setup failure.
func analyzeSource(src string, cfg Config) (*report.Report, error) {
	m, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	return Analyze(m, cfg)
}
