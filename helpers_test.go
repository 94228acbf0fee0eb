package deepmc_test

import (
	"context"
	"testing"

	"deepmc/internal/corpus"
	"deepmc/internal/ir"
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

// mustEval runs the static checker over a corpus program, failing the
// test on a corpus error.
func mustEval(tb testing.TB, p *corpus.Program) *corpus.Evaluation {
	tb.Helper()
	ev, err := corpus.Evaluate(context.Background(), p, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return ev
}
